/**
 * @file
 * WDL parser and validator: recursive descent over the token stream,
 * name resolution for locks/barriers, structural validation (sync
 * statements never deadlock inside critical sections or diverge across
 * a group's threads), implicit barrier-id assignment for yield/phase,
 * pipeline arrival-alignment checks, and the canonical IR serialization
 * that fingerprints and trace hashes are built from.
 */

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "wdl/lexer.hh"
#include "wdl/wdl.hh"

namespace sst {
namespace wdl {

namespace {

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * FNV-1a with an offset basis one digit short of the standard one
 * (util/canonical.hh). Recorded trace names carry this hash, so it
 * stays as it is.
 */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

class Parser
{
  public:
    Parser(const std::string &text, std::string filename)
        : file_(std::move(filename)), toks_(lex(text, file_))
    {
    }

    Program
    parse()
    {
        while (peek().kind != TokKind::kEof)
            parseTop();
        finalize();
        return std::move(prog_);
    }

  private:
    // ---- token plumbing -------------------------------------------------

    const Token &
    peek(std::size_t ahead = 0) const
    {
        const std::size_t j = pos_ + ahead;
        return toks_[j < toks_.size() ? j : toks_.size() - 1];
    }

    Token
    next()
    {
        Token t = toks_[pos_];
        if (pos_ + 1 < toks_.size())
            ++pos_;
        return t;
    }

    [[noreturn]] void
    fail(const Token &t, const std::string &msg) const
    {
        throw std::invalid_argument(diag(file_, t.line, msg, t.text));
    }

    Token
    expect(TokKind kind, const char *what)
    {
        if (peek().kind != kind)
            fail(peek(), std::string("expected ") + what);
        return next();
    }

    bool
    peekIdent(const char *word, std::size_t ahead = 0) const
    {
        return peek(ahead).kind == TokKind::kIdent && peek(ahead).text == word;
    }

    // ---- values ---------------------------------------------------------

    std::uint64_t
    parseInt(const char *what)
    {
        const Token t = expect(TokKind::kInt, what);
        return t.intValue;
    }

    double
    parseFloat(const char *what)
    {
        if (peek().kind == TokKind::kInt)
            return static_cast<double>(next().intValue);
        if (peek().kind == TokKind::kFloat)
            return next().floatValue;
        fail(peek(), std::string("expected ") + what);
    }

    double
    parseFraction(const char *what)
    {
        const Token at = peek();
        const double v = parseFloat(what);
        if (v < 0.0 || v > 1.0)
            fail(at, std::string(what) + " must be in [0, 1]");
        return v;
    }

    Dist
    parseDist(const char *what)
    {
        Dist d;
        if (peek().kind == TokKind::kInt) {
            d.a = next().intValue;
            return d;
        }
        if (peekIdent("uniform")) {
            const Token at = next();
            expect(TokKind::kLParen, "'(' after uniform");
            d.kind = Dist::Kind::kUniform;
            d.a = parseInt("uniform lower bound");
            expect(TokKind::kComma, "',' between uniform bounds");
            d.b = parseInt("uniform upper bound");
            expect(TokKind::kRParen, "')' after uniform bounds");
            if (d.b < d.a)
                fail(at, "uniform(lo, hi) needs lo <= hi");
            return d;
        }
        fail(peek(), std::string("expected ") + what +
                         " (a count or uniform(lo, hi))");
    }

    double
    parseZipfTheta()
    {
        // caller consumed the `zipf` ident
        expect(TokKind::kLParen, "'(' after zipf");
        const Token at = peek();
        const double theta = parseFloat("zipf theta");
        if (theta < 0.0 || theta >= 1.0)
            fail(at, "zipf theta must be in [0, 1)");
        expect(TokKind::kRParen, "')' after zipf theta");
        return theta;
    }

    // ---- top level ------------------------------------------------------

    void
    parseTop()
    {
        const Token t = expect(TokKind::kIdent, "a top-level declaration");
        if (t.text == "wdl") {
            const Token v = peek();
            if (parseInt("wdl version") != kWdlVersion)
                fail(v, "unsupported wdl version (this build speaks " +
                            std::to_string(kWdlVersion) + ")");
        } else if (t.text == "workload") {
            prog_.name = expect(TokKind::kString, "a quoted workload name").text;
        } else if (t.text == "role") {
            const Token r = expect(TokKind::kIdent, "mix, pipeline or replicated");
            if (r.text == "mix")
                prog_.role = WorkloadRole::kMix;
            else if (r.text == "pipeline")
                prog_.role = WorkloadRole::kPipeline;
            else if (r.text == "replicated")
                prog_.role = WorkloadRole::kReplicated;
            else
                fail(r, "unknown role; expected mix, pipeline or replicated");
            roleSet_ = true;
        } else if (t.text == "seed") {
            prog_.seed = parseInt("a seed value");
        } else if (t.text == "lock") {
            parseLockDecl();
        } else if (t.text == "barrier") {
            const Token name = expect(TokKind::kIdent, "a barrier name");
            checkFreshName(name);
            prog_.barriers.push_back(BarrierDecl{name.text});
        } else if (t.text == "group") {
            parseGroup();
        } else {
            fail(t, "unknown top-level declaration; expected workload, role, "
                    "seed, lock, barrier or group");
        }
    }

    void
    parseLockDecl()
    {
        const Token name = expect(TokKind::kIdent, "a lock name");
        checkFreshName(name);
        LockDecl decl;
        decl.name = name.text;
        if (peek().kind == TokKind::kLBracket) {
            next();
            const Token sz = peek();
            decl.size = parseInt("a lock array size");
            expect(TokKind::kRBracket, "']' after lock array size");
            if (decl.size == 0)
                fail(sz, "lock array size must be positive");
        }
        decl.firstId = static_cast<int>(nextLockId_);
        nextLockId_ += decl.size;
        if (nextLockId_ > kMaxLockIds)
            fail(name, "too many lock ids (max " +
                           std::to_string(kMaxLockIds) + " per program)");
        prog_.locks.push_back(std::move(decl));
    }

    void
    checkFreshName(const Token &name)
    {
        if (!names_.insert(name.text).second)
            fail(name, "duplicate declaration of '" + name.text + "'");
    }

    void
    parseGroup()
    {
        const Token name = expect(TokKind::kIdent, "a group name");
        checkFreshName(name);
        GroupIR g;
        g.name = name.text;
        g.seed = prog_.seed;
        while (peek().kind == TokKind::kIdent &&
               peek(1).kind == TokKind::kEquals) {
            const Token key = next();
            next(); // '='
            if (key.text == "threads") {
                const Token at = peek();
                const std::uint64_t v = parseInt("a thread count");
                if (v == 0 || v > 1024)
                    fail(at, "group thread count must be in [1, 1024]");
                g.nthreads = static_cast<int>(v);
            } else if (key.text == "seed") {
                g.seed = parseInt("a group seed");
            } else if (key.text == "private") {
                const Token at = peek();
                g.privateBytes = parseInt("a private region size");
                if (g.privateBytes > kMaxRegionBytes)
                    fail(at, "private region too large (max 64M)");
            } else if (key.text == "shared") {
                const Token at = peek();
                g.sharedBytes = parseInt("a shared region size");
                if (g.sharedBytes > kMaxRegionBytes)
                    fail(at, "shared region too large (max 64M)");
            } else {
                fail(key, "unknown group attribute; expected threads, seed, "
                          "private or shared");
            }
        }
        const Token open = expect(TokKind::kLBrace, "'{' opening the group body");
        g.body = parseBody(open);
        groupLines_.push_back(name.line);
        prog_.groups.push_back(std::move(g));
    }

    // ---- statements -----------------------------------------------------

    std::vector<Stmt>
    parseBody(const Token &open)
    {
        std::vector<Stmt> body;
        while (peek().kind != TokKind::kRBrace) {
            if (peek().kind == TokKind::kEof)
                fail(peek(), "unexpected end of file (block opened at line " +
                                 std::to_string(open.line) + " is not closed)");
            body.push_back(parseStmt());
        }
        next(); // '}'
        return body;
    }

    Stmt
    parseStmt()
    {
        const Token t = expect(TokKind::kIdent, "a statement");
        Stmt s;
        s.line = t.line;
        if (t.text == "compute") {
            s.kind = Stmt::Kind::kCompute;
            s.count = parseDist("a compute amount");
        } else if (t.text == "memory") {
            parseMemory(s);
        } else if (t.text == "lock") {
            parseLockStmt(s);
        } else if (t.text == "barrier") {
            s.kind = Stmt::Kind::kBarrier;
            const Token name = expect(TokKind::kIdent, "a barrier name");
            s.barrier = lookupBarrier(name);
        } else if (t.text == "yield") {
            s.kind = Stmt::Kind::kYield;
        } else if (t.text == "phase") {
            s.kind = Stmt::Kind::kPhase;
            const Token open = expect(TokKind::kLBrace, "'{' opening the phase body");
            s.body = parseBody(open);
        } else if (t.text == "loop") {
            s.kind = Stmt::Kind::kLoop;
            s.count = parseDist("a trip count");
            if (peekIdent("each")) {
                next();
                s.each = true;
            }
            const Token open = expect(TokKind::kLBrace, "'{' opening the loop body");
            s.body = parseBody(open);
        } else if (t.text == "txn") {
            parseTxn(s, t);
        } else {
            fail(t, "unknown statement; expected compute, memory, lock, "
                    "barrier, yield, phase, loop or txn");
        }
        return s;
    }

    void
    parseMemory(Stmt &s)
    {
        s.kind = Stmt::Kind::kMemory;
        s.count = parseDist("a reference count");
        while (peek().kind == TokKind::kIdent) {
            if (peekIdent("shared")) {
                next();
                s.region = Region::kShared;
            } else if (peekIdent("data")) {
                next();
                s.region = Region::kData;
            } else if (peekIdent("store") &&
                       peek(1).kind == TokKind::kEquals) {
                next();
                next();
                s.storeFrac = parseFraction("store fraction");
            } else {
                break; // next statement
            }
        }
    }

    void
    parseLockStmt(Stmt &s)
    {
        s.kind = Stmt::Kind::kLock;
        const Token name = expect(TokKind::kIdent, "a lock name");
        s.lock = lookupLock(name);
        const LockDecl &decl = prog_.locks[static_cast<std::size_t>(s.lock)];
        if (peek().kind == TokKind::kLBracket) {
            next();
            if (decl.size == 1)
                fail(name, "lock '" + decl.name +
                               "' is scalar; declare it as " + decl.name +
                               "[N] to use a key selector");
            if (peek().kind == TokKind::kInt) {
                const Token idx = next();
                if (idx.intValue >= decl.size)
                    fail(idx, "lock index out of range (array size " +
                                  std::to_string(decl.size) + ")");
                s.sel.kind = LockSel::Kind::kFixed;
                s.sel.index = idx.intValue;
            } else if (peekIdent("uniform")) {
                next();
                s.sel.kind = LockSel::Kind::kUniform;
            } else if (peekIdent("zipf")) {
                next();
                s.sel.kind = LockSel::Kind::kZipf;
                s.sel.theta = parseZipfTheta();
            } else {
                fail(peek(), "expected a lock key selector: an index, "
                             "uniform, or zipf(theta)");
            }
            expect(TokKind::kRBracket, "']' after the lock key selector");
        } else if (decl.size != 1) {
            fail(name, "lock '" + decl.name + "' is an array of " +
                           std::to_string(decl.size) + "; select a key with " +
                           decl.name + "[i], " + decl.name + "[uniform] or " +
                           decl.name + "[zipf(theta)]");
        }
        const Token open = expect(TokKind::kLBrace,
                                  "'{' opening the critical section");
        s.body = parseBody(open);
    }

    void
    parseTxn(Stmt &s, const Token &kw)
    {
        s.kind = Stmt::Kind::kTxn;
        s.count = Dist{Dist::Kind::kConst, 16, 0};
        s.rwRatio = 0.5;
        s.theta = 0.0;
        s.csCompute = Dist{Dist::Kind::kConst, 20, 0};
        s.csMemory = Dist{Dist::Kind::kConst, 2, 0};
        bool haveLocks = false;
        for (;;) {
            if (peekIdent("zipf") && peek(1).kind == TokKind::kLParen) {
                next();
                s.theta = parseZipfTheta();
                continue;
            }
            if (peek().kind != TokKind::kIdent ||
                peek(1).kind != TokKind::kEquals)
                break;
            const Token key = peek();
            if (key.text == "locks") {
                next();
                next();
                const Token name = expect(TokKind::kIdent, "a lock name");
                s.lock = lookupLock(name);
                haveLocks = true;
            } else if (key.text == "txn_ops") {
                next();
                next();
                s.count = parseDist("a txn_ops count");
            } else if (key.text == "rw_ratio") {
                next();
                next();
                s.rwRatio = parseFraction("rw_ratio");
            } else if (key.text == "compute") {
                next();
                next();
                s.csCompute = parseDist("a per-op compute amount");
            } else if (key.text == "memory") {
                next();
                next();
                s.csMemory = parseDist("a per-op reference count");
            } else {
                break; // belongs to the next statement
            }
        }
        if (!haveLocks)
            fail(kw, "txn needs locks=NAME naming the lock array it keys into");
    }

    int
    lookupLock(const Token &name)
    {
        for (std::size_t i = 0; i < prog_.locks.size(); ++i)
            if (prog_.locks[i].name == name.text)
                return static_cast<int>(i);
        std::string known;
        for (const LockDecl &l : prog_.locks)
            known += (known.empty() ? "" : ", ") + l.name;
        fail(name, "undefined lock '" + name.text + "'" +
                       (known.empty() ? " (no locks declared)"
                                      : " (declared locks: " + known + ")"));
    }

    int
    lookupBarrier(const Token &name)
    {
        for (std::size_t i = 0; i < prog_.barriers.size(); ++i)
            if (prog_.barriers[i].name == name.text)
                return static_cast<int>(i);
        std::string known;
        for (const BarrierDecl &b : prog_.barriers)
            known += (known.empty() ? "" : ", ") + b.name;
        fail(name, "undefined barrier '" + name.text + "'" +
                       (known.empty() ? " (no barriers declared)"
                                      : " (declared barriers: " + known + ")"));
    }

    // ---- validation -----------------------------------------------------

    void
    finalize()
    {
        if (prog_.groups.empty())
            fail(peek(), "a workload needs at least one group");
        if (prog_.groups.size() > static_cast<std::size_t>(kMaxWorkloadGroups))
            fail(peek(), "too many groups (max " +
                             std::to_string(kMaxWorkloadGroups) + ")");
        if (prog_.groups.size() == 1) {
            if (roleSet_ && prog_.role == WorkloadRole::kPipeline)
                fail(peek(), "role pipeline needs at least 2 groups");
            prog_.role = WorkloadRole::kReplicated;
        } else {
            if (roleSet_ && prog_.role == WorkloadRole::kReplicated)
                fail(peek(), "role replicated allows exactly one group");
            if (!roleSet_)
                prog_.role = WorkloadRole::kMix;
        }

        int maxImplicit = 0;
        for (std::size_t gi = 0; gi < prog_.groups.size(); ++gi) {
            GroupIR &g = prog_.groups[gi];
            int implicit = 0;
            checkBody(g.body, g, /*inLock=*/-1, /*barrierSafe=*/true,
                      implicit);
            if (implicit > maxImplicit)
                maxImplicit = implicit;
        }
        prog_.barrierSlots =
            static_cast<int>(prog_.barriers.size()) + maxImplicit;

        if (prog_.role == WorkloadRole::kPipeline) {
            std::string first;
            for (std::size_t gi = 0; gi < prog_.groups.size(); ++gi) {
                std::string sig;
                arrivalSignature(prog_.groups[gi].body, prog_.groups[gi], sig);
                if (gi == 0) {
                    first = sig;
                } else if (sig != first) {
                    throw std::invalid_argument(diag(
                        file_, groupLines_[gi],
                        "pipeline groups must arrive at the same barriers "
                        "in the same per-thread order; group '" +
                            prog_.groups[gi].name + "' diverges from '" +
                            prog_.groups[0].name + "'",
                        prog_.groups[gi].name));
                }
            }
        }
    }

    /**
     * Recursive structural checks. @p inLock is the statement line of the
     * enclosing critical section (-1 outside); @p barrierSafe is false
     * under any loop whose per-thread trip count may differ across the
     * group's threads. Assigns implicit barrier ids in pre-order.
     */
    void
    checkBody(std::vector<Stmt> &body, const GroupIR &g, int inLock,
              bool barrierSafe, int &implicit)
    {
        for (Stmt &s : body) {
            switch (s.kind) {
            case Stmt::Kind::kCompute:
                break;
            case Stmt::Kind::kMemory:
                if (s.region == Region::kShared && g.sharedBytes == 0)
                    failAt(s, "group '" + g.name +
                                  "' has no shared region (set shared=SIZE "
                                  "on the group)");
                if (s.region == Region::kData && inLock < 0)
                    failAt(s, "memory ... data is only meaningful inside a "
                              "critical section");
                break;
            case Stmt::Kind::kLock:
            case Stmt::Kind::kTxn:
                if (inLock >= 0)
                    failAt(s, "nested critical sections are not supported "
                              "(enclosing lock at line " +
                                  std::to_string(inLock) + ")");
                if (s.kind == Stmt::Kind::kLock)
                    checkBody(s.body, g, s.line, barrierSafe, implicit);
                break;
            case Stmt::Kind::kBarrier:
            case Stmt::Kind::kYield:
            case Stmt::Kind::kPhase:
                if (inLock >= 0)
                    failAt(s, "synchronizing inside a critical section would "
                              "deadlock (enclosing lock at line " +
                                  std::to_string(inLock) + ")");
                if (!barrierSafe)
                    failAt(s, "synchronization inside a loop whose per-thread "
                              "trip count can differ across threads; use a "
                              "constant count divisible by the group's " +
                                  std::to_string(g.nthreads) +
                                  " threads, or 'each'");
                if (s.kind == Stmt::Kind::kYield) {
                    s.barrier =
                        static_cast<int>(prog_.barriers.size()) + implicit++;
                } else if (s.kind == Stmt::Kind::kPhase) {
                    s.barrier =
                        static_cast<int>(prog_.barriers.size()) + implicit++;
                    checkBody(s.body, g, inLock, barrierSafe, implicit);
                }
                break;
            case Stmt::Kind::kLoop: {
                const bool childSafe =
                    barrierSafe && s.count.isConst() &&
                    (s.each ||
                     s.count.a % static_cast<std::uint64_t>(g.nthreads) == 0);
                checkBody(s.body, g, inLock, childSafe, implicit);
                break;
            }
            }
        }
    }

    [[noreturn]] void
    failAt(const Stmt &s, const std::string &msg) const
    {
        throw std::invalid_argument(diag(file_, s.line, msg, ""));
    }

    /**
     * Serialize the per-thread barrier-arrival structure of @p body
     * (loops with no barriers underneath are skipped); pipeline groups
     * must agree on it or the run would deadlock.
     */
    void
    arrivalSignature(const std::vector<Stmt> &body, const GroupIR &g,
                     std::string &out) const
    {
        for (const Stmt &s : body) {
            switch (s.kind) {
            case Stmt::Kind::kBarrier:
            case Stmt::Kind::kYield:
                out += "B" + std::to_string(s.barrier) + ";";
                break;
            case Stmt::Kind::kPhase:
                arrivalSignature(s.body, g, out);
                out += "B" + std::to_string(s.barrier) + ";";
                break;
            case Stmt::Kind::kLoop: {
                std::string inner;
                arrivalSignature(s.body, g, inner);
                if (inner.empty())
                    break;
                // validated: constant count, divisible unless `each`
                const std::uint64_t trips =
                    s.each ? s.count.a
                           : s.count.a / static_cast<std::uint64_t>(g.nthreads);
                out += "L" + std::to_string(trips) + "(" + inner + ")";
                break;
            }
            default:
                break;
            }
        }
    }

    std::string file_;
    std::vector<Token> toks_;
    std::size_t pos_ = 0;
    Program prog_;
    std::set<std::string> names_;
    std::vector<int> groupLines_;
    std::uint64_t nextLockId_ = 0;
    bool roleSet_ = false;
};

void
serializeDist(std::string &out, const Dist &d)
{
    if (d.isConst()) {
        out += std::to_string(d.a);
    } else {
        out += "uniform(" + std::to_string(d.a) + "," + std::to_string(d.b) +
               ")";
    }
}

void
serializeBody(std::string &out, const Program &prog,
              const std::vector<Stmt> &body, int depth)
{
    const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    for (const Stmt &s : body) {
        out += pad;
        switch (s.kind) {
        case Stmt::Kind::kCompute:
            out += "compute ";
            serializeDist(out, s.count);
            break;
        case Stmt::Kind::kMemory:
            out += "memory ";
            serializeDist(out, s.count);
            if (s.region == Region::kShared)
                out += " shared";
            else if (s.region == Region::kData)
                out += " data";
            out += " store=" + fmtDouble(s.storeFrac);
            break;
        case Stmt::Kind::kLock: {
            const LockDecl &decl = prog.locks[static_cast<std::size_t>(s.lock)];
            out += "lock " + decl.name;
            if (decl.size != 1) {
                out += "[";
                if (s.sel.kind == LockSel::Kind::kFixed)
                    out += std::to_string(s.sel.index);
                else if (s.sel.kind == LockSel::Kind::kUniform)
                    out += "uniform";
                else
                    out += "zipf(" + fmtDouble(s.sel.theta) + ")";
                out += "]";
            }
            out += " {\n";
            serializeBody(out, prog, s.body, depth + 1);
            out += pad + "}";
            break;
        }
        case Stmt::Kind::kBarrier:
            out += "barrier " +
                   prog.barriers[static_cast<std::size_t>(s.barrier)].name;
            break;
        case Stmt::Kind::kYield:
            out += "yield";
            break;
        case Stmt::Kind::kPhase:
            out += "phase {\n";
            serializeBody(out, prog, s.body, depth + 1);
            out += pad + "}";
            break;
        case Stmt::Kind::kLoop:
            out += "loop ";
            serializeDist(out, s.count);
            if (s.each)
                out += " each";
            out += " {\n";
            serializeBody(out, prog, s.body, depth + 1);
            out += pad + "}";
            break;
        case Stmt::Kind::kTxn:
            out += "txn txn_ops=";
            serializeDist(out, s.count);
            out += " rw_ratio=" + fmtDouble(s.rwRatio);
            out += " locks=" + prog.locks[static_cast<std::size_t>(s.lock)].name;
            out += " zipf(" + fmtDouble(s.theta) + ")";
            out += " compute=";
            serializeDist(out, s.csCompute);
            out += " memory=";
            serializeDist(out, s.csMemory);
            break;
        }
        out += "\n";
    }
}

} // namespace

std::uint64_t
Dist::draw(Rng &rng) const
{
    if (isConst())
        return a;
    return a + rng.below(b - a + 1);
}

std::string
Program::canonicalText() const
{
    std::string out = "wdl " + std::to_string(kWdlVersion) + "\n";
    if (!name.empty())
        out += "workload \"" + name + "\"\n";
    out += std::string("role ") + workloadRoleName(role) + "\n";
    out += "seed " + std::to_string(seed) + "\n";
    for (const LockDecl &l : locks) {
        out += "lock " + l.name;
        if (l.size != 1)
            out += "[" + std::to_string(l.size) + "]";
        out += "\n";
    }
    for (const BarrierDecl &b : barriers)
        out += "barrier " + b.name + "\n";
    for (const GroupIR &g : groups) {
        out += "group " + g.name + " threads=" + std::to_string(g.nthreads) +
               " seed=" + std::to_string(g.seed) +
               " private=" + std::to_string(g.privateBytes) +
               " shared=" + std::to_string(g.sharedBytes) + " {\n";
        serializeBody(out, *this, g.body, 1);
        out += "}\n";
    }
    return out;
}

std::uint64_t
Program::irHash() const
{
    return fnv1a(canonicalText());
}

Program
parseProgram(const std::string &text, const std::string &filename)
{
    return Parser(text, filename).parse();
}

Program
loadProgram(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::invalid_argument(path + ": cannot open workload file");
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    if (text.size() > kMaxFileBytes)
        throw std::invalid_argument(
            path + ": workload file too large (max " +
            std::to_string(kMaxFileBytes) + " bytes)");
    return parseProgram(text, path);
}

} // namespace wdl
} // namespace sst
