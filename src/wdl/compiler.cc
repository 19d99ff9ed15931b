/**
 * @file
 * WDL compiler back end: lowers a validated Program to deterministic
 * per-thread OpSource streams. Each thread interprets its group's
 * statement tree with an explicit frame stack and a buffered refill
 * (the ThreadProgram pattern), drawing every stochastic choice from a
 * per-thread Rng seeded by (group seed, local tid) so streams are pure
 * functions of the compiled IR and thread placement.
 *
 * Parallel streams (any workload with > 1 total thread) emit warmup
 * sweeps, a warmup barrier, lock/barrier ops and an end-of-run
 * rendezvous; the 1-thread baseline stream is the sequential program —
 * full undivided loop counts, critical-section bodies kept, sync ops
 * elided — exactly the serial reference the paper's Ts means.
 */

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "wdl/wdl.hh"
#include "workload/op.hh"
#include "workload/warmup.hh"

namespace sst {
namespace wdl {

namespace {

/** Bytes of lock-protected data per lock id (addrmap region stride). */
constexpr Addr kLockDataBytes = 4096;

/** Ops the interpreter accumulates per refill before yielding a batch. */
constexpr std::size_t kRefillTarget = 256;

/** SplitMix64-style finalizer mixing a group seed with a thread id. */
std::uint64_t
threadSeed(std::uint64_t seed, std::uint64_t tid)
{
    std::uint64_t z = seed ^ (0x9e3779b97f4a7c15ULL + tid * 0xbf58476d1ce4e5b9ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Zipfian key generator over [0, n) — the YCSB/Gray formulation also
 * used by DBx1000's contention knobs. theta in [0, 1); theta == 0 is
 * uniform, 0.9 is the classic highly-skewed setting.
 */
struct ZipfGen
{
    std::uint64_t n = 1;
    double theta = 0.0;
    double alpha = 0.0;
    double zetan = 0.0;
    double eta = 0.0;

    static double
    zeta(std::uint64_t count, double th)
    {
        double sum = 0.0;
        for (std::uint64_t i = 1; i <= count; ++i)
            sum += 1.0 / std::pow(static_cast<double>(i), th);
        return sum;
    }

    void
    init(std::uint64_t count, double th)
    {
        n = count;
        theta = th;
        if (n <= 1)
            return;
        alpha = 1.0 / (1.0 - theta);
        zetan = zeta(n, theta);
        const double zeta2 = zeta(2, theta);
        eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
              (1.0 - zeta2 / zetan);
    }

    std::uint64_t
    draw(Rng &rng) const
    {
        if (n <= 1)
            return 0;
        const double u = rng.uniform();
        const double uz = u * zetan;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta))
            return 1;
        const std::uint64_t key = static_cast<std::uint64_t>(
            static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha));
        return key >= n ? n - 1 : key;
    }
};

/** One thread's interpreter over the statement tree. */
class ProgramSource final : public OpSource
{
  public:
    ProgramSource(std::shared_ptr<const Program> prog, int group,
                  int local_tid, ThreadId data_tid, int group_threads,
                  std::uint64_t seed, bool parallel, int barrier_offset)
        : prog_(std::move(prog)),
          group_(prog_->groups[static_cast<std::size_t>(group)]),
          groupIndex_(group), localTid_(local_tid), dataTid_(data_tid),
          groupThreads_(group_threads), parallel_(parallel),
          barrierOffset_(barrier_offset), rng_(threadSeed(seed, static_cast<std::uint64_t>(local_tid)))
    {
        precomputeZipf(group_.body);
        planWarmup();
    }

    Op
    nextOp() override
    {
        if (finished_)
            return Op::end();
        if (cursor_ >= buf_.size())
            refill();
        if (finished_)
            return Op::end();
        return buf_[cursor_++];
    }

    bool
    finished() const override
    {
        return finished_;
    }

  private:
    enum class RunPhase : std::uint8_t { kWarmup, kBody, kDone };

    struct Frame
    {
        const std::vector<Stmt> *body;
        std::size_t idx = 0;
        std::uint64_t trips = 1;      ///< body passes left (loops)
        const Stmt *owner = nullptr;  ///< lock/phase that opened the frame
        LockId lockId = 0;            ///< resolved key for lock owners
    };

    void
    precomputeZipf(const std::vector<Stmt> &body)
    {
        for (const Stmt &s : body) {
            if (s.kind == Stmt::Kind::kLock &&
                s.sel.kind == LockSel::Kind::kZipf) {
                ZipfGen z;
                z.init(prog_->locks[static_cast<std::size_t>(s.lock)].size,
                       s.sel.theta);
                zipf_.emplace(&s, z);
            } else if (s.kind == Stmt::Kind::kTxn) {
                ZipfGen z;
                z.init(prog_->locks[static_cast<std::size_t>(s.lock)].size,
                       s.theta);
                zipf_.emplace(&s, z);
            }
            if (!s.body.empty())
                precomputeZipf(s.body);
        }
    }

    void
    refill()
    {
        buf_.clear();
        cursor_ = 0;
        if (phase_ == RunPhase::kWarmup) {
            if (warmup_.fill(buf_)) {
                phase_ = RunPhase::kBody;
                stack_.push_back(Frame{&group_.body, 0, 1, nullptr, 0});
            }
            return;
        }
        while (phase_ == RunPhase::kBody && buf_.size() < kRefillTarget) {
            if (!step()) {
                if (parallel_)
                    buf_.push_back(
                        Op::barrier(prog_->barrierSlots + barrierOffset_));
                phase_ = RunPhase::kDone;
            }
        }
        if (buf_.empty() && phase_ == RunPhase::kDone)
            finished_ = true;
    }

    /** Advance the interpreter by one statement/frame event. Returns
     *  false once the whole group body has been executed. */
    bool
    step()
    {
        while (!stack_.empty()) {
            Frame &f = stack_.back();
            if (f.idx >= f.body->size()) {
                if (f.trips > 1) {
                    --f.trips;
                    f.idx = 0;
                    continue;
                }
                const Stmt *owner = f.owner;
                const LockId lockId = f.lockId;
                stack_.pop_back();
                if (owner) {
                    if (owner->kind == Stmt::Kind::kLock) {
                        lockStack_.pop_back();
                        if (parallel_)
                            buf_.push_back(Op::lockRelease(lockId));
                    } else if (owner->kind == Stmt::Kind::kPhase) {
                        if (parallel_)
                            buf_.push_back(
                                Op::barrier(owner->barrier + barrierOffset_));
                    }
                }
                if (!stack_.empty())
                    ++stack_.back().idx;
                return true;
            }

            const Stmt &s = (*f.body)[f.idx];
            switch (s.kind) {
            case Stmt::Kind::kCompute: {
                const std::uint64_t n = s.count.draw(rng_);
                if (n > 0)
                    buf_.push_back(Op::compute(clampCount(n)));
                ++f.idx;
                break;
            }
            case Stmt::Kind::kMemory:
                emitMemory(s);
                ++f.idx;
                break;
            case Stmt::Kind::kBarrier:
            case Stmt::Kind::kYield:
                if (parallel_)
                    buf_.push_back(Op::barrier(s.barrier + barrierOffset_));
                ++f.idx;
                break;
            case Stmt::Kind::kTxn:
                emitTxn(s);
                ++f.idx;
                break;
            case Stmt::Kind::kLoop: {
                const std::uint64_t trips = tripsFor(s);
                if (trips == 0) {
                    ++f.idx;
                    break;
                }
                stack_.push_back(Frame{&s.body, 0, trips, nullptr, 0});
                break; // parent idx advances when the frame pops
            }
            case Stmt::Kind::kLock: {
                const LockId id = resolveLock(s);
                if (parallel_)
                    buf_.push_back(Op::lockAcquire(id));
                lockStack_.push_back(id);
                stack_.push_back(Frame{&s.body, 0, 1, &s, id});
                break;
            }
            case Stmt::Kind::kPhase:
                stack_.push_back(Frame{&s.body, 0, 1, &s, 0});
                break;
            }
            return true;
        }
        return false;
    }

    /** Per-thread trips of a loop: divided over the group's threads
     *  (remainder to the low local tids) unless `each`. */
    std::uint64_t
    tripsFor(const Stmt &s)
    {
        const std::uint64_t n = s.count.draw(rng_);
        if (s.each)
            return n;
        const std::uint64_t t = static_cast<std::uint64_t>(groupThreads_);
        return n / t +
               (static_cast<std::uint64_t>(localTid_) < n % t ? 1 : 0);
    }

    LockId
    resolveLock(const Stmt &s)
    {
        const LockDecl &decl = prog_->locks[static_cast<std::size_t>(s.lock)];
        std::uint64_t key = 0;
        switch (s.sel.kind) {
        case LockSel::Kind::kFixed:
            key = s.sel.index;
            break;
        case LockSel::Kind::kUniform:
            key = rng_.below(decl.size);
            break;
        case LockSel::Kind::kZipf:
            key = zipf_.at(&s).draw(rng_);
            break;
        }
        return static_cast<LockId>(static_cast<std::uint64_t>(decl.firstId) +
                                   key);
    }

    static std::uint32_t
    clampCount(std::uint64_t n)
    {
        return n > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(n);
    }

    void
    emitMemRef(Addr addr, bool store)
    {
        const PC pc = 0x40000 + (memSlot_++ % 64) * 4;
        buf_.push_back(store ? Op::store(addr, pc) : Op::load(addr, pc));
    }

    void
    emitMemory(const Stmt &s)
    {
        const std::uint64_t n = s.count.draw(rng_);
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr base = 0;
            std::uint64_t span = 0;
            switch (s.region) {
            case Region::kPrivate:
                base = addrmap::privateBase(dataTid_);
                span = group_.privateBytes;
                break;
            case Region::kShared:
                base = addrmap::groupSharedBase(groupIndex_);
                span = group_.sharedBytes;
                break;
            case Region::kData:
                base = addrmap::lockDataBase(lockStack_.back());
                span = kLockDataBytes;
                break;
            }
            const Addr addr = span ? base + rng_.below(span) : base;
            emitMemRef(addr, rng_.chance(s.storeFrac));
        }
    }

    void
    emitTxn(const Stmt &s)
    {
        const ZipfGen &gen = zipf_.at(&s);
        const LockDecl &decl = prog_->locks[static_cast<std::size_t>(s.lock)];
        const std::uint64_t ops = s.count.draw(rng_);
        for (std::uint64_t i = 0; i < ops; ++i) {
            const LockId id = static_cast<LockId>(
                static_cast<std::uint64_t>(decl.firstId) + gen.draw(rng_));
            const bool write = !rng_.chance(s.rwRatio);
            if (parallel_)
                buf_.push_back(Op::lockAcquire(id));
            const std::uint64_t c = s.csCompute.draw(rng_);
            if (c > 0)
                buf_.push_back(Op::compute(clampCount(c)));
            const std::uint64_t m = s.csMemory.draw(rng_);
            for (std::uint64_t j = 0; j < m; ++j)
                emitMemRef(addrmap::lockDataBase(id) +
                               rng_.below(kLockDataBytes),
                           write);
            if (parallel_)
                buf_.push_back(Op::lockRelease(id));
        }
    }

    /** Pre-RoI warmup: sweep the private and group-shared regions and
     *  every lock's protected data so the RoI starts from warmed caches,
     *  then rendezvous (parallel runs) and open the RoI. */
    void
    planWarmup()
    {
        const auto lines = [](std::uint64_t bytes) {
            return (bytes + kLineBytes - 1) / kLineBytes;
        };
        warmup_.addSweep(addrmap::privateBase(dataTid_),
                         lines(group_.privateBytes), 0x30000);
        warmup_.addSweep(addrmap::groupSharedBase(groupIndex_),
                         lines(group_.sharedBytes), 0x30010);
        // A declaration's ids are consecutive and lockDataBase is linear
        // in the id, so its locks' data regions form one sweep.
        for (const LockDecl &l : prog_->locks)
            warmup_.addSweep(addrmap::lockDataBase(l.firstId),
                             l.size * lines(kLockDataBytes), 0x30020);
        if (parallel_)
            warmup_.setBarrier(kWarmupBarrierId + barrierOffset_);
    }

    std::shared_ptr<const Program> prog_;
    const GroupIR &group_;
    int groupIndex_;
    int localTid_;
    ThreadId dataTid_;
    int groupThreads_;
    bool parallel_;
    int barrierOffset_;
    Rng rng_;
    std::unordered_map<const Stmt *, ZipfGen> zipf_;

    std::vector<LockId> lockStack_;
    std::vector<Frame> stack_;
    std::vector<Op> buf_;
    std::size_t cursor_ = 0;
    WarmupStream warmup_;
    std::uint64_t memSlot_ = 0;
    RunPhase phase_ = RunPhase::kWarmup;
    bool finished_ = false;
};

/** Strip directory and a trailing ".wdl" from @p path for display. */
std::string
pathStem(const std::string &path)
{
    const std::size_t slash = path.find_last_of("/\\");
    std::string stem =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::string ext = ".wdl";
    if (stem.size() > ext.size() &&
        stem.compare(stem.size() - ext.size(), ext.size(), ext) == 0)
        stem.resize(stem.size() - ext.size());
    return stem.empty() ? std::string("workload") : stem;
}

} // namespace

WorkloadSpec
toWorkloadSpec(std::shared_ptr<const Program> program, std::string source_path)
{
    if (!program)
        throw std::invalid_argument("toWorkloadSpec: null program");
    WorkloadSpec spec;
    spec.role = program->role;
    spec.name =
        program->name.empty() ? pathStem(source_path) : program->name;
    for (const GroupIR &g : program->groups) {
        WorkloadGroup wg;
        // Placeholder profile: carries the per-group label, suite and
        // seed through the driver/trace/CSV layers. The op streams and
        // fingerprints come from the compiled IR, never from these
        // knobs.
        wg.profile.name = g.name;
        wg.profile.suite = "wdl";
        wg.profile.seed = g.seed;
        wg.profile.totalIters = 1;
        wg.profile.barrierPhases = 1;
        wg.profile.finalBarrier = true;
        wg.nthreads = g.nthreads;
        spec.groups.push_back(std::move(wg));
    }
    spec.wdlProgram = std::move(program);
    spec.wdlPath = std::move(source_path);
    spec.validate();
    return spec;
}

WorkloadSpec
loadWorkloadFile(const std::string &path)
{
    return toWorkloadSpec(
        std::make_shared<const Program>(loadProgram(path)), path);
}

OpSourceFactory
Program::sources(const WorkloadSpec &spec) const
{
    if (spec.wdlProgram.get() != this)
        throw std::invalid_argument(
            "Program::sources: spec is not backed by this program");
    // Shares ownership with the spec's pointer, typed as the program.
    const std::shared_ptr<const Program> prog(spec.wdlProgram, this);
    struct GroupCtx
    {
        int first;
        int threads;
        std::uint64_t seed;
        int barrierOffset;
    };
    std::vector<GroupCtx> ctx;
    int first = 0;
    for (std::size_t g = 0; g < spec.groups.size(); ++g) {
        const int offset = spec.role == WorkloadRole::kMix
                               ? static_cast<int>(g) * kGroupSyncStride
                               : 0;
        ctx.push_back(GroupCtx{first, spec.groups[g].nthreads,
                               spec.groups[g].profile.seed, offset});
        first += spec.groups[g].nthreads;
    }
    const bool parallel = spec.nthreads() > 1;
    return [prog, ctx, parallel](ThreadId tid,
                                 int nthreads) -> std::unique_ptr<OpSource> {
        (void)nthreads;
        for (std::size_t g = 0; g < ctx.size(); ++g) {
            const GroupCtx &c = ctx[g];
            if (static_cast<int>(tid) < c.first + c.threads) {
                return std::make_unique<ProgramSource>(
                    prog, static_cast<int>(g),
                    static_cast<int>(tid) - c.first, tid, c.threads, c.seed,
                    parallel, c.barrierOffset);
            }
        }
        throw std::out_of_range("Program::sources: thread id out of range");
    };
}

OpSourceFactory
Program::groupBaselineSources(const WorkloadSpec &spec, int group) const
{
    if (spec.wdlProgram.get() != this)
        throw std::invalid_argument("Program::groupBaselineSources: spec "
                                    "is not backed by this program");
    if (group < 0 || group >= spec.ngroups())
        throw std::out_of_range(
            "Program::groupBaselineSources: bad group index");
    const std::shared_ptr<const Program> prog(spec.wdlProgram, this);
    const std::uint64_t seed =
        spec.groups[static_cast<std::size_t>(group)].profile.seed;
    return [prog, group, seed](ThreadId tid,
                               int nthreads) -> std::unique_ptr<OpSource> {
        (void)tid;
        (void)nthreads;
        return std::make_unique<ProgramSource>(prog, group, /*local_tid=*/0,
                                               /*data_tid=*/0,
                                               /*group_threads=*/1, seed,
                                               /*parallel=*/false,
                                               /*barrier_offset=*/0);
    };
}

} // namespace wdl
} // namespace sst
