#include "result_cache.hh"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <unistd.h>

#include "telemetry/metrics.hh"
#include "util/logging.hh"

namespace sst {
namespace {

constexpr const char *kMagic = "sst-result-cache v1";

/**
 * Sanity bound on the embedded canonical text. Real canonical
 * serializations are O(1 KiB); a corrupt `canonical-bytes` line (bit
 * rot, a torn concurrent writer on a filesystem without atomic rename)
 * must degrade to a miss, not drive a multi-gigabyte allocation.
 */
constexpr std::uint64_t kMaxCanonicalBytes = 1ULL << 20;

void
putU64(std::ostream &os, const char *key, std::uint64_t v)
{
    os << key << ' ' << v << '\n';
}

void
putF64(std::ostream &os, const char *key, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << key << ' ' << buf << '\n';
}

/** Parse "key value" where value round-trips via strtoull/strtod. */
class LineReader
{
  public:
    explicit LineReader(std::istream &is) : is_(is) {}

    bool
    next(std::string &key, std::string &value)
    {
        std::string line;
        if (!std::getline(is_, line))
            return false;
        const std::size_t sp = line.find(' ');
        if (sp == std::string::npos) {
            key = line;
            value.clear();
        } else {
            key = line.substr(0, sp);
            value = line.substr(sp + 1);
        }
        return true;
    }

  private:
    std::istream &is_;
};

bool
toU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    return errno == 0 && end && *end == '\0';
}

bool
toF64(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return errno == 0 && end && *end == '\0';
}

} // namespace

std::string
encodeExperimentSummary(const SpeedupExperiment &exp)
{
    std::ostringstream os;
    os << "label " << exp.label << '\n';
    putU64(os, "nthreads", static_cast<std::uint64_t>(exp.nthreads));
    putU64(os, "ts", exp.ts);
    putU64(os, "tp", exp.tp);
    putF64(os, "actualSpeedup", exp.actualSpeedup);
    putF64(os, "estimatedSpeedup", exp.estimatedSpeedup);
    putF64(os, "error", exp.error);
    putF64(os, "parOverheadMeasured", exp.parOverheadMeasured);
    putU64(os, "stack.nthreads",
           static_cast<std::uint64_t>(exp.stack.nthreads));
    putF64(os, "stack.posLlc", exp.stack.posLlc);
    putF64(os, "stack.negLlc", exp.stack.negLlc);
    putF64(os, "stack.negMem", exp.stack.negMem);
    putF64(os, "stack.spin", exp.stack.spin);
    putF64(os, "stack.yield", exp.stack.yield);
    putF64(os, "stack.imbalance", exp.stack.imbalance);
    putF64(os, "stack.coherency", exp.stack.coherency);
    putF64(os, "stack.baseSpeedup", exp.stack.baseSpeedup);
    putF64(os, "stack.estimatedSpeedup", exp.stack.estimatedSpeedup);
    putU64(os, "single.totalInstructions", exp.single.totalInstructions);
    putU64(os, "single.totalSpinInstructions",
           exp.single.totalSpinInstructions);
    putU64(os, "parallel.totalInstructions",
           exp.parallel.totalInstructions);
    putU64(os, "parallel.totalSpinInstructions",
           exp.parallel.totalSpinInstructions);
    os << "end\n";
    return os.str();
}

bool
decodeExperimentSummary(const std::string &text, SpeedupExperiment &out)
{
    std::istringstream in(text);
    SpeedupExperiment exp;
    bool sawEnd = false;
    LineReader reader(in);
    std::string key, value;
    while (reader.next(key, value)) {
        if (key == "end") {
            sawEnd = true;
            break;
        }
        std::uint64_t u = 0;
        bool ok = true;
        if (key == "label")
            exp.label = value;
        else if (key == "nthreads")
            ok = toU64(value, u), exp.nthreads = static_cast<int>(u);
        else if (key == "ts")
            ok = toU64(value, exp.ts);
        else if (key == "tp")
            ok = toU64(value, exp.tp);
        else if (key == "actualSpeedup")
            ok = toF64(value, exp.actualSpeedup);
        else if (key == "estimatedSpeedup")
            ok = toF64(value, exp.estimatedSpeedup);
        else if (key == "error")
            ok = toF64(value, exp.error);
        else if (key == "parOverheadMeasured")
            ok = toF64(value, exp.parOverheadMeasured);
        else if (key == "stack.nthreads")
            ok = toU64(value, u), exp.stack.nthreads = static_cast<int>(u);
        else if (key == "stack.posLlc")
            ok = toF64(value, exp.stack.posLlc);
        else if (key == "stack.negLlc")
            ok = toF64(value, exp.stack.negLlc);
        else if (key == "stack.negMem")
            ok = toF64(value, exp.stack.negMem);
        else if (key == "stack.spin")
            ok = toF64(value, exp.stack.spin);
        else if (key == "stack.yield")
            ok = toF64(value, exp.stack.yield);
        else if (key == "stack.imbalance")
            ok = toF64(value, exp.stack.imbalance);
        else if (key == "stack.coherency")
            ok = toF64(value, exp.stack.coherency);
        else if (key == "stack.baseSpeedup")
            ok = toF64(value, exp.stack.baseSpeedup);
        else if (key == "stack.estimatedSpeedup")
            ok = toF64(value, exp.stack.estimatedSpeedup);
        else if (key == "single.totalInstructions")
            ok = toU64(value, exp.single.totalInstructions);
        else if (key == "single.totalSpinInstructions")
            ok = toU64(value, exp.single.totalSpinInstructions);
        else if (key == "parallel.totalInstructions")
            ok = toU64(value, exp.parallel.totalInstructions);
        else if (key == "parallel.totalSpinInstructions")
            ok = toU64(value, exp.parallel.totalSpinInstructions);
        // Unknown keys are skipped: forward-compatible within a version.
        if (!ok)
            return false;
    }
    if (!sawEnd)
        return false; // truncated write that predates atomic publish

    exp.single.nthreads = 1;
    exp.single.executionTime = exp.ts;
    exp.parallel.nthreads = exp.nthreads;
    exp.parallel.ncores = exp.nthreads;
    exp.parallel.executionTime = exp.tp;
    out = std::move(exp);
    return true;
}

std::string
encodeBaselineSummary(const RunResult &run)
{
    std::ostringstream os;
    putU64(os, "ts", run.executionTime);
    putU64(os, "instructions", run.totalInstructions);
    putU64(os, "spin-instructions", run.totalSpinInstructions);
    putU64(os, "events", run.engineEvents);
    os << "end\n";
    return os.str();
}

bool
decodeBaselineSummary(const std::string &text, RunResult &out)
{
    // Strict: exactly the encoder's lines, in its order, digits only,
    // and nothing after `end` — the text arrives off the wire.
    RunResult run;
    run.nthreads = 1;
    run.ncores = 1;
    const std::pair<const char *, std::uint64_t *> fields[] = {
        {"ts", &run.executionTime},
        {"instructions", &run.totalInstructions},
        {"spin-instructions", &run.totalSpinInstructions},
        {"events", &run.engineEvents},
    };
    std::size_t pos = 0;
    for (const auto &[key, value] : fields) {
        const std::string prefix = std::string(key) + ' ';
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos ||
            text.compare(pos, prefix.size(), prefix) != 0)
            return false;
        const std::string digits =
            text.substr(pos + prefix.size(), nl - pos - prefix.size());
        if (digits.find_first_not_of("0123456789") != std::string::npos ||
            !toU64(digits, *value))
            return false;
        pos = nl + 1;
    }
    if (text.compare(pos, std::string::npos, "end\n") != 0)
        return false;
    out = std::move(run);
    return true;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("cannot create result cache directory '" + dir_ +
              "': " + ec.message());
}

std::string
ResultCache::entryPath(const Fingerprint &fp) const
{
    return dir_ + "/" + fp.hex() + ".result";
}

void
ResultCache::store(const Fingerprint &fp, const SpeedupExperiment &exp)
{
    std::ostringstream os;
    os << kMagic << '\n';
    os << "hash " << fp.hex() << '\n';
    os << "canonical-bytes " << fp.canonical.size() << '\n';
    os << fp.canonical;
    os << encodeExperimentSummary(exp);

    // Atomic publish: temp file + rename. The mutex keeps two threads of
    // this process from interleaving on the same temp name; the pid makes
    // the temp name unique across processes sharing one cache directory,
    // and rename() atomicity makes the publish itself safe either way.
    std::lock_guard<std::mutex> lock(writeMutex_);
    const std::string tmp =
        entryPath(fp) + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            warn("result cache: cannot write " + tmp);
            return;
        }
        out << os.str();
    }
    std::error_code ec;
    std::filesystem::rename(tmp, entryPath(fp), ec);
    if (ec) {
        warn("result cache: cannot publish " + entryPath(fp) + ": " +
             ec.message());
        std::filesystem::remove(tmp, ec);
    }
}

bool
ResultCache::lookup(const Fingerprint &fp, SpeedupExperiment &out) const
{
    bool opened = false;
    const bool hit = lookupImpl(fp, out, opened);
    // A "heal": the entry existed but failed validation (corruption,
    // truncation, hash mismatch) and degraded to a miss — the caller
    // re-executes and store() overwrites the bad entry. Only this
    // function can tell a heal from a plain miss.
    if (!hit && opened)
        telemetry::Registry::global()
            .counter("sst_driver_cache_heals_total")
            .inc();
    return hit;
}

bool
ResultCache::lookupImpl(const Fingerprint &fp, SpeedupExperiment &out,
                        bool &opened) const
{
    // Every failure mode of a corrupt or truncated entry — bad magic,
    // wrong hash, an absurd canonical-bytes value, malformed metric
    // lines, a missing end sentinel — is a miss, never a crash: the
    // caller re-executes and store() overwrites the bad entry.
    try {
        std::ifstream in(entryPath(fp), std::ios::binary);
        if (!in)
            return false;
        opened = true;

        std::string line;
        if (!std::getline(in, line) || line != kMagic)
            return false;
        if (!std::getline(in, line) || line != "hash " + fp.hex())
            return false;
        std::uint64_t nbytes = 0;
        if (!std::getline(in, line) ||
            line.rfind("canonical-bytes ", 0) != 0 ||
            !toU64(line.substr(std::strlen("canonical-bytes ")), nbytes))
            return false;
        if (nbytes > kMaxCanonicalBytes)
            return false; // corrupt length: don't even try to allocate
        std::string canonical(nbytes, '\0');
        if (!in.read(canonical.data(),
                     static_cast<std::streamsize>(nbytes)) ||
            canonical != fp.canonical)
            return false; // collision or stale encoding: treat as a miss

        std::ostringstream rest;
        rest << in.rdbuf();
        SpeedupExperiment exp;
        if (!decodeExperimentSummary(rest.str(), exp))
            return false;
        out = std::move(exp);
        return true;
    } catch (const std::exception &) {
        return false; // unreadable entry == miss
    }
}

void
ResultCache::erase(const Fingerprint &fp)
{
    std::error_code ec;
    std::filesystem::remove(entryPath(fp), ec);
}

} // namespace sst
