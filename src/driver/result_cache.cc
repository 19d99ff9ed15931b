#include "result_cache.hh"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>
#include <unistd.h>

#include "cache/hierarchy.hh"
#include "telemetry/metrics.hh"
#include "util/logging.hh"

namespace sst {
namespace {

const std::string kMagic =
    "sst-result-cache v" + std::to_string(kResultCacheVersion);

/**
 * Sanity bound on the embedded canonical text. Real canonical
 * serializations are O(1 KiB); a corrupt `canonical-bytes` line (bit
 * rot, a torn concurrent writer on a filesystem without atomic rename)
 * must degrade to a miss, not drive a multi-gigabyte allocation.
 */
constexpr std::uint64_t kMaxCanonicalBytes = 1ULL << 20;

/**
 * A run's `key value` lines in order, each with its field of @p r:
 * const when encoding, mutable when decoding, so the encoder and the
 * decoder read one list. Both codecs write these lines per run.
 */
template <typename Run, typename Visit>
void
forEachRunField(Run &r, Visit &&visit)
{
    visit("cycles", r.executionTime);
    visit("instructions", r.totalInstructions);
    visit("spin-instructions", r.totalSpinInstructions);
    visit("events", r.engineEvents);
}

/** The raw counters of one thread, in the order of its `thread` line. */
using TC = ThreadCounters;
constexpr std::uint64_t TC::*kThreadFields[] = {
    &TC::instructions, &TC::spinInstructions, &TC::llcLoadMissStall,
    &TC::llcLoadMisses, &TC::negLlcSampledStall,
    &TC::interThreadMissesSampled, &TC::interThreadHitsSampled,
    &TC::llcAccesses, &TC::atdSampledAccesses, &TC::busWaitOther,
    &TC::bankWaitOther, &TC::pageConflictOther, &TC::spinDetectedTian,
    &TC::spinDetectedLi, &TC::yieldCycles, &TC::coherencyMisses,
    &TC::gtLockSpin, &TC::gtBarrierSpin, &TC::gtLockYield,
    &TC::gtBarrierYield, &TC::gtPreemptYield, &TC::gtMemWaitOther,
    &TC::finishTime};
static_assert(sizeof(kThreadFields) / sizeof(kThreadFields[0]) *
                      sizeof(std::uint64_t) ==
                  sizeof(ThreadCounters),
              "every ThreadCounters member needs a kThreadFields entry");

/** Writes each visited field as a `key value` line. */
struct LineWriter
{
    std::string &out;

    template <typename T>
    void
    operator()(const char *key, T v) const
    {
        out += key;
        out += ' ';
        out += std::to_string(v);
        out += '\n';
    }
};

/**
 * Parse all of @p s into @p out: decimal digits only (no sign, space or
 * empty text) that fit the integer type.
 */
template <typename T>
bool
parseValue(std::string_view s, T &out)
{
    const char *end = s.data() + s.size();
    const auto [p, ec] = std::from_chars(s.data(), end, out);
    return ec == std::errc() && p == end && s[0] != '-';
}

/** A `thread` line's value: exactly the kThreadFields counters. */
bool
parseValue(std::string_view s, ThreadCounters &t)
{
    const char *p = s.data(), *end = p + s.size();
    for (const auto field : kThreadFields) {
        if (field != kThreadFields[0] && (p == end || *p++ != ' '))
            return false;
        const auto [next, ec] = std::from_chars(p, end, t.*field);
        if (ec != std::errc())
            return false;
        p = next;
    }
    return p == end;
}

/** Reads each visited field from the next line, strictly in order. */
class LineReader
{
  public:
    explicit LineReader(std::string_view text) : rest_(text) {}

    /** Parse the next line, which must be `key value`, into @p out. */
    template <typename T>
    void
    operator()(std::string_view key, T &out)
    {
        const std::size_t nl = rest_.find('\n');
        ok_ = ok_ && nl != std::string_view::npos && nl > key.size() &&
              rest_.compare(0, key.size(), key) == 0 &&
              rest_[key.size()] == ' ' &&
              parseValue(rest_.substr(key.size() + 1, nl - key.size() - 1),
                         out);
        if (ok_)
            rest_.remove_prefix(nl + 1);
    }

    bool ok() const { return ok_; }

    /** Every line so far parsed, and only the `end` line is left. */
    bool atEnd() const { return ok_ && rest_ == "end\n"; }

  private:
    std::string_view rest_;
    bool ok_ = true;
};

/**
 * Read the entry of @p fp from @p in into @p out. Every failure mode of
 * a corrupt, truncated or other-version entry — bad magic, wrong hash,
 * an absurd canonical-bytes value, malformed lines, a missing end
 * sentinel — returns false, never crashes.
 */
bool
readEntry(std::istream &in, const Fingerprint &fp, SpeedupExperiment &out)
{
    try {
        std::string line;
        if (!std::getline(in, line) || line != kMagic)
            return false;
        if (!std::getline(in, line) || line != "hash " + fp.hex())
            return false;
        std::uint64_t nbytes = 0;
        const std::string_view key = "canonical-bytes ";
        if (!std::getline(in, line) || line.rfind(key, 0) != 0 ||
            !parseValue(std::string_view(line).substr(key.size()), nbytes))
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
        return decodeExperimentRuns(rest.str(), out);
    } catch (const std::exception &) {
        return false; // unreadable entry == miss
    }
}

} // namespace

std::string
encodeExperimentRuns(const SpeedupExperiment &exp)
{
    std::string out;
    const LineWriter write{out};
    forEachRunField(exp.single, write);
    write("nthreads", exp.parallel.nthreads);
    forEachRunField(exp.parallel, write);
    for (const ThreadCounters &t : exp.parallel.threads) {
        out += "thread";
        for (const auto field : kThreadFields)
            out += ' ' + std::to_string(t.*field);
        out += '\n';
    }
    return out + "end\n";
}

bool
decodeExperimentRuns(const std::string &text, SpeedupExperiment &out)
{
    LineReader in(text);
    SpeedupExperiment exp;
    RunResult &parallel = exp.parallel;
    forEachRunField(exp.single, in);
    in("nthreads", parallel.nthreads);
    // The thread count sizes the counters: bound it before allocating.
    if (!in.ok() || parallel.nthreads < 1 ||
        parallel.nthreads > kMaxSimCores)
        return false;
    forEachRunField(parallel, in);
    parallel.threads.resize(static_cast<std::size_t>(parallel.nthreads));
    for (ThreadCounters &t : parallel.threads)
        in("thread", t);
    if (!in.atEnd())
        return false; // truncated, or more thread lines than nthreads
    exp.single.nthreads = 1;
    exp.single.ncores = 1;
    out = std::move(exp);
    return true;
}

std::string
encodeBaselineSummary(const RunResult &run)
{
    std::string out;
    forEachRunField(run, LineWriter{out});
    return out + "end\n";
}

bool
decodeBaselineSummary(const std::string &text, RunResult &out)
{
    LineReader in(text);
    RunResult run;
    forEachRunField(run, in);
    if (!in.atEnd())
        return false;
    run.nthreads = 1;
    run.ncores = 1;
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
    os << encodeExperimentRuns(exp);

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
    std::ifstream in(entryPath(fp), std::ios::binary);
    if (!in)
        return false;
    if (readEntry(in, fp, out))
        return true;
    // A "heal": the entry existed but failed validation and degraded to
    // a miss — the caller re-executes and store() overwrites the bad
    // entry. Only this function can tell a heal from a plain miss.
    telemetry::Registry::global()
        .counter("sst_driver_cache_heals_total")
        .inc();
    return false;
}

void
ResultCache::erase(const Fingerprint &fp)
{
    std::error_code ec;
    std::filesystem::remove(entryPath(fp), ec);
}

} // namespace sst
