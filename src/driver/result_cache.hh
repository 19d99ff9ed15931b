/**
 * @file
 * Content-addressed on-disk memoization of completed experiment jobs.
 *
 * Layout: one plain-text file per result inside the cache directory,
 * named `<fnv1a64-hex>.result`. Each file embeds (a) the full canonical
 * parameter serialization that produced the hash — verified on lookup so
 * a hash collision degrades to a cache miss, never a wrong replay — and
 * (b) the experiment's two runs and nothing derived from them: the
 * combined 1-thread baseline's totals, then the parallel run's thread
 * count, totals and one `thread` line of raw ThreadCounters per thread.
 * The stack is assembleExperiment() of them, for the spec that asks.
 * Per-core cache/DRAM stats and region snapshots are not persisted.
 *
 * Writes go through a temp file + atomic rename, so a cache directory
 * shared by concurrent sweep invocations never exposes torn results.
 */

#ifndef SST_DRIVER_RESULT_CACHE_HH
#define SST_DRIVER_RESULT_CACHE_HH

#include <mutex>
#include <string>

#include "core/experiment.hh"
#include "driver/fingerprint.hh"

namespace sst {

/**
 * Entry format version (the `sst-result-cache v3` magic line; v2 added
 * the `thread` lines, v3 dropped the derived summary for the runs). The
 * decoder reads exactly the encoder's lines, so any layout change bumps
 * it; an entry of another version is a miss that the re-executed job
 * overwrites.
 */
inline constexpr int kResultCacheVersion = 3;

/**
 * Encode the runs of @p exp as `key value` lines: exp.single's totals,
 * exp.parallel's `nthreads` and totals, one `thread v1 ... v23` line
 * per parallel thread, then `end` — the body of a cache entry and the
 * serve protocol's wire form of a completed job (one codec, so the
 * socket and the cache can never disagree about a result).
 */
std::string encodeExperimentRuns(const SpeedupExperiment &exp);

/**
 * Decode encodeExperimentRuns() text strictly: exactly its lines in its
 * order, integers in decimal digits only, nthreads in 1..kMaxSimCores
 * with one `thread` line of 23 counters per thread, and nothing after
 * `end`. On success @p out holds the two runs only; on failure it is
 * untouched and false is returned.
 */
bool decodeExperimentRuns(const std::string &text, SpeedupExperiment &out);

/**
 * Encode what experiments consume of a 1-thread baseline run — cycles
 * (Ts), instructions, spin instructions and engine events — as `key
 * value` lines terminated by an `end` line: the serve protocol's wire
 * form of a baseline job's run (its `done` report, and each experiment
 * lease).
 */
std::string encodeBaselineSummary(const RunResult &run);

/**
 * Decode encodeBaselineSummary() text strictly: exactly its lines in
 * its order, decimal digits only, nothing after `end`. On success
 * @p out is a 1-thread run carrying those four fields; on failure it
 * is untouched and false is returned.
 */
bool decodeBaselineSummary(const std::string &text, RunResult &out);

/** On-disk result store keyed by job fingerprints. */
class ResultCache
{
  public:
    /** Open (creating if needed) the cache directory @p dir. */
    explicit ResultCache(std::string dir);

    /**
     * Load the result for @p fp into @p out. Returns false on a miss, a
     * canonical-text mismatch (hash collision or truncated file) or an
     * unreadable/stale-format file; on a hit @p out holds the runs
     * decodeExperimentRuns() fills (see file comment).
     */
    bool lookup(const Fingerprint &fp, SpeedupExperiment &out) const;

    /** Persist the runs of @p exp as the result of @p fp (atomic
     *  overwrite). */
    void store(const Fingerprint &fp, const SpeedupExperiment &exp);

    /** Remove the entry for @p fp if present. */
    void erase(const Fingerprint &fp);

    const std::string &dir() const { return dir_; }

    /** Path of the entry backing @p fp (exists or not). */
    std::string entryPath(const Fingerprint &fp) const;

  private:
    std::string dir_;
    std::mutex writeMutex_;
};

} // namespace sst

#endif // SST_DRIVER_RESULT_CACHE_HH
