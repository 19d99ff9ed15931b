/**
 * @file
 * Content-addressed on-disk memoization of completed experiment jobs.
 *
 * Layout: one plain-text file per result inside the cache directory,
 * named `<fnv1a64-hex>.result`. Each file embeds (a) the full canonical
 * parameter serialization that produced the hash — verified on lookup so
 * a hash collision degrades to a cache miss, never a wrong replay — and
 * (b) the summary metrics of the experiment (Ts, Tp, actual/estimated
 * speedup, validation error, every speedup-stack component and the
 * measured parallelization overhead) followed by the raw
 * ThreadCounters of each parallel thread, one `thread` line each, so a
 * report can rebuild the stack under other ReportOptions without
 * re-simulating. Per-core cache/DRAM stats and region snapshots are not
 * persisted.
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
 * Entry format version (the `sst-result-cache v2` magic line; v2 added
 * the `thread` lines). The decoder reads exactly the encoder's lines,
 * so any layout change bumps it; an entry of another version is a miss
 * that the re-executed job overwrites.
 */
inline constexpr int kResultCacheVersion = 2;

/**
 * Encode the persisted summary of @p exp as `key value` lines, then one
 * `thread v1 ... v23` line of raw counters per parallel thread, then an
 * `end` line — the body of a cache entry and the serve protocol's wire
 * form of a completed job (one codec, so the socket and the cache can
 * never disagree about a result).
 */
std::string encodeExperimentSummary(const SpeedupExperiment &exp);

/**
 * Decode encodeExperimentSummary() text strictly into @p out: exactly
 * its lines in its order, integers in decimal digits only, nthreads in
 * 1..kMaxSimCores with one `thread` line of 23 counters per thread, and
 * nothing after `end`. On failure @p out is untouched; false returned.
 */
bool decodeExperimentSummary(const std::string &text,
                             SpeedupExperiment &out);

/**
 * Encode what experiments consume of a 1-thread baseline run — Ts,
 * instructions, spin instructions and engine events — as `key value`
 * lines terminated by an `end` line: the serve protocol's wire form of
 * a baseline job's run (its `done` report, and each experiment lease).
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
     * unreadable/stale-format file; on a hit @p out is what
     * decodeExperimentSummary() fills (see file comment).
     */
    bool lookup(const Fingerprint &fp, SpeedupExperiment &out) const;

    /** Persist @p exp as the result of @p fp (atomic overwrite). */
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
