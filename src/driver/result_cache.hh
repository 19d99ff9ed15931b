/**
 * @file
 * Content-addressed on-disk memoization of completed experiment jobs.
 *
 * Layout: one plain-text file per result inside the cache directory,
 * named `<fnv1a64-hex>.result`. Each file embeds (a) the full canonical
 * parameter serialization that produced the hash — verified on lookup so
 * a hash collision degrades to a cache miss, never a wrong replay — and
 * (b) the summary metrics of the experiment: Ts, Tp, actual/estimated
 * speedup, validation error, every speedup-stack component and the
 * measured parallelization overhead. The heavyweight per-thread /
 * per-core RunResult payloads are deliberately not persisted: every
 * table and figure consumes only the summary, and omitting them keeps
 * cache files O(100) bytes and format churn low.
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
 * Entry format version (the `sst-result-cache v1` magic line). Bump on
 * incompatible layout changes; unknown keys within a version are
 * skipped, so additive changes don't need one.
 */
inline constexpr int kResultCacheVersion = 1;

/**
 * Encode the persisted summary of @p exp as `key value` lines
 * terminated by an `end` line — the body of a cache entry and the
 * serve protocol's wire form of a completed job (one codec, so the
 * socket and the cache can never disagree about a result).
 */
std::string encodeExperimentSummary(const SpeedupExperiment &exp);

/**
 * Decode encodeExperimentSummary() text into @p out. Returns false on
 * malformed values or truncation (no `end` sentinel); unknown keys are
 * skipped. On success the derived single/parallel run fields are
 * filled exactly like a cache hit (see file comment).
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
     * unreadable/stale-format file; RunResult members of @p out stay
     * empty on a hit (see file comment).
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
    bool lookupImpl(const Fingerprint &fp, SpeedupExperiment &out,
                    bool &opened) const;

    std::string dir_;
    std::mutex writeMutex_;
};

} // namespace sst

#endif // SST_DRIVER_RESULT_CACHE_HH
