/**
 * @file
 * The parallel experiment driver: executes a declarative batch of
 * speedup-experiment jobs on worker threads that lease them from a
 * JobQueue, runs each distinct single-threaded baseline once as a queue
 * job of its own that every experiment needing it depends on, memoizes
 * completed jobs in a content-addressed on-disk cache (written by the
 * queue), and isolates failures so one bad spec never poisons a batch.
 *
 * The path from spec to row is shared with the experiment service
 * (src/serve/): submitExperiments(), then runInProcessWorker() on the
 * in-process workers, then settledRow(). runBatch() is those three
 * around a pool; a server's local workers run the same worker loop.
 *
 * Determinism contract: a job's result is a pure function of its
 * JobSpec. The simulator keeps all state per-System instance and every
 * RNG stream is seeded from the spec alone, so a batch produces
 * bit-identical results whether it runs with 1 worker or N, in any
 * interleaving, and results are returned in submission order.
 */

#ifndef SST_DRIVER_DRIVER_HH
#define SST_DRIVER_DRIVER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "driver/job.hh"
#include "driver/job_queue.hh"

namespace sst {

class ResultCache;

/** Batch execution configuration. */
struct DriverOptions
{
    /** Worker threads; <= 0 selects std::thread::hardware_concurrency. */
    int jobs = 1;

    /** Result cache directory; empty disables on-disk memoization. */
    std::string cacheDir;

    /** Re-execute and overwrite even on a cache hit. */
    bool refresh = false;

    /**
     * Directory of recorded op traces (see src/trace/). When a job's
     * canonical trace file (tracePathFor) exists there, its parallel
     * run replays from the recording — no op stream is generated for
     * it. Baseline jobs always run the generated 1-thread program,
     * which a recorded baseline stream reproduces bit for bit. Jobs
     * without a recording fall back to live generation; a present but
     * stale/incompatible trace fails the job loudly rather than
     * silently regenerating.
     */
    std::string traceDir;

    /**
     * Capture `.sstt` op traces of live jobs into this directory as
     * the batch runs (the `sst sweep --record-dir` mode). Each freshly
     * executed, non-oversubscribed job writes its canonical trace file
     * (tracePathFor) via the RecordingSource shim around its parallel
     * run; baseline streams are filled by pure generation, each
     * distinct one encoded once, so shared baselines stay shared.
     * Cache hits and trace replays skip capture. Mutually exclusive
     * with traceDir.
     */
    std::string recordDir;

    /**
     * Keep each finished job's full runs. By default a finished
     * experiment keeps only what its cache entry stores (the run
     * totals and each thread's counters) and a baseline only its
     * totals: per-core cache/DRAM stats and region snapshots are freed
     * as soon as the job ends, so a batch's, or a server's, memory does
     * not grow with its runs' barriers. `inspect` and
     * `abl_region_stacks`, which print them, ask for full runs.
     */
    bool fullRuns = false;
};

/** Aggregate counters of one runBatch() call. */
struct BatchStats
{
    std::size_t total = 0;    ///< jobs in the batch
    std::size_t executed = 0; ///< freshly simulated
    std::size_t cached = 0;   ///< replayed from the result cache
    std::size_t failed = 0;   ///< rejected spec or execution error
    std::size_t deduped = 0;  ///< intra-batch fingerprint duplicates
    /** Distinct 1-thread runs: the baseline jobs the queue settled
     *  done (each leased once; a failed run settles done too). */
    std::size_t baselinesComputed = 0;
    std::size_t traceReplays = 0; ///< executed jobs driven from a trace
    std::size_t tracesRecorded = 0; ///< jobs captured via --record-dir
    /** Lease-loop threads: DriverOptions::jobs (0 = hardware threads)
     *  capped at the queued jobs. */
    int workers = 0;
};

/**
 * Executes leased queue jobs (driver/job_queue.hh): one group's 1-thread
 * baseline, or an experiment's parallel run (validation, trace
 * replay/record; the queue pairs and caches it). In-process workers
 * (runInProcessWorker) and `sst worker` processes (src/serve/) share
 * this code.
 * Thread-safe: concurrent run() calls share the record-path claims and
 * encoded baseline streams of --record-dir.
 */
class JobExecutor
{
  public:
    /** @p opts is copied; its cacheDir is not read. */
    explicit JobExecutor(const DriverOptions &opts);
    ~JobExecutor();

    /**
     * Execute @p job. Never throws: spec validation or execution errors
     * yield a kFailed result carrying the message. A successful
     * baseline job's result carries its run (JobResult::baseline), a
     * successful experiment's its parallel run (exp.parallel).
     */
    JobResult run(const LeasedJob &job);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Submit @p specs to @p queue; one outcome per spec, in input order.
 * Validation, fingerprints and lookups in @p cache (may be null) run
 * on up to @p threads threads, then the specs are submitted in input
 * order: a hit settles at once (`cached`), a miss goes behind one
 * baseline job per workload group, keyed by its fingerprint, and an
 * invalid spec goes alone, to fail when it runs.
 */
std::vector<SubmitOutcome>
submitExperiments(JobQueue &queue, const ResultCache *cache,
                  const std::vector<JobSpec> &specs, int priority,
                  std::uint64_t now_ms, int threads);

/**
 * An in-process worker named @p worker: until @p stop() holds, lease a
 * job from @p queue (the lease never expires), run it on @p executor
 * and complete it, under the `job` span. With nothing leasable it waits
 * for the queue to change, or 20 ms, so it also sees a backoff run out.
 * @p now() is the queue's clock: the batch driver, whose jobs never
 * back off, passes 0; a server passes its own, because a job that an
 * external worker failed is requeued with a backoff in that clock.
 */
void runInProcessWorker(JobQueue &queue, JobExecutor &executor,
                        const std::string &worker,
                        const std::function<std::uint64_t()> &now,
                        const std::function<bool()> &stop);

/** Settled experiment @p id assembled for @p spec, the spec that
 *  asked (a twin of another stack detector gets its own stack). */
JobResult settledRow(const JobQueue &queue, JobId id, const JobSpec &spec);

/** Executes job batches; reusable across batches (stats reset per run). */
class ExperimentDriver
{
  public:
    explicit ExperimentDriver(DriverOptions opts = DriverOptions());
    ~ExperimentDriver();

    /**
     * Execute @p specs and return one JobResult per spec, in input
     * order, assembled for that spec. Never throws for per-job
     * failures: a job that fails spec validation or raises during
     * execution yields a kFailed result with the error message, and
     * every other job still completes.
     */
    std::vector<JobResult> runBatch(const std::vector<JobSpec> &specs);

    /** Counters of the most recent runBatch() call. */
    const BatchStats &stats() const { return stats_; }

  private:
    DriverOptions opts_;
    BatchStats stats_;
    std::unique_ptr<class ResultCache> cache_;
};

/**
 * Convenience wrapper: run @p specs with @p options in one call.
 * @param[out] stats batch counters when non-null
 */
std::vector<JobResult> runExperimentBatch(const std::vector<JobSpec> &specs,
                                          const DriverOptions &options,
                                          BatchStats *stats = nullptr);

} // namespace sst

#endif // SST_DRIVER_DRIVER_HH
