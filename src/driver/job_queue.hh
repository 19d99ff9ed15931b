/**
 * @file
 * The standalone job queue behind every execution backend: in-process
 * workers (runInProcessWorker, driver.hh: the batch driver's pool and a
 * server's local workers) and external worker processes (`sst worker`)
 * are backends of one queue.
 *
 * A queued job runs either the experiment of a JobSpec or the 1-thread
 * baseline of one workload group of it. Every speedup is Ts/Tp, and Ts
 * comes from the baselines: an experiment job depends on one baseline
 * job per group and is only leased once all of them are done, so a
 * baseline shared by many experiments runs once, on any worker.
 *
 * An experiment job produces only its parallel run (Tp); complete()
 * pairs it with Ts of the baseline jobs the queue settled and writes
 * the result cache under the fingerprint the job was submitted with,
 * so no backend decides which Ts a Tp gets.
 *
 * Semantics:
 *  - ordering: higher priority first, FIFO (submission order) within a
 *    priority level. A pending baseline takes the highest priority of
 *    the experiments that depend on it;
 *  - dedup: an experiment is keyed by its content fingerprint
 *    (driver/fingerprint.hh), a baseline by its baseline fingerprint.
 *    A submission whose key matches a pending, leased or completed job
 *    returns the existing job id with `deduped = true` — a million-job
 *    campaign resubmitted is a no-op. Jobs that settled as failed or
 *    cancelled do NOT dedup: resubmitting one enqueues a fresh attempt;
 *  - dependencies: a baseline that settles failed (an error result,
 *    exhausted attempts or cancellation) fails every pending experiment
 *    that depends on it with its error;
 *  - leases: workers lease one job at a time and must heartbeat it. A
 *    lease that outlives its expiry (a killed worker) is requeued by
 *    expireLeases() with exponential backoff; once a job has been
 *    leased maxAttempts times without completing it settles as failed
 *    with a descriptive error — one crashing worker never poisons a
 *    campaign. An in-process worker dies only with its process, so its
 *    lease never expires and needs no heartbeat;
 *  - the worker ledger: the queue decides whether a lease, a complete()
 *    or a fail() counts, so it keeps each worker name's counts
 *    (QueueStats::workers) and bumps the `sst_serve_worker_*` and
 *    `sst_serve_jobs_done_total` counters where it counts;
 *  - retries are for infrastructure failures only. A job whose spec is
 *    deterministically bad completes with a kFailed JobResult (the
 *    executor never throws); fail() is for worker-side errors that a
 *    different worker or a later attempt might not hit (undecodable
 *    wire payloads, dead processes).
 *
 * All timestamps are injected milliseconds (`now_ms`): the queue never
 * reads a clock, so tests drive lease expiry, backoff and a worker's
 * completion rate directly, and the batch driver, whose leases never
 * expire and whose jobs never back off, simply passes 0 everywhere.
 */

#ifndef SST_DRIVER_JOB_QUEUE_HH
#define SST_DRIVER_JOB_QUEUE_HH

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "driver/fingerprint.hh"
#include "driver/job.hh"

namespace sst {

class ResultCache;

/** Queue-wide job identifier (1-based; 0 is never a valid id). */
using JobId = std::uint64_t;

/** Lifecycle of one queued job. */
enum class QueueJobState : std::uint8_t {
    kPending,   ///< waiting for its baselines or a lease (maybe in backoff)
    kLeased,    ///< held by a worker, lease not yet expired
    kDone,      ///< completed with a JobResult (ok, cached or failed)
    kFailed,    ///< gave up: attempts exhausted, or a baseline failed
    kCancelled, ///< cancelled while pending
};

/** Number of QueueJobState values. */
inline constexpr std::size_t kQueueJobStates = 5;

/** Stable lowercase label of @p state ("pending", "leased", ...). */
const char *queueJobStateName(QueueJobState state);

/** Group index of a queued job that runs an experiment, not a baseline. */
inline constexpr int kExperimentJob = -1;

/** Retry/lease policy knobs. */
struct JobQueueOptions
{
    /** Lease count after which an uncompleted job settles as failed. */
    int maxAttempts = 3;

    /** Lease duration handed to workers (heartbeats extend it). */
    std::uint64_t leaseMs = 30000;

    /** Requeue backoff: base << (attempt - 1), capped below. */
    std::uint64_t backoffBaseMs = 1000;
    std::uint64_t backoffCapMs = 60000;
};

/** Outcome of one submit() call. */
struct SubmitOutcome
{
    JobId id = 0;
    bool deduped = false; ///< id names a pre-existing equivalent job
    bool cached = false;  ///< settled at submit from the result cache
};

/** One leased job as handed to a worker. */
struct LeasedJob
{
    JobId id = 0;
    JobSpec spec;
    /** kExperimentJob, or the group whose 1-thread baseline to run. */
    int group = kExperimentJob;
    int attempt = 0;           ///< 1-based lease count
    std::uint64_t leaseMs = 0; ///< heartbeat cadence hint; 0: no expiry

    bool isBaseline() const { return group != kExperimentJob; }
};

/** How fail() settled the job. */
enum class FailOutcome : std::uint8_t {
    kRequeued, ///< attempts remain: pending again after backoff
    kFailed,   ///< attempts exhausted: settled as failed
    kStale,    ///< caller no longer holds the lease — ignored
};

/** Lifetime activity of one worker name, as the queue counted it. */
struct WorkerStats
{
    std::uint64_t leases = 0; ///< lease() calls that returned a job
    std::uint64_t done = 0;   ///< complete() calls that settled a job
    std::uint64_t failed = 0; ///< fail() calls that were not stale
    std::uint64_t lastDoneMs = 0; ///< now_ms of the last done (0: none)
    /** EWMA of the completion rate over done intervals (alpha 0.3;
     *  intervals under 1 ms count as 1 ms). */
    double jobsPerSec = 0.0;
};

/** Aggregate queue counters (point-in-time snapshot). The per-state
 *  counts and submit counters are of experiment jobs. */
struct QueueStats
{
    std::size_t pending = 0;
    std::size_t leased = 0;
    std::size_t done = 0;
    std::size_t failed = 0;
    std::size_t cancelled = 0;
    std::size_t submitted = 0; ///< lifetime experiment submissions
    std::size_t deduped = 0;   ///< lifetime experiment dedup hits
    std::size_t requeues = 0;  ///< lifetime lease expiries + fail() retries

    /** Baseline jobs per state, indexed by QueueJobState. */
    std::array<std::size_t, kQueueJobStates> baselines{};

    /** The worker ledger, by worker name. */
    std::map<std::string, WorkerStats> workers;
};

/** Thread-safe priority/FIFO job queue with leases. See file comment. */
class JobQueue
{
  public:
    /** @p cache (may be null) must outlive the queue. */
    explicit JobQueue(JobQueueOptions opts = JobQueueOptions(),
                      ResultCache *cache = nullptr);

    /**
     * Enqueue the experiment of @p spec, keyed (and cached) by @p fp,
     * its fingerprintJob(), at @p priority (higher runs first),
     * leasable once every job in @p baselines (see submitBaseline(),
     * one per workload group, in group order) is done. Returns the new
     * job's id, or — when @p fp matches a job that is pending, leased
     * or done — the existing job's id with `deduped = true`. A spec
     * without a fingerprint (@p fp empty) is never deduped.
     */
    SubmitOutcome submit(const JobSpec &spec, std::optional<Fingerprint> fp,
                         int priority, std::uint64_t now_ms,
                         const std::vector<JobId> &baselines = {});

    /** Enqueue group @p group's 1-thread baseline of @p spec, deduped
     *  like submit() on its baseline fingerprint. */
    SubmitOutcome submitBaseline(const JobSpec &spec, int group,
                                 int priority, std::uint64_t now_ms);

    /**
     * Enqueue the experiment of @p spec already settled with @p result:
     * a submit-time result cache hit under @p fp (fingerprintJob() of
     * @p spec). Deduped like submit(); a new job is done at once and
     * never leased.
     */
    SubmitOutcome submitSettled(const JobSpec &spec, const Fingerprint &fp,
                                JobResult result);

    /**
     * Lease the highest-priority pending job whose baselines are done
     * and whose backoff has passed; an in-process worker's lease
     * (!@p expires) never expires. Returns false when no job is
     * currently leasable (the queue may still hold leased jobs, or
     * jobs that become leasable later: see idle() and waitReady()).
     */
    bool lease(const std::string &worker, std::uint64_t now_ms,
               LeasedJob &out, bool expires = true);

    /** Extend @p worker's lease on @p id. False when the lease is no
     *  longer held by @p worker (expired and reassigned, or settled). */
    bool heartbeat(JobId id, const std::string &worker,
                   std::uint64_t now_ms);

    /**
     * Settle @p id with @p result; a successful baseline's result
     * carries its run (JobResult::baseline), an experiment's its
     * parallel run, which is paired with its baseline jobs' runs
     * (replacing exp.single) and cached under its submit fingerprint
     * before it settles. Only the current lease holder may complete a
     * job: a stale worker (its
     * lease expired and the job was reassigned) is rejected so a
     * requeued job is never settled twice. A settled job counts as
     * @p worker's done at @p now_ms.
     */
    bool complete(JobId id, const std::string &worker, JobResult result,
                  std::uint64_t now_ms);

    /**
     * Report a worker-side (infrastructure) failure of @p id: requeue
     * with backoff, or settle as failed once attempts are exhausted.
     */
    FailOutcome fail(JobId id, const std::string &worker,
                     const std::string &error, std::uint64_t now_ms);

    /**
     * Requeue every lease that expired before @p now_ms (with backoff),
     * settling jobs whose attempts are exhausted as failed. Returns the
     * number of leases expired and, when @p expired is set, appends
     * their ids to it.
     */
    std::size_t expireLeases(std::uint64_t now_ms,
                             std::vector<JobId> *expired = nullptr);

    /**
     * Cancel a pending job, and each pending baseline of it that no
     * other live job depends on. Leased/settled jobs are left alone.
     */
    bool cancel(JobId id);

    /** True once @p id settled (done, failed or cancelled). */
    bool settled(JobId id) const;

    /**
     * The settled result of @p id. Jobs that exhausted their attempts
     * or were cancelled synthesize a kFailed result carrying the
     * reason. Must not be called before settled(id).
     */
    JobResult resultFor(JobId id) const;

    /** Spec and group (kExperimentJob for an experiment) of @p id if
     *  @p worker currently holds its lease. */
    bool tryLeasedSpec(JobId id, const std::string &worker, JobSpec &out,
                       int &group) const;

    QueueJobState stateOf(JobId id) const;

    /**
     * Block until @p id settles, at most @p timeout_ms (0 = just poll).
     * Note: waiting forever is deliberately not offered — lease expiry
     * needs a live expireLeases() caller, so waits must be re-armed.
     */
    bool waitSettled(JobId id, std::uint64_t timeout_ms) const;

    /**
     * Counter bumped whenever a job becomes leasable (submit, requeue,
     * its baselines done) or settles, and by wakeReadyWaiters(). Read
     * it before a lease() attempt and hand it to waitReady() to sleep
     * until something changed.
     */
    std::uint64_t readyEpoch() const;

    /** Block until readyEpoch() != @p epoch, at most @p timeout_ms. */
    void waitReady(std::uint64_t epoch, std::uint64_t timeout_ms) const;

    /** Wake every waitReady() caller (drain, shutdown). */
    void wakeReadyWaiters();

    /** True when no job is pending or leased. O(1). */
    bool idle() const;

    QueueStats stats() const;

  private:
    struct Job
    {
        JobId id = 0;
        JobSpec spec;
        int group = kExperimentJob;
        /** Dedup key (see file comment), under which an experiment's
         *  result is cached; none if its spec has no fingerprint. */
        std::optional<Fingerprint> key;
        int priority = 0;
        std::uint64_t seq = 0;
        QueueJobState state = QueueJobState::kPending;
        int attempts = 0;
        std::uint64_t notBeforeMs = 0;
        std::uint64_t leaseExpiryMs = 0;
        bool leaseExpires = true; ///< false for an in-process worker's
        std::string worker;
        std::string error; ///< reason when kFailed without a result
        JobResult result;
        std::vector<JobId> baselines;  ///< experiment: one per group
        std::vector<JobId> dependents; ///< baseline: experiments on it
    };

    /** Ready-set key: (-priority, seq) — priority order, FIFO within. */
    using ReadyKey = std::tuple<int, std::uint64_t, JobId>;

    /** Add @p job under its key, or return the key's live twin. */
    SubmitOutcome insert(Job job);
    std::uint64_t backoffFor(int attempt) const;
    void makePending(Job &job, std::uint64_t not_before_ms);
    void settleFailed(Job &job, const std::string &error);
    void onSettled(Job &job);
    bool baselinesDone(const Job &job) const;
    /** @p id if @p worker holds its lease, else null. */
    const Job *leasedBy(JobId id, const std::string &worker) const;
    Job *leasedBy(JobId id, const std::string &worker)
    {
        return const_cast<Job *>(std::as_const(*this).leasedBy(id, worker));
    }
    const Job *failedBaseline(const Job &job) const;
    void wakeLocked();
    Job &jobAt(JobId id);
    const Job &jobAt(JobId id) const;
    static bool isSettled(QueueJobState state);
    static JobResult settledResult(const Job &job);

    JobQueueOptions opts_;
    ResultCache *cache_ = nullptr;
    mutable std::mutex mutex_;
    mutable std::condition_variable settledCv_;
    mutable std::condition_variable readyCv_;
    std::uint64_t readyEpoch_ = 0;
    std::map<JobId, Job> jobs_;
    std::unordered_map<std::string, JobId> byKey_;
    std::set<ReadyKey> ready_;
    JobId nextId_ = 1;
    std::uint64_t nextSeq_ = 0;
    std::size_t submitted_ = 0;
    std::size_t dedupHits_ = 0;
    std::size_t requeues_ = 0;
    std::size_t unsettled_ = 0; ///< jobs pending or leased
    std::map<std::string, WorkerStats> workers_;
};

} // namespace sst

#endif // SST_DRIVER_JOB_QUEUE_HH
