/**
 * @file
 * The standalone job queue behind every execution backend — the job
 * scheduling that used to live inside the batch driver's runBatch()
 * loop, split out so the in-process thread pool and external worker
 * processes (`sst worker`) become two backends of one queue.
 *
 * Semantics:
 *  - ordering: higher priority first, FIFO (submission order) within a
 *    priority level;
 *  - dedup: submissions are keyed by the job's content fingerprint
 *    (driver/fingerprint.hh). A spec whose fingerprint matches a
 *    pending, leased or completed job returns the existing job id with
 *    `deduped = true` — a million-job campaign resubmitted is a no-op.
 *    Jobs that settled as failed or cancelled do NOT dedup: resubmitting
 *    one enqueues a fresh attempt;
 *  - leases: workers lease one job at a time and must heartbeat it. A
 *    lease that outlives its expiry (a killed worker) is requeued by
 *    expireLeases() with exponential backoff; once a job has been
 *    leased maxAttempts times without completing it settles as failed
 *    with a descriptive error — one crashing worker never poisons a
 *    campaign;
 *  - retries are for infrastructure failures only. A job whose spec is
 *    deterministically bad completes with a kFailed JobResult (the
 *    executor never throws); fail() is for worker-side errors that a
 *    different worker or a later attempt might not hit (undecodable
 *    wire payloads, dead processes).
 *
 * All timestamps are injected milliseconds (`now_ms`): the queue never
 * reads a clock, so tests drive lease expiry and backoff directly and
 * the driver's in-process backend — whose workers cannot die — simply
 * passes 0 everywhere.
 */

#ifndef SST_SERVE_JOB_QUEUE_HH
#define SST_SERVE_JOB_QUEUE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "driver/job.hh"

namespace sst {
namespace serve {

/** Queue-wide job identifier (1-based; 0 is never a valid id). */
using JobId = std::uint64_t;

/** Lifecycle of one queued job. */
enum class QueueJobState : std::uint8_t {
    kPending,   ///< waiting for a lease (possibly in backoff)
    kLeased,    ///< held by a worker, lease not yet expired
    kDone,      ///< completed with a JobResult (ok, cached or failed)
    kFailed,    ///< gave up: maxAttempts leases expired or failed
    kCancelled, ///< cancelled while pending
};

/** Stable lowercase label of @p state ("pending", "leased", ...). */
const char *queueJobStateName(QueueJobState state);

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
};

/** One leased job as handed to a worker. */
struct LeasedJob
{
    JobId id = 0;
    JobSpec spec;
    int attempt = 0;           ///< 1-based lease count
    std::uint64_t leaseMs = 0; ///< lease duration (heartbeat cadence hint)
};

/** How fail() settled the job. */
enum class FailOutcome : std::uint8_t {
    kRequeued, ///< attempts remain: pending again after backoff
    kFailed,   ///< attempts exhausted: settled as failed
    kStale,    ///< caller no longer holds the lease — ignored
};

/** Aggregate queue counters (point-in-time snapshot). */
struct QueueStats
{
    std::size_t pending = 0;
    std::size_t leased = 0;
    std::size_t done = 0;
    std::size_t failed = 0;
    std::size_t cancelled = 0;
    std::size_t submitted = 0; ///< lifetime submit() calls
    std::size_t deduped = 0;   ///< lifetime fingerprint dedup hits
    std::size_t requeues = 0;  ///< lifetime lease expiries + fail() retries
};

/** Thread-safe priority/FIFO job queue with leases. See file comment. */
class JobQueue
{
  public:
    explicit JobQueue(JobQueueOptions opts = JobQueueOptions());

    /**
     * Enqueue @p spec at @p priority (higher runs first). Returns the
     * new job's id, or — when the spec's fingerprint matches a job that
     * is pending, leased or done — the existing job's id with
     * `deduped = true`.
     */
    SubmitOutcome submit(const JobSpec &spec, int priority,
                         std::uint64_t now_ms);

    /**
     * Lease the highest-priority pending job whose backoff has passed.
     * Returns false when no job is currently leasable (the queue may
     * still hold leased jobs that could be requeued later).
     */
    bool lease(const std::string &worker, std::uint64_t now_ms,
               LeasedJob &out);

    /** Extend @p worker's lease on @p id. False when the lease is no
     *  longer held by @p worker (expired and reassigned, or settled). */
    bool heartbeat(JobId id, const std::string &worker,
                   std::uint64_t now_ms);

    /**
     * Settle @p id with @p result. Only the current lease holder may
     * complete a job: a stale worker (its lease expired and the job was
     * reassigned) is rejected so a requeued job is never settled twice.
     */
    bool complete(JobId id, const std::string &worker, JobResult result);

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

    /** Settle a *pending* job without a lease — the submit-time result
     *  cache hit path. False when @p id is not pending. */
    bool fulfil(JobId id, JobResult result);

    /** Cancel a pending job. Leased/settled jobs are left alone. */
    bool cancel(JobId id);

    /** True once @p id settled (done, failed or cancelled). */
    bool settled(JobId id) const;

    /**
     * The settled result of @p id. Jobs that exhausted their attempts
     * or were cancelled synthesize a kFailed result carrying the
     * reason. Must not be called before settled(id).
     */
    JobResult resultFor(JobId id) const;

    /** Spec of @p id (any state). Must be a known id. */
    JobSpec specFor(JobId id) const;

    /** Spec of @p id if the id is known (any state). False otherwise —
     *  the tolerant variant for ids received off the wire. */
    bool trySpecFor(JobId id, JobSpec &out) const;

    /** Spec of @p id if @p worker currently holds its lease. */
    bool tryLeasedSpec(JobId id, const std::string &worker,
                       JobSpec &out) const;

    QueueJobState stateOf(JobId id) const;

    /**
     * Block until @p id settles, at most @p timeout_ms (0 = just poll).
     * Note: waiting forever is deliberately not offered — lease expiry
     * needs a live expireLeases() caller, so waits must be re-armed.
     */
    bool waitSettled(JobId id, std::uint64_t timeout_ms) const;

    /**
     * Counter bumped whenever a job becomes pending (submit, requeue)
     * and by wakeReadyWaiters(). Read it before a lease() attempt and
     * hand it to waitReady() to sleep until something changed.
     */
    std::uint64_t readyEpoch() const;

    /** Block until readyEpoch() != @p epoch, at most @p timeout_ms. */
    void waitReady(std::uint64_t epoch, std::uint64_t timeout_ms) const;

    /** Wake every waitReady() caller (drain, shutdown). */
    void wakeReadyWaiters();

    /** True when no job is pending or leased. */
    bool idle() const;

    QueueStats stats() const;

    const JobQueueOptions &options() const { return opts_; }

  private:
    struct Job
    {
        JobId id = 0;
        JobSpec spec;
        std::string dedupKey;
        int priority = 0;
        std::uint64_t seq = 0;
        QueueJobState state = QueueJobState::kPending;
        int attempts = 0;
        std::uint64_t notBeforeMs = 0;
        std::uint64_t leaseExpiryMs = 0;
        std::string worker;
        std::string error; ///< reason when kFailed without a result
        JobResult result;
    };

    /** Ready-set key: (-priority, seq) — priority order, FIFO within. */
    using ReadyKey = std::tuple<int, std::uint64_t, JobId>;

    std::uint64_t backoffFor(int attempt) const;
    void makePending(Job &job, std::uint64_t not_before_ms);
    void settleFailed(Job &job, const std::string &error);
    const Job &jobAt(JobId id) const;

    JobQueueOptions opts_;
    mutable std::mutex mutex_;
    mutable std::condition_variable settledCv_;
    mutable std::condition_variable readyCv_;
    std::uint64_t readyEpoch_ = 0;
    std::map<JobId, Job> jobs_;
    std::unordered_map<std::string, JobId> byFingerprint_;
    std::set<ReadyKey> ready_;
    JobId nextId_ = 1;
    std::uint64_t nextSeq_ = 0;
    std::size_t submitted_ = 0;
    std::size_t dedupHits_ = 0;
    std::size_t requeues_ = 0;
};

} // namespace serve
} // namespace sst

#endif // SST_SERVE_JOB_QUEUE_HH
