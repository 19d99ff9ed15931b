#include "job_queue.hh"

#include <chrono>

#include "driver/fingerprint.hh"
#include "util/logging.hh"

namespace sst {
namespace serve {

const char *
queueJobStateName(QueueJobState state)
{
    switch (state) {
    case QueueJobState::kPending:
        return "pending";
    case QueueJobState::kLeased:
        return "leased";
    case QueueJobState::kDone:
        return "done";
    case QueueJobState::kFailed:
        return "failed";
    case QueueJobState::kCancelled:
        return "cancelled";
    }
    return "?";
}

JobQueue::JobQueue(JobQueueOptions opts) : opts_(opts)
{
    sstAssert(opts_.maxAttempts >= 1,
              "JobQueue: maxAttempts must be >= 1");
}

std::uint64_t
JobQueue::backoffFor(int attempt) const
{
    // base << (attempt - 1), saturating at the cap. attempt is the
    // 1-based count of leases already consumed.
    std::uint64_t backoff = opts_.backoffBaseMs;
    for (int i = 1; i < attempt && backoff < opts_.backoffCapMs; ++i)
        backoff *= 2;
    return backoff < opts_.backoffCapMs ? backoff : opts_.backoffCapMs;
}

void
JobQueue::makePending(Job &job, std::uint64_t not_before_ms)
{
    job.state = QueueJobState::kPending;
    job.worker.clear();
    job.leaseExpiryMs = 0;
    job.notBeforeMs = not_before_ms;
    ready_.insert({-job.priority, job.seq, job.id});
    ++readyEpoch_;
    readyCv_.notify_all();
}

void
JobQueue::settleFailed(Job &job, const std::string &error)
{
    job.state = QueueJobState::kFailed;
    job.worker.clear();
    job.error = error;
}

const JobQueue::Job &
JobQueue::jobAt(JobId id) const
{
    auto it = jobs_.find(id);
    sstAssert(it != jobs_.end(),
              "JobQueue: unknown job id " + std::to_string(id));
    return it->second;
}

SubmitOutcome
JobQueue::submit(const JobSpec &spec, int priority, std::uint64_t now_ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++submitted_;

    // Dedup key: the job's canonical content fingerprint. A spec the
    // fingerprint encoder rejects still gets enqueued (under a unique
    // key) so its validation failure surfaces as a per-job result, not
    // a lost submission.
    std::string key;
    try {
        key = fingerprintJob(spec).canonical;
    } catch (const std::exception &) {
        key = "unfingerprintable-" + std::to_string(nextId_);
    }

    auto hit = byFingerprint_.find(key);
    if (hit != byFingerprint_.end()) {
        const Job &twin = jobAt(hit->second);
        // Failed/cancelled jobs don't dedup: resubmission is the retry.
        if (twin.state != QueueJobState::kFailed &&
            twin.state != QueueJobState::kCancelled) {
            ++dedupHits_;
            return {twin.id, true};
        }
    }

    Job job;
    job.id = nextId_++;
    job.spec = spec;
    job.dedupKey = key;
    job.priority = priority;
    job.seq = nextSeq_++;
    byFingerprint_[key] = job.id;
    const JobId id = job.id;
    auto [it, inserted] = jobs_.emplace(id, std::move(job));
    sstAssert(inserted, "JobQueue: duplicate job id");
    makePending(it->second, now_ms);
    return {id, false};
}

bool
JobQueue::lease(const std::string &worker, std::uint64_t now_ms,
                LeasedJob &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = ready_.begin(); it != ready_.end(); ++it) {
        Job &job = jobs_.at(std::get<2>(*it));
        if (job.notBeforeMs > now_ms)
            continue; // in backoff; later entries may still be ready
        ready_.erase(it);
        job.state = QueueJobState::kLeased;
        job.worker = worker;
        ++job.attempts;
        job.leaseExpiryMs = now_ms + opts_.leaseMs;
        out.id = job.id;
        out.spec = job.spec;
        out.attempt = job.attempts;
        out.leaseMs = opts_.leaseMs;
        return true;
    }
    return false;
}

bool
JobQueue::heartbeat(JobId id, const std::string &worker,
                    std::uint64_t now_ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    Job &job = it->second;
    if (job.state != QueueJobState::kLeased || job.worker != worker)
        return false;
    job.leaseExpiryMs = now_ms + opts_.leaseMs;
    return true;
}

bool
JobQueue::complete(JobId id, const std::string &worker, JobResult result)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = jobs_.find(id);
        if (it == jobs_.end())
            return false;
        Job &job = it->second;
        // Only the current lease holder settles a job: a worker whose
        // lease expired (the job may already be running elsewhere) is
        // rejected, so one job never produces two results.
        if (job.state != QueueJobState::kLeased || job.worker != worker)
            return false;
        job.state = QueueJobState::kDone;
        job.worker.clear();
        job.result = std::move(result);
    }
    settledCv_.notify_all();
    return true;
}

FailOutcome
JobQueue::fail(JobId id, const std::string &worker,
               const std::string &error, std::uint64_t now_ms)
{
    FailOutcome outcome;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = jobs_.find(id);
        if (it == jobs_.end())
            return FailOutcome::kStale;
        Job &job = it->second;
        if (job.state != QueueJobState::kLeased || job.worker != worker)
            return FailOutcome::kStale;
        if (job.attempts >= opts_.maxAttempts) {
            settleFailed(job, "failed after " +
                                  std::to_string(job.attempts) +
                                  " attempts; last error: " + error);
            outcome = FailOutcome::kFailed;
        } else {
            ++requeues_;
            makePending(job, now_ms + backoffFor(job.attempts));
            outcome = FailOutcome::kRequeued;
        }
    }
    if (outcome == FailOutcome::kFailed)
        settledCv_.notify_all();
    return outcome;
}

std::size_t
JobQueue::expireLeases(std::uint64_t now_ms, std::vector<JobId> *expired_ids)
{
    std::size_t expired = 0;
    bool anySettled = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &entry : jobs_) {
            Job &job = entry.second;
            if (job.state != QueueJobState::kLeased ||
                job.leaseExpiryMs > now_ms)
                continue;
            ++expired;
            if (expired_ids)
                expired_ids->push_back(job.id);
            if (job.attempts >= opts_.maxAttempts) {
                settleFailed(job,
                             "lease expired after " +
                                 std::to_string(job.attempts) +
                                 " attempts (worker '" + job.worker +
                                 "' stopped heartbeating)");
                anySettled = true;
            } else {
                ++requeues_;
                makePending(job, now_ms + backoffFor(job.attempts));
            }
        }
    }
    if (anySettled)
        settledCv_.notify_all();
    return expired;
}

bool
JobQueue::fulfil(JobId id, JobResult result)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = jobs_.find(id);
        if (it == jobs_.end())
            return false;
        Job &job = it->second;
        if (job.state != QueueJobState::kPending)
            return false;
        ready_.erase({-job.priority, job.seq, job.id});
        job.state = QueueJobState::kDone;
        job.result = std::move(result);
    }
    settledCv_.notify_all();
    return true;
}

bool
JobQueue::cancel(JobId id)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = jobs_.find(id);
        if (it == jobs_.end())
            return false;
        Job &job = it->second;
        if (job.state != QueueJobState::kPending)
            return false;
        ready_.erase({-job.priority, job.seq, job.id});
        job.state = QueueJobState::kCancelled;
    }
    settledCv_.notify_all();
    return true;
}

bool
JobQueue::settled(JobId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const QueueJobState s = jobAt(id).state;
    return s == QueueJobState::kDone || s == QueueJobState::kFailed ||
           s == QueueJobState::kCancelled;
}

JobResult
JobQueue::resultFor(JobId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Job &job = jobAt(id);
    switch (job.state) {
    case QueueJobState::kDone:
        return job.result;
    case QueueJobState::kFailed: {
        JobResult res;
        res.status = JobStatus::kFailed;
        res.error = job.error;
        return res;
    }
    case QueueJobState::kCancelled: {
        JobResult res;
        res.status = JobStatus::kFailed;
        res.error = "cancelled";
        return res;
    }
    case QueueJobState::kPending:
    case QueueJobState::kLeased:
        break;
    }
    panic("JobQueue::resultFor on unsettled job " + std::to_string(id));
}

JobSpec
JobQueue::specFor(JobId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return jobAt(id).spec;
}

bool
JobQueue::trySpecFor(JobId id, JobSpec &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    out = it->second.spec;
    return true;
}

bool
JobQueue::tryLeasedSpec(JobId id, const std::string &worker,
                        JobSpec &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.state != QueueJobState::kLeased ||
        it->second.worker != worker)
        return false;
    out = it->second.spec;
    return true;
}

QueueJobState
JobQueue::stateOf(JobId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return jobAt(id).state;
}

bool
JobQueue::waitSettled(JobId id, std::uint64_t timeout_ms) const
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto isSettled = [&] {
        const QueueJobState s = jobAt(id).state;
        return s == QueueJobState::kDone ||
               s == QueueJobState::kFailed ||
               s == QueueJobState::kCancelled;
    };
    return settledCv_.wait_for(lock,
                               std::chrono::milliseconds(timeout_ms),
                               isSettled);
}

std::uint64_t
JobQueue::readyEpoch() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return readyEpoch_;
}

void
JobQueue::waitReady(std::uint64_t epoch, std::uint64_t timeout_ms) const
{
    std::unique_lock<std::mutex> lock(mutex_);
    readyCv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [&] { return readyEpoch_ != epoch; });
}

void
JobQueue::wakeReadyWaiters()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++readyEpoch_;
    readyCv_.notify_all();
}

bool
JobQueue::idle() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &entry : jobs_) {
        const QueueJobState s = entry.second.state;
        if (s == QueueJobState::kPending || s == QueueJobState::kLeased)
            return false;
    }
    return true;
}

QueueStats
JobQueue::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    QueueStats s;
    for (const auto &entry : jobs_) {
        switch (entry.second.state) {
        case QueueJobState::kPending:
            ++s.pending;
            break;
        case QueueJobState::kLeased:
            ++s.leased;
            break;
        case QueueJobState::kDone:
            ++s.done;
            break;
        case QueueJobState::kFailed:
            ++s.failed;
            break;
        case QueueJobState::kCancelled:
            ++s.cancelled;
            break;
        }
    }
    s.submitted = submitted_;
    s.deduped = dedupHits_;
    s.requeues = requeues_;
    return s;
}

} // namespace serve
} // namespace sst
