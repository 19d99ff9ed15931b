#include "job_queue.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "core/experiment.hh"
#include "driver/fingerprint.hh"
#include "driver/result_cache.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "util/logging.hh"

namespace sst {

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

JobQueue::JobQueue(JobQueueOptions opts, ResultCache *cache)
    : opts_(opts), cache_(cache)
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

bool
JobQueue::isSettled(QueueJobState state)
{
    return state == QueueJobState::kDone ||
           state == QueueJobState::kFailed ||
           state == QueueJobState::kCancelled;
}

void
JobQueue::wakeLocked()
{
    ++readyEpoch_;
    readyCv_.notify_all();
}

bool
JobQueue::baselinesDone(const Job &job) const
{
    for (const JobId b : job.baselines) {
        const Job &base = jobAt(b);
        if (base.state != QueueJobState::kDone || !base.result.ok())
            return false;
    }
    return true;
}

const JobQueue::Job *
JobQueue::failedBaseline(const Job &job) const
{
    for (const JobId b : job.baselines) {
        const Job &base = jobAt(b);
        if (isSettled(base.state) && !settledResult(base).ok())
            return &base;
    }
    return nullptr;
}

void
JobQueue::makePending(Job &job, std::uint64_t not_before_ms)
{
    job.state = QueueJobState::kPending;
    job.worker.clear();
    job.leaseExpiryMs = 0;
    job.notBeforeMs = not_before_ms;
    // An experiment still waiting on baselines joins the ready set when
    // the last of them completes (onSettled).
    if (baselinesDone(job)) {
        ready_.insert({-job.priority, job.seq, job.id});
        wakeLocked();
    }
}

void
JobQueue::settleFailed(Job &job, const std::string &error)
{
    ready_.erase({-job.priority, job.seq, job.id});
    job.state = QueueJobState::kFailed;
    job.worker.clear();
    job.error = error;
    onSettled(job);
}

void
JobQueue::onSettled(Job &job)
{
    --unsettled_;
    settledCv_.notify_all();
    wakeLocked(); // the queue may have gone idle
    if (job.group == kExperimentJob)
        return;
    const JobResult result = settledResult(job);
    for (const JobId id : job.dependents) {
        Job &dep = jobAt(id);
        if (dep.state != QueueJobState::kPending)
            continue;
        if (!result.ok())
            settleFailed(dep, result.error);
        else if (baselinesDone(dep))
            makePending(dep, dep.notBeforeMs);
    }
}

JobQueue::Job &
JobQueue::jobAt(JobId id)
{
    auto it = jobs_.find(id);
    sstAssert(it != jobs_.end(),
              "JobQueue: unknown job id " + std::to_string(id));
    return it->second;
}

const JobQueue::Job &
JobQueue::jobAt(JobId id) const
{
    auto it = jobs_.find(id);
    sstAssert(it != jobs_.end(),
              "JobQueue: unknown job id " + std::to_string(id));
    return it->second;
}

JobResult
JobQueue::settledResult(const Job &job)
{
    JobResult res;
    res.status = JobStatus::kFailed;
    switch (job.state) {
    case QueueJobState::kDone:
        return job.result;
    case QueueJobState::kFailed:
        res.error = job.error;
        return res;
    case QueueJobState::kCancelled:
        res.error = "cancelled";
        return res;
    case QueueJobState::kPending:
    case QueueJobState::kLeased:
        break;
    }
    panic("JobQueue: result of unsettled job " + std::to_string(job.id));
}

SubmitOutcome
JobQueue::insert(Job job)
{
    auto hit = job.key ? byKey_.find(job.key->canonical) : byKey_.end();
    if (hit != byKey_.end()) {
        const Job &twin = jobAt(hit->second);
        // Failed/cancelled jobs don't dedup: resubmission is the retry.
        if (twin.state != QueueJobState::kFailed &&
            twin.state != QueueJobState::kCancelled)
            return {twin.id, true};
    }
    job.id = nextId_++;
    job.seq = nextSeq_++;
    ++unsettled_; // a settled submission leaves through onSettled too
    if (job.key)
        byKey_[job.key->canonical] = job.id;
    const JobId id = job.id;
    const bool inserted = jobs_.emplace(id, std::move(job)).second;
    sstAssert(inserted, "JobQueue: duplicate job id");
    return {id, false};
}

SubmitOutcome
JobQueue::submit(const JobSpec &spec, std::optional<Fingerprint> fp,
                 int priority, std::uint64_t now_ms,
                 const std::vector<JobId> &baselines)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++submitted_;
    Job job;
    job.spec = spec;
    job.key = std::move(fp);
    job.priority = priority;
    job.baselines = baselines;
    const SubmitOutcome out = insert(std::move(job));
    if (out.deduped) {
        ++dedupHits_;
        return out;
    }
    Job &fresh = jobAt(out.id);
    for (const JobId b : baselines) {
        Job &base = jobAt(b);
        base.dependents.push_back(out.id);
        // A pending baseline runs at its most urgent dependent's level.
        if (base.state == QueueJobState::kPending &&
            base.priority < priority) {
            const bool ready =
                ready_.erase({-base.priority, base.seq, base.id}) > 0;
            base.priority = priority;
            if (ready)
                ready_.insert({-base.priority, base.seq, base.id});
        }
    }
    if (const Job *failed = failedBaseline(fresh))
        settleFailed(fresh, settledResult(*failed).error);
    else
        makePending(fresh, now_ms);
    return out;
}

SubmitOutcome
JobQueue::submitBaseline(const JobSpec &spec, int group, int priority,
                         std::uint64_t now_ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Job job;
    job.spec = spec;
    job.group = group;
    try {
        // Baseline texts carry job.kind=baseline, so they never collide
        // with an experiment's.
        job.key = fingerprintWorkloadGroupBaseline(
            spec.params, spec.effectiveWorkload(), group);
    } catch (const std::exception &) {
        // Never deduped: the run reports what is wrong with the spec.
    }
    job.priority = priority;
    const SubmitOutcome out = insert(std::move(job));
    if (!out.deduped)
        makePending(jobAt(out.id), now_ms);
    return out;
}

SubmitOutcome
JobQueue::submitSettled(const JobSpec &spec, const Fingerprint &fp,
                        JobResult result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++submitted_;
    Job job;
    job.spec = spec;
    job.key = fp;
    job.state = QueueJobState::kDone;
    job.result = std::move(result);
    const SubmitOutcome out = insert(std::move(job));
    if (out.deduped)
        ++dedupHits_;
    else
        onSettled(jobAt(out.id));
    return out;
}

bool
JobQueue::lease(const std::string &worker, std::uint64_t now_ms,
                LeasedJob &out, bool expires)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Entries in backoff are skipped; later ones may still be ready.
        const auto it =
            std::find_if(ready_.begin(), ready_.end(), [&](const ReadyKey &k) {
                return jobAt(std::get<2>(k)).notBeforeMs <= now_ms;
            });
        if (it == ready_.end())
            return false;
        Job &job = jobAt(std::get<2>(*it));
        ready_.erase(it);
        job.state = QueueJobState::kLeased;
        job.worker = worker;
        ++job.attempts;
        job.leaseExpiryMs = now_ms + opts_.leaseMs;
        job.leaseExpires = expires;
        out.id = job.id;
        out.spec = job.spec;
        out.group = job.group;
        out.attempt = job.attempts;
        out.leaseMs = expires ? opts_.leaseMs : 0;
        ++workers_[worker].leases;
    }
    telemetry::Registry::global()
        .counter("sst_serve_worker_leases_total", {{"worker", worker}})
        .inc();
    return true;
}

const JobQueue::Job *
JobQueue::leasedBy(JobId id, const std::string &worker) const
{
    auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.state != QueueJobState::kLeased ||
        it->second.worker != worker)
        return nullptr;
    return &it->second;
}

bool
JobQueue::heartbeat(JobId id, const std::string &worker,
                    std::uint64_t now_ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Job *job = leasedBy(id, worker);
    if (job)
        job->leaseExpiryMs = now_ms + opts_.leaseMs;
    return job != nullptr;
}

bool
JobQueue::complete(JobId id, const std::string &worker, JobResult result,
                   std::uint64_t now_ms)
{
    std::string label;
    std::optional<Fingerprint> key;
    std::vector<RunResult> bases;
    bool pair = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Job *job = leasedBy(id, worker);
        if (!job)
            return false;
        sstAssert(job->group == kExperimentJob || !result.ok() ||
                      result.baseline != nullptr,
                  "JobQueue: a completed baseline must carry its run");
        pair = job->group == kExperimentJob && result.ok();
        if (pair) {
            label = job->spec.label();
            key = job->key;
            for (const JobId b : job->baselines)
                bases.push_back(*jobAt(b).result.baseline);
        }
    }
    // The pairing and the cache store (file I/O) run unlocked.
    if (pair) {
        try {
            if (bases.empty())
                throw std::invalid_argument(
                    "job '" + label +
                    "': no baseline job to pair its parallel run with");
            result.exp.single = combineGroupBaselines(bases);
            if (cache_) {
                if (!key)
                    throw std::invalid_argument(
                        "job '" + label +
                        "': no fingerprint to cache its result under");
                telemetry::ScopedSpan storeSpan("cache-store", "driver");
                cache_->store(*key, result.exp);
            }
        } catch (const std::exception &e) {
            result = JobResult();
            result.error = e.what();
        }
    }
    double rate = 0.0;
    {
        // Only the current lease holder settles a job: a worker whose
        // lease expired (the job may already be running elsewhere) is
        // rejected, so one job never produces two results.
        std::lock_guard<std::mutex> lock(mutex_);
        Job *job = leasedBy(id, worker);
        if (!job)
            return false;
        job->state = QueueJobState::kDone;
        job->worker.clear();
        job->result = std::move(result);
        onSettled(*job);

        WorkerStats &w = workers_[worker];
        ++w.done;
        if (w.lastDoneMs != 0) {
            const std::uint64_t delta =
                now_ms > w.lastDoneMs ? now_ms - w.lastDoneMs : 0;
            const double inst =
                1000.0 / static_cast<double>(delta > 0 ? delta : 1);
            w.jobsPerSec = w.jobsPerSec == 0.0
                               ? inst
                               : 0.3 * inst + 0.7 * w.jobsPerSec;
        }
        w.lastDoneMs = now_ms;
        rate = w.jobsPerSec;
    }
    telemetry::Registry &registry = telemetry::Registry::global();
    registry.counter("sst_serve_worker_done_total", {{"worker", worker}})
        .inc();
    registry.counter("sst_serve_jobs_done_total").inc();
    registry.gauge("sst_serve_worker_jobs_per_sec", {{"worker", worker}})
        .set(rate);
    return true;
}

FailOutcome
JobQueue::fail(JobId id, const std::string &worker,
               const std::string &error, std::uint64_t now_ms)
{
    FailOutcome outcome = FailOutcome::kRequeued;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Job *job = leasedBy(id, worker);
        if (!job)
            return FailOutcome::kStale;
        ++workers_[worker].failed;
        if (job->attempts >= opts_.maxAttempts) {
            settleFailed(*job, "failed after " +
                                   std::to_string(job->attempts) +
                                   " attempts; last error: " + error);
            outcome = FailOutcome::kFailed;
        } else {
            ++requeues_;
            makePending(*job, now_ms + backoffFor(job->attempts));
        }
    }
    telemetry::Registry::global()
        .counter("sst_serve_worker_fail_total", {{"worker", worker}})
        .inc();
    return outcome;
}

std::size_t
JobQueue::expireLeases(std::uint64_t now_ms, std::vector<JobId> *expired_ids)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t expired = 0;
    for (auto &entry : jobs_) {
        Job &job = entry.second;
        if (job.state != QueueJobState::kLeased || !job.leaseExpires ||
            job.leaseExpiryMs > now_ms)
            continue;
        ++expired;
        if (expired_ids)
            expired_ids->push_back(job.id);
        if (job.attempts >= opts_.maxAttempts) {
            settleFailed(job, "lease expired after " +
                                  std::to_string(job.attempts) +
                                  " attempts (worker '" + job.worker +
                                  "' stopped heartbeating)");
        } else {
            ++requeues_;
            makePending(job, now_ms + backoffFor(job.attempts));
        }
    }
    return expired;
}

bool
JobQueue::cancel(JobId id)
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
    onSettled(job);
    // A baseline another live job still needs keeps running.
    for (const JobId b : job.baselines) {
        Job &base = jobAt(b);
        if (base.state != QueueJobState::kPending)
            continue;
        bool needed = false;
        for (const JobId d : base.dependents)
            needed = needed || !isSettled(jobAt(d).state);
        if (!needed) {
            ready_.erase({-base.priority, base.seq, base.id});
            base.state = QueueJobState::kCancelled;
            onSettled(base);
        }
    }
    return true;
}

bool
JobQueue::settled(JobId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return isSettled(jobAt(id).state);
}

JobResult
JobQueue::resultFor(JobId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return settledResult(jobAt(id));
}

bool
JobQueue::tryLeasedSpec(JobId id, const std::string &worker, JobSpec &out,
                        int &group) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Job *job = leasedBy(id, worker);
    if (!job)
        return false;
    out = job->spec;
    group = job->group;
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
    return settledCv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                               [&] { return isSettled(jobAt(id).state); });
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
    wakeLocked();
}

bool
JobQueue::idle() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return unsettled_ == 0;
}

QueueStats
JobQueue::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    QueueStats s;
    std::array<std::size_t, kQueueJobStates> jobs{};
    for (const auto &entry : jobs_) {
        auto &counts =
            entry.second.group == kExperimentJob ? jobs : s.baselines;
        ++counts[static_cast<std::size_t>(entry.second.state)];
    }
    const auto in = [&jobs](QueueJobState state) {
        return jobs[static_cast<std::size_t>(state)];
    };
    s.pending = in(QueueJobState::kPending);
    s.leased = in(QueueJobState::kLeased);
    s.done = in(QueueJobState::kDone);
    s.failed = in(QueueJobState::kFailed);
    s.cancelled = in(QueueJobState::kCancelled);
    s.submitted = submitted_;
    s.deduped = dedupHits_;
    s.requeues = requeues_;
    s.workers = workers_;
    return s;
}

} // namespace sst
