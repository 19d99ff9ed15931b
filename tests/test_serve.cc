/**
 * @file
 * Tests of the sweep service (src/serve/) and the JobQueue it serves
 * (src/driver/job_queue.hh): ordering, dedup, retry, lease and
 * baseline-dependency semantics and the worker ledger; the wire protocol's round-trip guarantee;
 * specForJob's fingerprint-preserving spec round trip; result-cache
 * corruption robustness; journal torn-line replay; and end-to-end
 * socket campaigns — server restart resume, worker-pool equivalence
 * with the batch driver, killed-worker lease-expiry requeue, worker
 * heartbeats, the lease long poll, baseline jobs shared across
 * external workers, and a local worker on the server's clock.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "driver/driver.hh"
#include "driver/fingerprint.hh"
#include "driver/job_queue.hh"
#include "driver/result_cache.hh"
#include "driver/sweep.hh"
#include "serve/journal.hh"
#include "serve/net.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/worker.hh"
#include "spec/spec.hh"
#include "telemetry/metrics.hh"
#include "tests/test_util.hh"
#include "workload/profile.hh"
#include "workload/workload_spec.hh"

namespace sst {
namespace {

using serve::Request;

JobSpec
testJob(int nthreads, std::uint64_t seed_offset = 0)
{
    JobSpec spec = JobSpec::forProfile(test::computeOnlyProfile(),
                                       nthreads);
    spec.seedOffset = seed_offset;
    return spec;
}

/** A successful experiment's result: its two runs, @p nthreads
 *  parallel threads that all finish at @p tp, so the run's totals agree
 *  with its `thread` lines. */
JobResult
okResult(std::uint64_t ts = 100, std::uint64_t tp = 50, int nthreads = 2)
{
    JobResult r;
    r.status = JobStatus::kOk;
    r.exp.single.nthreads = 1;
    r.exp.single.executionTime = ts;
    r.exp.parallel.nthreads = nthreads;
    r.exp.parallel.executionTime = tp;
    // The codec carries one `thread` line per thread.
    r.exp.parallel.threads.resize(static_cast<std::size_t>(nthreads));
    for (ThreadCounters &t : r.exp.parallel.threads)
        t.finishTime = tp;
    return r;
}

/** A successful baseline job's result: a 1-thread run of @p ts cycles. */
JobResult
baselineResult(Cycles ts = 1000)
{
    RunResult run;
    run.nthreads = 1;
    run.ncores = 1;
    run.executionTime = ts;
    run.threads.resize(1);
    run.threads[0].finishTime = ts;
    JobResult r;
    r.status = JobStatus::kOk;
    r.baseline = std::make_shared<const RunResult>(run);
    return r;
}

/** Submit the experiment of @p spec under its fingerprint, as
 *  submitExperiments() does. */
SubmitOutcome
submitJob(JobQueue &q, const JobSpec &spec, int priority,
          const std::vector<JobId> &baselines = {})
{
    return q.submit(spec, fingerprintJob(spec), priority, 0, baselines);
}

/** Submit group 0's baseline of @p spec to the idle @p q and settle it
 *  with a run of @p ts cycles; returns its id for experiments to
 *  depend on. */
JobId
settleBaseline(JobQueue &q, const JobSpec &spec, Cycles ts = 1000)
{
    const SubmitOutcome base = q.submitBaseline(spec, 0, 0, 0);
    LeasedJob lease;
    EXPECT_TRUE(q.lease("baseliner", 0, lease));
    EXPECT_EQ(lease.id, base.id);
    EXPECT_TRUE(q.complete(base.id, "baseliner", baselineResult(ts), 0));
    return base.id;
}

// ---- JobQueue ---------------------------------------------------------------

TEST(JobQueue, PriorityThenFifoOrdering)
{
    JobQueue q;
    const SubmitOutcome a = submitJob(q, testJob(2), 0);
    const SubmitOutcome b = submitJob(q, testJob(4), 0);
    const SubmitOutcome c = submitJob(q, testJob(8), 5);

    LeasedJob lease;
    ASSERT_TRUE(q.lease("w", 0, lease));
    EXPECT_EQ(lease.id, c.id); // highest priority first
    ASSERT_TRUE(q.lease("w", 0, lease));
    EXPECT_EQ(lease.id, a.id); // FIFO within a priority level
    ASSERT_TRUE(q.lease("w", 0, lease));
    EXPECT_EQ(lease.id, b.id);
    EXPECT_FALSE(q.lease("w", 0, lease));
}

TEST(JobQueue, FingerprintDedup)
{
    JobQueue q;
    const JobId base = settleBaseline(q, testJob(2));
    const SubmitOutcome first = submitJob(q, testJob(2), 0, {base});
    EXPECT_FALSE(first.deduped);

    const SubmitOutcome dup = submitJob(q, testJob(2), 3, {base});
    EXPECT_TRUE(dup.deduped);
    EXPECT_EQ(dup.id, first.id);

    // Completed jobs still dedup: a resubmitted campaign is a no-op.
    LeasedJob lease;
    ASSERT_TRUE(q.lease("w", 0, lease));
    ASSERT_TRUE(q.complete(lease.id, "w", okResult(), 0));
    const SubmitOutcome after = submitJob(q, testJob(2), 0, {base});
    EXPECT_TRUE(after.deduped);
    EXPECT_EQ(after.id, first.id);

    EXPECT_EQ(q.stats().submitted, 3u);
    EXPECT_EQ(q.stats().deduped, 2u);
}

TEST(JobQueue, FailedJobsDoNotDedup)
{
    JobQueueOptions opts;
    opts.maxAttempts = 1;
    JobQueue q(opts);
    const SubmitOutcome first = submitJob(q, testJob(2), 0);
    LeasedJob lease;
    ASSERT_TRUE(q.lease("w", 0, lease));
    EXPECT_EQ(q.fail(lease.id, "w", "boom", 0), FailOutcome::kFailed);
    ASSERT_TRUE(q.settled(first.id));
    EXPECT_EQ(q.stateOf(first.id), QueueJobState::kFailed);
    EXPECT_NE(q.resultFor(first.id).error.find("boom"),
              std::string::npos);

    // Resubmitting a failed job is a retry, not a dedup hit.
    const SubmitOutcome retry = submitJob(q, testJob(2), 0);
    EXPECT_FALSE(retry.deduped);
    EXPECT_NE(retry.id, first.id);
}

TEST(JobQueue, RetryBackoffTiming)
{
    JobQueueOptions opts;
    opts.maxAttempts = 3;
    opts.backoffBaseMs = 1000;
    opts.backoffCapMs = 60000;
    JobQueue q(opts);
    const SubmitOutcome job = submitJob(q, testJob(2), 0);

    LeasedJob lease;
    ASSERT_TRUE(q.lease("w", 0, lease));
    EXPECT_EQ(lease.attempt, 1);
    EXPECT_EQ(q.fail(lease.id, "w", "io error", 0),
              FailOutcome::kRequeued);

    // Backoff 1000ms after the first failure.
    EXPECT_FALSE(q.lease("w", 999, lease));
    ASSERT_TRUE(q.lease("w", 1000, lease));
    EXPECT_EQ(lease.attempt, 2);
    EXPECT_EQ(q.fail(lease.id, "w", "io error", 1000),
              FailOutcome::kRequeued);

    // Backoff doubles: 2000ms after the second.
    EXPECT_FALSE(q.lease("w", 2999, lease));
    ASSERT_TRUE(q.lease("w", 3000, lease));
    EXPECT_EQ(lease.attempt, 3);

    // Attempts exhausted: the queue gives up without poisoning anything.
    EXPECT_EQ(q.fail(lease.id, "w", "io error", 3000),
              FailOutcome::kFailed);
    EXPECT_EQ(q.stateOf(job.id), QueueJobState::kFailed);
    const JobResult result = q.resultFor(job.id);
    EXPECT_EQ(result.status, JobStatus::kFailed);
    EXPECT_NE(result.error.find("io error"), std::string::npos);
    EXPECT_EQ(q.stats().requeues, 2u);
}

TEST(JobQueue, LeaseExpiryRequeuesAndRejectsStaleCompletion)
{
    JobQueueOptions opts;
    opts.leaseMs = 100;
    JobQueue q(opts);
    const JobId base = settleBaseline(q, testJob(2));
    const SubmitOutcome job = submitJob(q, testJob(2), 0, {base});

    LeasedJob lease;
    ASSERT_TRUE(q.lease("dead", 0, lease));
    EXPECT_EQ(q.expireLeases(50), 0u);

    // Heartbeats extend the lease.
    EXPECT_TRUE(q.heartbeat(lease.id, "dead", 80));
    EXPECT_EQ(q.expireLeases(150), 0u);

    // No more heartbeats: the lease expires and the job is requeued.
    EXPECT_EQ(q.expireLeases(200), 1u);
    EXPECT_EQ(q.stateOf(job.id), QueueJobState::kPending);
    EXPECT_FALSE(q.heartbeat(lease.id, "dead", 210));

    // Expiry requeues with first-attempt backoff (1000ms past t=200).
    LeasedJob release;
    EXPECT_FALSE(q.lease("alive", 1000, release));
    ASSERT_TRUE(q.lease("alive", 1200, release));
    EXPECT_EQ(release.attempt, 2);

    // The dead worker coming back to life cannot settle the job twice.
    EXPECT_FALSE(q.complete(job.id, "dead", okResult(), 1300));
    EXPECT_TRUE(q.complete(job.id, "alive", okResult(), 1300));
    EXPECT_EQ(q.stateOf(job.id), QueueJobState::kDone);
    EXPECT_EQ(q.resultFor(job.id).status, JobStatus::kOk);
}

TEST(JobQueue, InProcessLeaseNeverExpires)
{
    JobQueueOptions opts;
    opts.leaseMs = 100;
    JobQueue q(opts);
    const JobId base = settleBaseline(q, testJob(2));
    const SubmitOutcome local = submitJob(q, testJob(2), 0, {base});
    const SubmitOutcome external = submitJob(q, testJob(4), 0, {base});

    LeasedJob in, out;
    ASSERT_TRUE(q.lease("local-0", 0, in, /*expires=*/false));
    ASSERT_TRUE(q.lease("w", 0, out));
    EXPECT_EQ(in.id, local.id);
    EXPECT_EQ(in.leaseMs, 0u);
    EXPECT_EQ(out.leaseMs, 100u);

    // Neither heartbeats: the external lease expires at the first
    // sweep past its expiry, the in-process one at none, however late.
    std::vector<JobId> expired;
    EXPECT_EQ(q.expireLeases(100, &expired), 1u);
    EXPECT_EQ(expired, std::vector<JobId>{external.id});
    for (const std::uint64_t now :
         {std::uint64_t{101}, std::uint64_t{1} << 40,
          std::numeric_limits<std::uint64_t>::max()})
        EXPECT_EQ(q.expireLeases(now), 0u) << now;
    EXPECT_EQ(q.stateOf(local.id), QueueJobState::kLeased);
    EXPECT_EQ(q.stateOf(external.id), QueueJobState::kPending);

    EXPECT_TRUE(q.complete(local.id, "local-0", okResult(), 0));
    EXPECT_EQ(q.stateOf(local.id), QueueJobState::kDone);
    EXPECT_EQ(q.stats().requeues, 1u);
}

TEST(JobQueue, WorkerLedgerCountsWhatTheQueueDecided)
{
    JobQueueOptions opts;
    opts.backoffBaseMs = 10;
    JobQueue q(opts);
    const SubmitOutcome base = q.submitBaseline(testJob(2), 0, 0, 0);
    const SubmitOutcome first = submitJob(q, testJob(2, 1), 0, {base.id});
    const SubmitOutcome second = submitJob(q, testJob(2, 2), 0, {base.id});

    LeasedJob lease;
    ASSERT_TRUE(q.lease("a", 0, lease));
    ASSERT_EQ(lease.id, base.id);
    // A worker that does not hold the lease changes nothing.
    EXPECT_EQ(q.fail(base.id, "c", "not mine", 5), FailOutcome::kStale);
    EXPECT_FALSE(q.complete(base.id, "c", baselineResult(), 5));
    EXPECT_EQ(q.fail(base.id, "a", "crashed", 5), FailOutcome::kRequeued);
    // Once requeued, the old holder is stale too, and a lease that
    // finds the job in backoff returns nothing.
    EXPECT_EQ(q.fail(base.id, "a", "again", 6), FailOutcome::kStale);
    EXPECT_FALSE(q.complete(base.id, "a", baselineResult(), 6));
    EXPECT_FALSE(q.lease("c", 10, lease));

    // The completion rate follows the injected clock: none after the
    // first done, 1000 / 250 ms after the second, and an interval under
    // 1 ms counts as 1 ms (0.3 * 1000 + 0.7 * 4).
    ASSERT_TRUE(q.lease("b", 15, lease));
    ASSERT_TRUE(q.complete(lease.id, "b", baselineResult(), 1000));
    EXPECT_DOUBLE_EQ(q.stats().workers.at("b").jobsPerSec, 0.0);
    ASSERT_TRUE(q.lease("b", 1000, lease));
    EXPECT_EQ(lease.id, first.id);
    ASSERT_TRUE(q.complete(lease.id, "b", okResult(), 1250));
    EXPECT_DOUBLE_EQ(q.stats().workers.at("b").jobsPerSec, 4.0);
    ASSERT_TRUE(q.lease("b", 1250, lease));
    EXPECT_EQ(lease.id, second.id);
    ASSERT_TRUE(q.complete(lease.id, "b", okResult(), 1250));

    const QueueStats stats = q.stats();
    ASSERT_EQ(stats.workers.size(), 2u) << "a stale call made a ledger entry";
    const WorkerStats &a = stats.workers.at("a");
    EXPECT_EQ(a.leases, 1u);
    EXPECT_EQ(a.done, 0u);
    EXPECT_EQ(a.failed, 1u);
    EXPECT_EQ(a.lastDoneMs, 0u);
    const WorkerStats &b = stats.workers.at("b");
    EXPECT_EQ(b.leases, 3u);
    EXPECT_EQ(b.done, 3u);
    EXPECT_EQ(b.failed, 0u);
    EXPECT_EQ(b.lastDoneMs, 1250u);
    EXPECT_DOUBLE_EQ(b.jobsPerSec, 0.3 * 1000.0 + 0.7 * 4.0);
}

TEST(JobQueue, LeaseExpiryExhaustsAttempts)
{
    JobQueueOptions opts;
    opts.maxAttempts = 2;
    opts.leaseMs = 10;
    opts.backoffBaseMs = 1;
    JobQueue q(opts);
    const SubmitOutcome job = submitJob(q, testJob(2), 0);

    LeasedJob lease;
    ASSERT_TRUE(q.lease("w", 0, lease));
    EXPECT_EQ(q.expireLeases(100), 1u);
    ASSERT_TRUE(q.lease("w", 200, lease));
    EXPECT_EQ(q.expireLeases(300), 1u);

    ASSERT_TRUE(q.settled(job.id));
    EXPECT_EQ(q.stateOf(job.id), QueueJobState::kFailed);
    EXPECT_NE(q.resultFor(job.id).error.find("lease expired"),
              std::string::npos);
}

TEST(JobQueue, SettledSubmitAndCancel)
{
    JobQueue q;

    // Submit-time cache hit: the job is done at once and never leased,
    // and it dedups like any done job.
    JobResult cached = okResult();
    cached.status = JobStatus::kCached;
    const SubmitOutcome a =
        q.submitSettled(testJob(2), fingerprintJob(testJob(2)), cached);
    EXPECT_FALSE(a.deduped);
    EXPECT_EQ(q.stateOf(a.id), QueueJobState::kDone);
    EXPECT_TRUE(q.resultFor(a.id).fromCache());
    EXPECT_TRUE(submitJob(q, testJob(2), 0).deduped);

    const SubmitOutcome b = submitJob(q, testJob(4), 0);
    EXPECT_TRUE(q.cancel(b.id));
    EXPECT_EQ(q.stateOf(b.id), QueueJobState::kCancelled);
    EXPECT_EQ(q.resultFor(b.id).status, JobStatus::kFailed);

    // Leased jobs cannot be cancelled out from under their worker.
    const SubmitOutcome c = submitJob(q, testJob(8), 0);
    LeasedJob lease;
    ASSERT_TRUE(q.lease("w", 0, lease));
    EXPECT_EQ(lease.id, c.id);
    EXPECT_FALSE(q.cancel(c.id));

    EXPECT_TRUE(q.waitSettled(a.id, 0));
    EXPECT_FALSE(q.waitSettled(c.id, 10));
    EXPECT_FALSE(q.idle());
}

TEST(JobQueue, DependentIsLeasedOnlyAfterItsBaselines)
{
    JobQueue q;
    const SubmitOutcome base = q.submitBaseline(testJob(4), 0, 0, 0);
    const SubmitOutcome four = submitJob(q, testJob(4), 0, {base.id});
    // Another thread count shares the baseline job.
    const SubmitOutcome twin = q.submitBaseline(testJob(8), 0, 0, 0);
    EXPECT_TRUE(twin.deduped);
    EXPECT_EQ(twin.id, base.id);
    const SubmitOutcome eight = submitJob(q, testJob(8), 0, {base.id});

    LeasedJob lease;
    ASSERT_TRUE(q.lease("w", 0, lease));
    EXPECT_EQ(lease.id, base.id);
    EXPECT_TRUE(lease.isBaseline());
    EXPECT_EQ(lease.group, 0);
    EXPECT_FALSE(q.lease("w", 0, lease))
        << "no experiment is leased before its baseline is done";
    EXPECT_FALSE(q.idle());

    ASSERT_TRUE(q.complete(base.id, "w", baselineResult(1234), 0));
    for (const JobId id : {four.id, eight.id}) {
        ASSERT_TRUE(q.lease("w", 0, lease));
        EXPECT_EQ(lease.id, id);
        EXPECT_FALSE(lease.isBaseline());
    }
    // Both experiments are paired with the one baseline run.
    for (const JobId id : {four.id, eight.id}) {
        const int nthreads = id == four.id ? 4 : 8;
        ASSERT_TRUE(q.complete(id, "w", okResult(1, 50, nthreads), 0));
        EXPECT_EQ(q.resultFor(id).exp.single.executionTime, 1234u);
    }

    // Per-state counts and submit counters are of experiments only.
    const QueueStats stats = q.stats();
    EXPECT_EQ(stats.done, 2u);
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.baselines[static_cast<std::size_t>(
                  QueueJobState::kDone)],
              1u);
}

TEST(JobQueue, CompletedExperimentIsPairedWithTheBaselinesItSettled)
{
    const test::TempDir tmp("pairing");
    const std::string &dir = tmp.path();
    ResultCache cache(dir);
    JobQueue q(JobQueueOptions(), &cache);

    // One group: Ts is the settled baseline's run, whatever the
    // completing worker sent as exp.single.
    const JobId base = settleBaseline(q, testJob(2), 1234);
    const SubmitOutcome two = submitJob(q, testJob(2), 0, {base});
    LeasedJob lease;
    ASSERT_TRUE(q.lease("w", 0, lease));
    ASSERT_TRUE(q.complete(two.id, "w", okResult(7, 50, 2), 0));
    JobResult result = q.resultFor(two.id);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.exp.single.executionTime, 1234u);
    EXPECT_EQ(result.exp.parallel.executionTime, 50u);
    // ...and the queue stored that pair before the job settled.
    SpeedupExperiment stored;
    ASSERT_TRUE(cache.lookup(fingerprintJob(testJob(2)), stored));
    EXPECT_EQ(stored.single.executionTime, 1234u);
    EXPECT_EQ(stored.parallel.executionTime, 50u);

    // Two groups: Ts is the sum of the groups' baselines. Group 0 runs
    // the compute profile, so it shares the baseline job above.
    JobSpec mix;
    mix.workload = WorkloadSpec::mix(
        {WorkloadGroup{test::computeOnlyProfile(), 2},
         WorkloadGroup{test::memoryHeavyProfile(), 2}});
    const SubmitOutcome g0 = q.submitBaseline(mix, 0, 0, 0);
    EXPECT_EQ(g0.id, base);
    const SubmitOutcome g1 = q.submitBaseline(mix, 1, 0, 0);
    const SubmitOutcome four = submitJob(q, mix, 0, {g0.id, g1.id});
    ASSERT_TRUE(q.lease("w", 0, lease));
    ASSERT_TRUE(q.complete(g1.id, "w", baselineResult(1000), 0));
    ASSERT_TRUE(q.lease("w", 0, lease));
    EXPECT_EQ(lease.id, four.id);
    ASSERT_TRUE(q.complete(four.id, "w", okResult(9, 60, 4), 0));
    result = q.resultFor(four.id);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.exp.single.executionTime, 2234u);
    EXPECT_EQ(result.exp.single.nthreads, 1);
    ASSERT_TRUE(cache.lookup(fingerprintJob(mix), stored));
    EXPECT_EQ(stored.single.executionTime, 2234u);

    // An experiment with no baseline job has no Ts to pair with: an ok
    // completion settles failed, and nothing is stored.
    const SubmitOutcome lone = submitJob(q, testJob(8), 0);
    ASSERT_TRUE(q.lease("w", 0, lease));
    ASSERT_TRUE(q.complete(lone.id, "w", okResult(7, 50, 8), 0));
    result = q.resultFor(lone.id);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("no baseline job"), std::string::npos)
        << result.error;
    EXPECT_FALSE(cache.lookup(fingerprintJob(testJob(8)), stored));
}

TEST(JobQueue, ReadyDependentWakesWaitReady)
{
    JobQueue q;
    const SubmitOutcome base = q.submitBaseline(testJob(4), 0, 0, 0);
    submitJob(q, testJob(4), 0, {base.id});
    LeasedJob lease;
    ASSERT_TRUE(q.lease("w", 0, lease));
    ASSERT_FALSE(q.lease("w2", 0, lease));

    const std::uint64_t epoch = q.readyEpoch();
    std::thread completer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        q.complete(base.id, "w", baselineResult(), 0);
    });
    const auto start = std::chrono::steady_clock::now();
    q.waitReady(epoch, 30000);
    const auto waited = std::chrono::steady_clock::now() - start;
    completer.join();
    EXPECT_LT(waited, std::chrono::seconds(10));
    EXPECT_NE(q.readyEpoch(), epoch);
    EXPECT_TRUE(q.lease("w2", 0, lease));
}

TEST(JobQueue, FailedBaselineFailsEveryDependentWithItsError)
{
    JobQueue q;
    const SubmitOutcome base = q.submitBaseline(testJob(2), 0, 0, 0);
    const SubmitOutcome two = submitJob(q, testJob(2), 0, {base.id});
    const SubmitOutcome four = submitJob(q, testJob(4), 0, {base.id});
    LeasedJob lease;
    ASSERT_TRUE(q.lease("w", 0, lease));
    JobResult failed;
    failed.status = JobStatus::kFailed;
    failed.error = "baseline exploded";
    ASSERT_TRUE(q.complete(base.id, "w", failed, 0));
    for (const JobId id : {two.id, four.id}) {
        EXPECT_EQ(q.stateOf(id), QueueJobState::kFailed);
        EXPECT_EQ(q.resultFor(id).error, "baseline exploded");
    }
    EXPECT_TRUE(q.idle());

    // The failed baseline dedups (its error is deterministic), so a
    // later experiment on it fails at submission.
    const SubmitOutcome again = q.submitBaseline(testJob(8), 0, 0, 0);
    EXPECT_TRUE(again.deduped);
    const SubmitOutcome eight = submitJob(q, testJob(8), 0, {again.id});
    EXPECT_EQ(q.resultFor(eight.id).error, "baseline exploded");

    // Exhausted attempts fail the dependents too.
    JobQueueOptions opts;
    opts.maxAttempts = 1;
    JobQueue q1(opts);
    const SubmitOutcome base1 = q1.submitBaseline(testJob(2), 0, 0, 0);
    const SubmitOutcome dep = submitJob(q1, testJob(2), 0, {base1.id});
    ASSERT_TRUE(q1.lease("w", 0, lease));
    EXPECT_EQ(q1.fail(base1.id, "w", "disk full", 0), FailOutcome::kFailed);
    EXPECT_EQ(q1.stateOf(dep.id), QueueJobState::kFailed);
    EXPECT_NE(q1.resultFor(dep.id).error.find("disk full"),
              std::string::npos);
}

TEST(JobQueue, ExpiredBaselineLeaseIsRequeuedAndDependentsRunOnce)
{
    JobQueueOptions opts;
    opts.leaseMs = 100;
    opts.backoffBaseMs = 10;
    JobQueue q(opts);
    const SubmitOutcome base = q.submitBaseline(testJob(2), 0, 0, 0);
    const SubmitOutcome two = submitJob(q, testJob(2), 0, {base.id});
    const SubmitOutcome four = submitJob(q, testJob(4), 0, {base.id});

    LeasedJob lease;
    ASSERT_TRUE(q.lease("dead", 0, lease));
    EXPECT_EQ(q.expireLeases(200), 1u);
    EXPECT_EQ(q.stateOf(base.id), QueueJobState::kPending);
    EXPECT_FALSE(q.lease("alive", 200, lease))
        << "the baseline is in backoff and its dependents still wait";
    ASSERT_TRUE(q.lease("alive", 210, lease));
    EXPECT_EQ(lease.id, base.id);
    EXPECT_EQ(lease.attempt, 2);
    EXPECT_FALSE(q.complete(base.id, "dead", baselineResult(), 210));
    ASSERT_TRUE(q.complete(base.id, "alive", baselineResult(), 210));

    std::vector<JobId> ran;
    while (q.lease("alive", 300, lease)) {
        ran.push_back(lease.id);
        ASSERT_TRUE(q.complete(lease.id, "alive", okResult(), 300));
    }
    EXPECT_EQ(ran, (std::vector<JobId>{two.id, four.id}));
    EXPECT_TRUE(q.idle());
    EXPECT_EQ(q.stats().done, 2u);
}

TEST(JobQueue, SharedBaselineSurvivesOneCancelAndRunsAtTheHigherPriority)
{
    JobQueue q;
    const SubmitOutcome other = submitJob(q, testJob(16), 1);
    // Campaigns at priority 0 and 5 share one baseline.
    const SubmitOutcome base = q.submitBaseline(testJob(2), 0, 0, 0);
    const SubmitOutcome low = submitJob(q, testJob(2), 0, {base.id});
    EXPECT_TRUE(q.submitBaseline(testJob(4), 0, 5, 0).deduped);
    const SubmitOutcome high = submitJob(q, testJob(4), 5, {base.id});

    EXPECT_TRUE(q.cancel(low.id));
    EXPECT_EQ(q.stateOf(base.id), QueueJobState::kPending)
        << "the other campaign still needs the baseline";

    // The baseline runs at its dependent's priority 5, ahead of the
    // priority-1 job submitted before it.
    LeasedJob lease;
    ASSERT_TRUE(q.lease("w", 0, lease));
    EXPECT_EQ(lease.id, base.id);
    ASSERT_TRUE(q.complete(base.id, "w", baselineResult(), 0));
    ASSERT_TRUE(q.lease("w", 0, lease));
    EXPECT_EQ(lease.id, high.id);
    ASSERT_TRUE(q.lease("w", 0, lease));
    EXPECT_EQ(lease.id, other.id);

    // A pending baseline whose last dependent is cancelled goes too.
    const SubmitOutcome lone = q.submitBaseline(testJob(2, 1), 0, 0, 0);
    const SubmitOutcome only = submitJob(q, testJob(2, 1), 0, {lone.id});
    EXPECT_TRUE(q.cancel(only.id));
    EXPECT_EQ(q.stateOf(lone.id), QueueJobState::kCancelled);
}

TEST(JobQueue, UnfingerprintableSpecStillQueues)
{
    // A workload with zero groups cannot be fingerprinted; it must
    // still enqueue (and fail at execution time with a real message)
    // rather than throwing out of submit and killing the batch.
    JobQueue q;
    const std::vector<SubmitOutcome> out =
        submitExperiments(q, nullptr, {JobSpec()}, 0, 0, 1);
    EXPECT_FALSE(out[0].deduped);
    EXPECT_NE(out[0].id, 0u);
    LeasedJob lease;
    EXPECT_TRUE(q.lease("w", 0, lease));
}

// ---- driver-over-queue integration -----------------------------------------

TEST(DriverQueue, IntraBatchDuplicatesAreDeduped)
{
    DriverOptions opts;
    opts.jobs = 2;
    BatchStats stats;
    std::vector<JobSpec> specs = {testJob(2), testJob(4), testJob(2)};
    const std::vector<JobResult> results =
        runExperimentBatch(specs, opts, &stats);

    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(stats.executed, 2u);
    EXPECT_EQ(stats.deduped, 1u);
    // The duplicate reports as a cache-style hit with the twin's data.
    EXPECT_EQ(results[2].status, JobStatus::kCached);
    EXPECT_EQ(results[2].exp.tp, results[0].exp.tp);
    EXPECT_EQ(results[0].status, JobStatus::kOk);
}

// ---- protocol ---------------------------------------------------------------

TEST(Protocol, TokenEscapingRoundTrips)
{
    const std::vector<std::string> nasty = {
        "",      "plain", "with space", "tab\tand\nnewline\r",
        "back\\slash", "\\e", "trailing ", " leading",
    };
    for (const std::string &s : nasty) {
        const std::string escaped = serve::escapeToken(s);
        EXPECT_EQ(escaped.find(' '), std::string::npos) << s;
        EXPECT_EQ(escaped.find('\n'), std::string::npos) << s;
        EXPECT_FALSE(escaped.empty());
        EXPECT_EQ(serve::unescapeToken(escaped), s);
    }
    EXPECT_THROW(serve::unescapeToken("bad\\"), std::invalid_argument);
    EXPECT_THROW(serve::unescapeToken("bad\\q"), std::invalid_argument);
}

TEST(Protocol, RequestRoundTripsAreExact)
{
    std::vector<Request> requests;
    {
        Request r;
        r.kind = Request::Kind::kSubmit;
        r.campaign = "fig 01"; // space survives escaping
        r.priority = -3;
        r.payload = "profiles = cholesky\nthreads = 2, 4\n";
        requests.push_back(r);
    }
    {
        Request r;
        r.kind = Request::Kind::kResults;
        r.campaign = "fig01";
        r.json = true;
        r.wait = true;
        requests.push_back(r);
    }
    for (const auto kind :
         {Request::Kind::kStatus, Request::Kind::kDrain,
          Request::Kind::kPing}) {
        Request r;
        r.kind = kind;
        requests.push_back(r);
    }
    {
        Request r;
        r.kind = Request::Kind::kCancel;
        r.campaign = "fig01";
        requests.push_back(r);
    }
    {
        Request r;
        r.kind = Request::Kind::kLease;
        r.worker = "worker with space";
        requests.push_back(r);
    }
    {
        Request r;
        r.kind = Request::Kind::kHeartbeat;
        r.worker = "w1";
        r.jobId = 42;
        requests.push_back(r);
    }
    {
        Request r;
        r.kind = Request::Kind::kDone;
        r.worker = "w1";
        r.jobId = 7;
        r.payload = "result-status ok\nlabel x\nend\n";
        requests.push_back(r);
    }
    {
        Request r;
        r.kind = Request::Kind::kFail;
        r.worker = "w1";
        r.jobId = 7;
        r.payload = "disk\nfull";
        requests.push_back(r);
    }

    for (const Request &r : requests) {
        const std::string line = serve::serializeRequest(r);
        EXPECT_EQ(line.find('\n'), std::string::npos);
        const Request back = serve::parseRequest(line);
        EXPECT_EQ(back.kind, r.kind) << line;
        EXPECT_EQ(back.campaign, r.campaign) << line;
        EXPECT_EQ(back.payload, r.payload) << line;
        EXPECT_EQ(back.priority, r.priority) << line;
        EXPECT_EQ(back.json, r.json) << line;
        EXPECT_EQ(back.wait, r.wait) << line;
        EXPECT_EQ(back.worker, r.worker) << line;
        EXPECT_EQ(back.jobId, r.jobId) << line;
        // Fixed point: re-serializing the parse gives the same bytes,
        // so journaled lines replay bit-exactly.
        EXPECT_EQ(serve::serializeRequest(back), line);
    }
}

TEST(Protocol, ParseErrorsAreDescriptive)
{
    try {
        serve::parseRequest("frobnicate x");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        // Unknown verbs list every valid one, like the registries do.
        EXPECT_NE(std::string(e.what()).find("submit"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("lease"),
                  std::string::npos);
    }
    EXPECT_THROW(serve::parseRequest(""), std::invalid_argument);
    EXPECT_THROW(serve::parseRequest("submit onlyone"),
                 std::invalid_argument);
    EXPECT_THROW(serve::parseRequest("heartbeat w notanumber"),
                 std::invalid_argument);
    EXPECT_THROW(serve::parseRequest("results c xml wait"),
                 std::invalid_argument);
    // Baselines are leased as jobs: there is no baseline verb.
    for (const char *gone : {"baseline w 1 0", "baseline-done w 1 0 x"})
        EXPECT_THROW(serve::parseRequest(gone), std::invalid_argument)
            << gone;
}

TEST(Protocol, JobResultCodecRoundTrips)
{
    JobResult ok = okResult(7008000, 3518060, 4);
    ok.exp.single.totalInstructions = 28032000;
    ok.exp.parallel.threads[1].instructions = 1480;
    ok.exp.parallel.threads[1].spinInstructions = 480;
    ok.exp.parallel.totalInstructions = 1000;
    ok.exp.parallel.totalSpinInstructions = 480;
    ok.exp.parallel.threads[3].spinDetectedLi = 12345;
    JobResult decoded;
    ASSERT_TRUE(serve::decodeJobResult(serve::encodeJobResult(ok),
                                       decoded));
    EXPECT_EQ(decoded.status, JobStatus::kOk);
    // An experiment's `done` carries its parallel run only: Ts is the
    // server's own baseline job.
    EXPECT_EQ(decoded.exp.single.executionTime, 0u);
    EXPECT_EQ(decoded.exp.single.totalInstructions, 0u);
    EXPECT_EQ(decoded.exp.parallel.executionTime, 3518060u);
    EXPECT_EQ(decoded.exp.parallel.totalSpinInstructions, 480u);
    EXPECT_EQ(decoded.exp.parallel.nthreads, 4);
    ASSERT_EQ(decoded.exp.parallel.threads.size(), 4u);
    EXPECT_EQ(decoded.exp.parallel.threads[3].spinDetectedLi, 12345u);
    EXPECT_EQ(serve::encodeJobResult(decoded), serve::encodeJobResult(ok));
    EXPECT_EQ(serve::encodeJobResult(ok),
              "result-status ok\n" + encodeRun(ok.exp.parallel));
    // Only the server's cache makes a row `cached`, not a worker.
    EXPECT_FALSE(serve::decodeJobResult(
        "result-status cached\n" + encodeRun(ok.exp.parallel), decoded));

    JobResult failed;
    failed.status = JobStatus::kFailed;
    failed.error = "multi\nline error";
    ASSERT_TRUE(serve::decodeJobResult(serve::encodeJobResult(failed),
                                       decoded));
    EXPECT_EQ(decoded.status, JobStatus::kFailed);
    EXPECT_EQ(decoded.error, failed.error);

    EXPECT_FALSE(serve::decodeJobResult("garbage", decoded));
    EXPECT_FALSE(serve::decodeJobResult("result-status ok\ncycles 1\n",
                                        decoded)); // no end sentinel
}

TEST(Protocol, EveryPrefixOfAnExperimentDoneIsRejected)
{
    // A `done` payload cut anywhere (a dropped connection, a worker
    // killed mid-write) is undecodable, never a shorter result.
    JobResult ok = okResult(7008000, 3518060, 3);
    ok.error = "note";
    const std::string text = serve::encodeJobResult(ok);
    ASSERT_EQ(text.find("cycles 7008000"), std::string::npos)
        << "the body is the parallel run alone";
    JobResult decoded;
    ASSERT_TRUE(serve::decodeJobResult(text, decoded));
    for (std::size_t n = 0; n < text.size(); ++n) {
        JobResult out = okResult(1, 1, 1);
        EXPECT_FALSE(serve::decodeJobResult(text.substr(0, n), out))
            << "prefix of " << n << " bytes";
        EXPECT_EQ(out.exp.parallel.nthreads, 1) << "untouched on failure";
    }
}

TEST(Protocol, BaselineJobResultCodecIsStrict)
{
    const std::string text = serve::encodeJobResult(baselineResult(4321));
    JobResult decoded;
    ASSERT_TRUE(serve::decodeJobResult(text, decoded, true));
    EXPECT_EQ(decoded.status, JobStatus::kOk);
    ASSERT_NE(decoded.baseline, nullptr);
    EXPECT_EQ(decoded.baseline->executionTime, 4321u);
    EXPECT_EQ(serve::encodeJobResult(decoded), text);

    JobResult failed;
    failed.status = JobStatus::kFailed;
    failed.error = "boom";
    ASSERT_TRUE(serve::decodeJobResult(serve::encodeJobResult(failed),
                                       decoded, true));
    EXPECT_EQ(decoded.error, "boom");
    EXPECT_EQ(decoded.baseline, nullptr);

    // A 2-thread run is no baseline result, nor is a cut or extended
    // run; a baseline is never `cached`, and a failure carries no body.
    EXPECT_FALSE(serve::decodeJobResult(serve::encodeJobResult(okResult()),
                                        decoded, true));
    for (const std::string &bad : std::vector<std::string>{
             text.substr(0, text.size() - 1), text + "end\n",
             "result-status cached\n" + text.substr(text.find('\n') + 1),
             "result-status ok\n", "result-status failed\ncycles 1\n"})
        EXPECT_FALSE(serve::decodeJobResult(bad, decoded, true)) << bad;
}

TEST(Protocol, LeaseRepliesRoundTripAndParseStrictly)
{
    LeasedJob experiment;
    experiment.id = 12;
    experiment.leaseMs = 3000;
    experiment.spec = testJob(4);
    const std::string jobLine = serve::leaseReply(experiment);
    const std::string spec =
        serve::escapeToken(serializeSpec(specForJob(experiment.spec)));
    EXPECT_EQ(jobLine, "ok job 12 3000 " + spec);

    LeasedJob back;
    std::string specText;
    ASSERT_TRUE(serve::parseLeaseReply(jobLine, back, specText));
    EXPECT_EQ(back.id, 12u);
    EXPECT_EQ(back.leaseMs, 3000u);
    EXPECT_FALSE(back.isBaseline());
    EXPECT_EQ(specText, serializeSpec(specForJob(experiment.spec)));

    LeasedJob baseline = experiment;
    baseline.group = 0;
    const std::string baseLine = serve::leaseReply(baseline);
    EXPECT_EQ(baseLine, "ok baseline 12 3000 0 " + spec);
    ASSERT_TRUE(serve::parseLeaseReply(baseLine, back, specText));
    EXPECT_TRUE(back.isBaseline());
    EXPECT_EQ(back.group, 0);

    // An experiment lease carries no baseline run: a token after the
    // spec (the version-5 form sent one per group) is refused.
    const std::string summary =
        serve::escapeToken(encodeRun(*baselineResult().baseline));
    for (const std::string &bad : std::vector<std::string>{
             "", "ok", "ok none", "ok job 12 3000", "err job 12 3000 " + spec,
             "ok work 12 3000 " + spec, "ok job x 3000 " + spec,
             "ok job 12 -1 " + spec, "ok job 12 3000 bad\\q",
             "ok job 12 3000 " + spec + " garbage",
             "ok job 12 3000 " + spec + " " + summary,
             "ok baseline 12 3000 0", "ok baseline 12 3000 -1 " + spec,
             "ok baseline 12 3000 0 " + spec + " " + spec}) {
        EXPECT_FALSE(serve::parseLeaseReply(bad, back, specText)) << bad;
    }
}

TEST(Protocol, RunTotalsMustAgreeWithTheirThreads)
{
    // What a raw-socket worker once had served and cached: a 4-thread
    // run of `cycles 1` whose threads all finished at cycle 0 (and its
    // 1-thread twin as a baseline job's result).
    std::string zeros;
    for (int i = 0; i < 23; ++i)
        zeros += " 0";
    for (const int nthreads : {4, 1}) {
        std::string forged = "nthreads " + std::to_string(nthreads) +
                             "\ncycles 1\ninstructions 0\n"
                             "spin-instructions 0\nevents 0\n";
        for (int t = 0; t < nthreads; ++t)
            forged += "thread" + zeros + "\n";
        forged += "end\n";
        RunResult run;
        run.executionTime = 77;
        EXPECT_FALSE(decodeRun(forged, run));
        EXPECT_EQ(run.executionTime, 77u) << "untouched on failure";
        JobResult result;
        EXPECT_FALSE(serve::decodeJobResult("result-status ok\n" + forged,
                                            result, nthreads == 1));
    }
    RunResult run;

    // Each total is what the simulator derives from the threads.
    JobResult ok = okResult(100, 50, 2);
    RunResult &p = ok.exp.parallel;
    p.threads[0].finishTime = 40;
    p.threads[1].instructions = 30;
    p.threads[1].spinInstructions = 10;
    p.totalInstructions = 20;
    p.totalSpinInstructions = 10;
    ASSERT_TRUE(decodeRun(encodeRun(p), run));
    for (const auto &edit : std::vector<std::function<void(RunResult &)>>{
             [](RunResult &r) { r.executionTime = 40; },
             [](RunResult &r) { r.executionTime = 51; },
             [](RunResult &r) { r.totalInstructions = 30; },
             [](RunResult &r) { r.totalSpinInstructions = 0; },
             [](RunResult &r) { r.threads[0].spinInstructions = 1; },
         }) {
        RunResult bad = p;
        edit(bad);
        EXPECT_FALSE(decodeRun(encodeRun(bad), run))
            << encodeRun(bad);
    }
}

// ---- specForJob -------------------------------------------------------------

void
expectSpecRoundTrip(const JobSpec &job)
{
    const ExperimentSpec spec = specForJob(job);
    const std::string text = serializeSpec(spec);
    EXPECT_EQ(parseSpec(text), spec); // canonical round trip

    const std::vector<JobSpec> jobs = expandGrid(specGrid(spec));
    ASSERT_EQ(jobs.size(), 1u) << text;
    EXPECT_EQ(fingerprintJob(jobs[0]).canonical,
              fingerprintJob(job).canonical)
        << text;
}

TEST(SpecForJob, HomogeneousJobRoundTrips)
{
    JobSpec job;
    job.workload =
        WorkloadSpec::homogeneous(profileByLabel("cholesky"), 4);
    job.ncores = 2; // oversubscribed
    job.params.cache.llcBytes = 1 << 20;
    job.params.schedPolicy = SchedPolicy::kRandom;
    job.params.schedSeed = 7;
    job.seedOffset = 3;
    expectSpecRoundTrip(job);
}

TEST(SpecForJob, MixAndPipelineJobsRoundTrip)
{
    JobSpec mix;
    mix.workload = parseWorkload("fig08_cholesky");
    expectSpecRoundTrip(mix);

    JobSpec pipeline;
    pipeline.workload = parseWorkload("ferret4");
    expectSpecRoundTrip(pipeline);
    EXPECT_EQ(specForJob(pipeline).frontend, "pipeline");
}

// ---- result cache corruption (regression) -----------------------------------

TEST(ResultCacheCorruption, CorruptEntriesAreMissesNotCrashes)
{
    const test::TempDir tmp("cache");
    const std::string &dir = tmp.path();
    ResultCache cache(dir);
    const Fingerprint fp = fingerprintJob(testJob(2));
    const std::string path = cache.entryPath(fp);

    cache.store(fp, okResult().exp);
    SpeedupExperiment out;
    ASSERT_TRUE(cache.lookup(fp, out));

    // A well-formed entry whose parallel `cycles` disagrees with its
    // threads' finish times: miss.
    {
        std::ifstream f(path, std::ios::binary);
        std::ostringstream ss;
        ss << f.rdbuf();
        std::string text = ss.str();
        const std::size_t at = text.find("cycles 50\n");
        ASSERT_NE(at, std::string::npos) << text;
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << text.replace(at, 9, "cycles 51");
    }
    EXPECT_FALSE(cache.lookup(fp, out));

    // Absurd canonical-bytes: must miss without attempting a huge
    // allocation (or crashing).
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << "sst-result-cache v" << kResultCacheVersion << "\nhash "
          << fp.hex()
          << "\ncanonical-bytes 99999999999999\ngarbage";
    }
    EXPECT_FALSE(cache.lookup(fp, out));

    // Truncated entry (torn write on a filesystem without atomic
    // rename): miss, not crash.
    cache.store(fp, okResult().exp);
    std::string full;
    {
        std::ifstream f(path, std::ios::binary);
        std::ostringstream ss;
        ss << f.rdbuf();
        full = ss.str();
    }
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << full.substr(0, full.size() / 2);
    }
    EXPECT_FALSE(cache.lookup(fp, out));

    // Binary garbage: miss.
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << std::string(64, '\xff');
    }
    EXPECT_FALSE(cache.lookup(fp, out));

    // store() overwrites the bad entry and the cache heals.
    cache.store(fp, okResult().exp);
    EXPECT_TRUE(cache.lookup(fp, out));
}

// ---- journal ----------------------------------------------------------------

TEST(Journal, ReplayDropsTornTrailingLine)
{
    const test::TempDir tmp("journal");
    const std::string &dir = tmp.path();
    const std::string path = dir + "/journal";

    EXPECT_TRUE(serve::Journal::replay(path).empty()); // no file yet

    {
        serve::Journal j(path);
        j.append("submit a 0 spec-a");
        j.append("submit b 1 spec-b");
    }
    // A crash mid-append leaves a record without its newline; replay
    // must deliver only the complete records.
    {
        std::ofstream f(path, std::ios::binary | std::ios::app);
        f << "submit c 0 torn-rec";
    }
    const std::vector<std::string> records = serve::Journal::replay(path);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], "submit a 0 spec-a");
    EXPECT_EQ(records[1], "submit b 1 spec-b");
}

// ---- net (regression) -------------------------------------------------------

TEST(Net, SecondListenerDoesNotUnlinkLiveSocket)
{
    const test::TempDir tmp("net");
    const std::string &dir = tmp.path();
    serve::Endpoint ep;
    ep.path = dir + "/sock";

    serve::Listener live = serve::Listener::listenOn(ep);
    // A second server on the same path must refuse to start — and the
    // refusal must not tear down the live server's socket path.
    EXPECT_THROW(serve::Listener::listenOn(ep), std::runtime_error);
    EXPECT_TRUE(std::filesystem::exists(ep.path));
    serve::Socket client = serve::connectTo(ep); // still reachable
    EXPECT_TRUE(client.valid());

    // The live listener's own close still cleans the path up.
    client.close();
    live.close();
    EXPECT_FALSE(std::filesystem::exists(ep.path));
}

TEST(Heartbeat, StopReturnsWellUnderOneInterval)
{
    std::atomic<int> beats{0};
    serve::Heartbeat heartbeat(10000, [&] { ++beats; });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto start = std::chrono::steady_clock::now();
    heartbeat.stop();
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(1000));
    EXPECT_EQ(beats.load(), 0);
}

TEST(Heartbeat, BeatsEveryIntervalUntilStopped)
{
    std::atomic<int> beats{0};
    serve::Heartbeat heartbeat(20, [&] { ++beats; });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    heartbeat.stop();
    const int sent = beats.load();
    EXPECT_GE(sent, 3);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_EQ(beats.load(), sent); // no beat after stop()
}

// ---- end-to-end over the socket ---------------------------------------------

/** One request over a fresh connection; returns the first reply line. */
std::string
requestLine(const serve::Endpoint &ep, const std::string &line)
{
    serve::Socket sock = serve::connectTo(ep);
    sock.writeAll(line + "\n");
    sock.shutdownWrite();
    std::string reply;
    if (!sock.readLine(reply))
        return "";
    return reply;
}

/** Streamed request: first line, body (between first and end), end. */
struct Streamed
{
    std::string first;
    std::string body;
    std::string end;
};

Streamed
streamRequest(const serve::Endpoint &ep, const std::string &line)
{
    serve::Socket sock = serve::connectTo(ep);
    sock.writeAll(line + "\n");
    sock.shutdownWrite();
    Streamed out;
    std::string l;
    if (!sock.readLine(out.first))
        return out;
    while (sock.readLine(l)) {
        if (l.rfind("end", 0) == 0) {
            out.end = l;
            break;
        }
        out.body += l + "\n";
    }
    return out;
}

/** Poll until @p server has @p n settled jobs (10 s deadline). */
void
waitForSettled(serve::Server &server, std::size_t n)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    for (;;) {
        const QueueStats stats = server.queue().stats();
        if (stats.done + stats.failed + stats.cancelled >= n)
            return;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "jobs did not settle in time";
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

TEST(ServeEndToEnd, DoneForUnknownJobIsStaleNotFatal)
{
    const test::TempDir tmp("bogus-done");
    const std::string &dir = tmp.path();
    serve::ServerOptions opts;
    opts.endpoint.path = dir + "/sock";
    opts.driver.cacheDir = dir + "/cache"; // cache on: the crash path
    opts.localWorkers = 0;
    serve::Server server(opts);
    server.start();

    // A done for an id the queue never issued must be rejected as
    // stale — with a well-formed ok payload it used to hit an
    // asserting spec lookup on the cache-store path and abort the
    // whole server.
    Request done;
    done.kind = Request::Kind::kDone;
    done.worker = "rogue";
    done.jobId = 424242;
    done.payload = serve::encodeJobResult(okResult());
    EXPECT_EQ(requestLine(server.endpoint(),
                          serve::serializeRequest(done)),
              "err stale");

    // The server survived and still answers.
    const std::string pong = requestLine(server.endpoint(), "ping");
    EXPECT_EQ(pong.rfind("ok pong", 0), 0u) << pong;
    server.stop();
}

TEST(ServeEndToEnd, ResubmitAfterCancelTracksRetryJobs)
{
    const test::TempDir tmp("resubmit");
    const std::string &dir = tmp.path();
    serve::ServerOptions opts;
    opts.endpoint.path = dir + "/sock";
    opts.localWorkers = 0; // jobs stay pending: cancel can reach them
    serve::Server server(opts);
    server.start();

    const std::string specText = "profiles = cholesky\nthreads = 2\n";
    std::string response;
    ASSERT_TRUE(server.submitCampaign("camp", 0, specText, response));
    EXPECT_EQ(response,
              "ok submitted camp jobs=1 new=1 deduped=0 cached=0");
    EXPECT_EQ(server.cancelCampaign("camp"), 1u);

    // Cancelled twins don't dedup: the resubmit enqueues a fresh
    // retry job, and the campaign must track the retry's id — not
    // keep streaming the settled cancellation forever.
    ASSERT_TRUE(server.submitCampaign("camp", 0, specText, response));
    EXPECT_EQ(response,
              "ok submitted camp jobs=1 new=1 deduped=0 cached=0");
    EXPECT_NE(server.statusText().find("campaign camp jobs=1 settled=0"),
              std::string::npos)
        << server.statusText();
    server.stop();
}

TEST(ServeEndToEnd, CampaignTraceDirMustMatchTheServers)
{
    const test::TempDir tmp("trace-dir");
    const std::string &dir = tmp.path();
    serve::ServerOptions opts;
    opts.endpoint.path = dir + "/sock";
    opts.localWorkers = 0;
    opts.driver.traceDir = dir + "/traces";
    serve::Server server(opts);
    server.start();

    // The server's workers replay from their own --trace-dir; a
    // campaign naming another directory would silently run live.
    std::string response;
    EXPECT_FALSE(server.submitCampaign(
        "other", 0,
        "profiles = cholesky\nthreads = 4\nfrontend = trace\n"
        "trace-dir = tr\n",
        response));
    EXPECT_EQ(response.rfind("err ", 0), 0u) << response;
    EXPECT_NE(response.find("'tr'"), std::string::npos) << response;
    EXPECT_NE(response.find(dir + "/traces"), std::string::npos)
        << response;

    // The server's own directory, or none, is accepted.
    EXPECT_TRUE(server.submitCampaign(
        "same", 0,
        "profiles = cholesky\nthreads = 4\ntrace-dir = " + dir +
            "/traces/\n",
        response))
        << response;
    EXPECT_TRUE(server.submitCampaign(
        "none", 0, "profiles = cholesky\nthreads = 2\n", response))
        << response;
    server.stop();
}

TEST(ServeEndToEnd, LocalWorkersWithoutTraceDirRefuseACampaignTraceDir)
{
    const test::TempDir tmp("trace-dir-local");
    const std::string &dir = tmp.path();
    serve::ServerOptions opts;
    opts.endpoint.path = dir + "/sock";
    const std::string spec = "profiles = cholesky\nthreads = 4\n"
                             "frontend = trace\ntrace-dir = tr\n";
    std::string response;
    {
        // A pure coordinator leaves the directory to its workers.
        serve::Server coordinator(opts);
        coordinator.start();
        EXPECT_TRUE(coordinator.submitCampaign("c", 0, spec, response))
            << response;
        coordinator.stop();
    }
    // Its own worker would run the jobs live instead of replaying.
    opts.localWorkers = 1;
    opts.endpoint.path = dir + "/sock2";
    serve::Server server(opts);
    server.start();
    EXPECT_FALSE(server.submitCampaign("c", 0, spec, response));
    EXPECT_EQ(response.rfind("err spec trace-dir 'tr' differs", 0), 0u)
        << response;
    server.stop();
}

TEST(ServeEndToEnd, CampaignMatchesBatchDriverAndDedupes)
{
    const test::TempDir tmp("e2e");
    const std::string &dir = tmp.path();
    serve::ServerOptions opts;
    opts.endpoint.path = dir + "/sock";
    opts.driver.cacheDir = dir + "/cache";
    opts.journalPath = dir + "/journal";
    opts.localWorkers = 0; // all execution on external workers
    serve::Server server(opts);
    server.start();

    // Two external workers, exactly like `sst worker --connect`.
    serve::WorkerOptions wopts;
    wopts.endpoint = server.endpoint();
    wopts.pollMs = 20;
    std::vector<std::thread> workers;
    std::vector<int> workerRc(2, -1);
    for (int i = 0; i < 2; ++i) {
        workers.emplace_back([&, i] {
            serve::WorkerOptions w = wopts;
            w.name = "tw-" + std::to_string(i);
            workerRc[i] = serve::runWorker(w);
        });
    }

    const std::string specText = "profiles = cholesky\nthreads = 2, 4\n";
    Request submit;
    submit.kind = Request::Kind::kSubmit;
    submit.campaign = "camp";
    submit.payload = specText;
    const std::string reply =
        requestLine(server.endpoint(), serve::serializeRequest(submit));
    EXPECT_EQ(reply, "ok submitted camp jobs=2 new=2 deduped=0 cached=0");

    waitForSettled(server, 2);

    // Duplicate submission: fully deduped, nothing re-runs.
    const std::string dupReply =
        requestLine(server.endpoint(), serve::serializeRequest(submit));
    EXPECT_EQ(dupReply,
              "ok submitted camp jobs=2 new=0 deduped=2 cached=0");

    Request results;
    results.kind = Request::Kind::kResults;
    results.campaign = "camp";
    results.wait = true;
    const Streamed streamed = streamRequest(
        server.endpoint(), serve::serializeRequest(results));
    EXPECT_EQ(streamed.first, "ok results camp csv");
    EXPECT_EQ(streamed.end, "end complete 2/2");

    // The streamed campaign is bit-identical to the batch driver.
    const ExperimentSpec spec = parseSpec(specText);
    const std::vector<JobSpec> jobs = expandGrid(specGrid(spec));
    DriverOptions refOpts; // no cache: fresh execution
    const std::vector<JobResult> refResults =
        runExperimentBatch(jobs, refOpts);
    EXPECT_EQ(streamed.body, sweepCsv(jobs, refResults));

    // Drain: workers observe it and exit 0.
    EXPECT_EQ(requestLine(server.endpoint(), "drain"), "ok draining");
    for (std::thread &t : workers)
        t.join();
    EXPECT_EQ(workerRc[0], 0);
    EXPECT_EQ(workerRc[1], 0);
    EXPECT_TRUE(server.finished());
    server.stop();
}

TEST(ServeEndToEnd, LocalWorkersServeTheBatchDriversRows)
{
    const test::TempDir tmp("local");
    serve::ServerOptions opts;
    opts.endpoint.path = tmp.path() + "/sock";
    opts.localWorkers = 2;
    // Leases far shorter than a job, swept often: a local worker's
    // lease that expired would requeue its job.
    opts.queue.leaseMs = 1;
    opts.reaperIntervalMs = 5;
    serve::Server server(opts);
    server.start();

    const std::string specText = "profiles = cholesky, radix\n"
                                 "threads = 2, 4\n"
                                 "machine.stack-detector = li\n";
    std::string response;
    ASSERT_TRUE(server.submitCampaign("camp", 0, specText, response))
        << response;
    const Streamed streamed =
        streamRequest(server.endpoint(), "results camp csv wait");
    EXPECT_EQ(streamed.end, "end complete 4/4");

    // Each row is assembled for its spec, exactly as `sst run` does.
    const std::vector<JobSpec> jobs =
        expandGrid(specGrid(parseSpec(specText)));
    EXPECT_EQ(streamed.body, sweepCsv(jobs, runExperimentBatch(jobs, {})));
    EXPECT_EQ(server.queue().stats().requeues, 0u);
    const std::string status = server.statusText();
    EXPECT_NE(status.find("worker local-0 leases="), std::string::npos)
        << status;
    EXPECT_NE(status.find("worker local-1 leases="), std::string::npos)
        << status;
    server.stop();
}

TEST(ServeEndToEnd, BadMachineValueFailsOnlyItsJob)
{
    const test::TempDir tmp("bad-machine");
    serve::ServerOptions opts;
    opts.endpoint.path = tmp.path() + "/sock";
    opts.localWorkers = 2;
    serve::Server server(opts);
    server.start();

    // A 1000-byte LLC has no power-of-two set count: that job used to
    // panic the server and every job on it.
    std::string response;
    ASSERT_TRUE(server.submitCampaign("camp", 0,
                                      "profiles = cholesky\n"
                                      "threads = 2\n"
                                      "llc = 2M, 1000\n",
                                      response))
        << response;
    const Streamed streamed =
        streamRequest(server.endpoint(), "results camp csv wait");
    EXPECT_EQ(streamed.end, "end complete 2/2") << streamed.body;
    EXPECT_NE(streamed.body.find(",2097152,0,ok,"), std::string::npos)
        << streamed.body;
    EXPECT_NE(streamed.body.find(",1000,0,failed,"), std::string::npos)
        << streamed.body;
    const std::string pong = requestLine(server.endpoint(), "ping");
    EXPECT_EQ(pong.rfind("ok pong", 0), 0u) << pong;
    server.stop();
}

TEST(ServeEndToEnd, RestartResumesFromJournalAndCache)
{
    const test::TempDir tmp("restart");
    const std::string &dir = tmp.path();
    serve::ServerOptions opts;
    opts.endpoint.path = dir + "/sock";
    opts.driver.cacheDir = dir + "/cache";
    opts.journalPath = dir + "/journal";
    opts.localWorkers = 1;

    std::string firstBody;
    {
        serve::Server server(opts);
        server.start();
        std::string response;
        ASSERT_TRUE(server.submitCampaign(
            "camp", 0, "profiles = cholesky\nthreads = 2\n", response));
        EXPECT_EQ(response,
                  "ok submitted camp jobs=1 new=1 deduped=0 cached=0");
        waitForSettled(server, 1);
        const Streamed s = streamRequest(server.endpoint(),
                                         "results camp csv nowait");
        EXPECT_EQ(s.end, "end complete 1/1");
        firstBody = s.body;
        server.stop(); // no drain: the campaign is deliberately "live"
    }

    // A fresh server on the same journal + cache reconstructs the
    // campaign and fulfils every already-run job from the cache —
    // without any worker attached.
    serve::ServerOptions resumed = opts;
    resumed.localWorkers = 0;
    serve::Server server(resumed);
    server.start();
    EXPECT_EQ(server.queue().stats().done, 1u);

    const Streamed s =
        streamRequest(server.endpoint(), "results camp csv nowait");
    EXPECT_EQ(s.end, "end complete 1/1");
    EXPECT_NE(s.body.find(",cached,"), std::string::npos);

    // Identical metrics; only the status column records the cache hit.
    std::string expected = firstBody;
    const std::size_t pos = expected.find(",ok,");
    ASSERT_NE(pos, std::string::npos);
    expected.replace(pos, 4, ",cached,");
    EXPECT_EQ(s.body, expected);

    // And resubmitting the same campaign is a full dedup.
    std::string response;
    ASSERT_TRUE(server.submitCampaign(
        "camp", 0, "profiles = cholesky\nthreads = 2\n", response));
    EXPECT_EQ(response,
              "ok submitted camp jobs=1 new=0 deduped=1 cached=0");
    server.stop();
}

TEST(ServeEndToEnd, KilledWorkerLeaseExpiresAndJobCompletes)
{
    const test::TempDir tmp("killed");
    const std::string &dir = tmp.path();
    serve::ServerOptions opts;
    opts.endpoint.path = dir + "/sock";
    opts.driver.cacheDir.clear(); // force real execution
    opts.localWorkers = 0;
    opts.queue.leaseMs = 300;
    opts.reaperIntervalMs = 50;
    serve::Server server(opts);
    server.start();

    std::string response;
    ASSERT_TRUE(server.submitCampaign(
        "camp", 0, "profiles = cholesky\nthreads = 2\n", response));

    // A "worker" leases the job's baseline and is then killed: no
    // heartbeat, no completion. (Raw protocol, exactly what a SIGKILLed
    // process leaves behind.)
    const std::string lease =
        requestLine(server.endpoint(), "lease zombie");
    ASSERT_EQ(lease.rfind("ok baseline ", 0), 0u) << lease;

    // The reaper expires the lease and requeues; a live worker then
    // picks the job up and the campaign still completes.
    serve::WorkerOptions wopts;
    wopts.endpoint = server.endpoint();
    wopts.name = "survivor";
    wopts.pollMs = 20;
    int rc = -1;
    std::thread worker([&] { rc = serve::runWorker(wopts); });

    waitForSettled(server, 1);
    EXPECT_GE(server.queue().stats().requeues, 1u);

    const Streamed s =
        streamRequest(server.endpoint(), "results camp csv nowait");
    EXPECT_EQ(s.end, "end complete 1/1");
    EXPECT_NE(s.body.find(",ok,"), std::string::npos)
        << "job must complete despite the killed worker: " << s.body;

    // The zombie's late completion attempt is rejected as stale.
    const std::vector<std::string> tokens = serve::splitTokens(lease);
    ASSERT_GE(tokens.size(), 3u);
    JobResult fake = baselineResult();
    Request done;
    done.kind = Request::Kind::kDone;
    done.worker = "zombie";
    done.jobId = std::stoull(tokens[2]);
    done.payload = serve::encodeJobResult(fake);
    EXPECT_EQ(requestLine(server.endpoint(),
                          serve::serializeRequest(done)),
              "err stale");

    requestLine(server.endpoint(), "drain");
    worker.join();
    EXPECT_EQ(rc, 0);
    server.stop();
}

TEST(ServeEndToEnd, WorkerHeartbeatsKeepALongJobLeased)
{
    const test::TempDir tmp("heartbeat");
    const std::string &dir = tmp.path();
    serve::ServerOptions opts;
    opts.endpoint.path = dir + "/sock";
    opts.localWorkers = 0;
    opts.queue.leaseMs = 150; // beats every 50 ms
    opts.reaperIntervalMs = 20;
    serve::Server server(opts);
    server.start();

    serve::WorkerOptions wopts;
    wopts.endpoint = server.endpoint();
    wopts.name = "beater";
    wopts.pollMs = 20;
    int rc = -1;
    std::thread worker([&] { rc = serve::runWorker(wopts); });

    // 64 threads on 8 cores runs for several leases; only the worker's
    // beats keep the reaper from requeueing it.
    const auto start = std::chrono::steady_clock::now();
    std::string response;
    ASSERT_TRUE(server.submitCampaign(
        "camp", 0, "profiles = cholesky\nthreads = 64\ncores = 8\n",
        response));
    const Streamed s =
        streamRequest(server.endpoint(), "results camp csv wait");
    EXPECT_EQ(s.end, "end complete 1/1");
    EXPECT_EQ(server.queue().stats().requeues, 0u);
    const bool outlivedALease =
        std::chrono::steady_clock::now() - start >
        std::chrono::milliseconds(opts.queue.leaseMs);

    server.drain();
    worker.join();
    EXPECT_EQ(rc, 0);
    server.stop();
    if (!outlivedALease)
        GTEST_SKIP() << "the campaign finished within one lease on this "
                        "host, so no beat was needed";
}

TEST(ServeEndToEnd, LeaseLongPollWakesOnSubmitAndDrain)
{
    const test::TempDir tmp("longpoll");
    const std::string &dir = tmp.path();
    serve::ServerOptions opts;
    opts.endpoint.path = dir + "/sock";
    opts.localWorkers = 0;
    opts.reaperIntervalMs = 2000; // the long-poll bound
    serve::Server server(opts);
    server.start();
    using Clock = std::chrono::steady_clock;
    const auto waitedMs = [](Clock::time_point since) {
        return std::chrono::duration_cast<std::chrono::milliseconds>(
                   Clock::now() - since)
            .count();
    };

    // An idle lease waits for work and is answered by the submit...
    std::string reply;
    auto start = Clock::now();
    std::thread leaser(
        [&] { reply = requestLine(server.endpoint(), "lease w"); });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::string response;
    ASSERT_TRUE(server.submitCampaign(
        "camp", 0, "profiles = cholesky\nthreads = 2\n", response));
    leaser.join();
    EXPECT_LT(waitedMs(start), 1500);
    // The baseline job comes first; its experiment is leasable the
    // moment it is done.
    ASSERT_EQ(reply.rfind("ok baseline ", 0), 0u) << reply;
    Request done;
    done.kind = Request::Kind::kDone;
    done.worker = "w";
    done.jobId = std::stoull(serve::splitTokens(reply)[2]);
    done.payload = serve::encodeJobResult(baselineResult());
    ASSERT_EQ(requestLine(server.endpoint(), serve::serializeRequest(done)),
              "ok");
    reply = requestLine(server.endpoint(), "lease w");
    ASSERT_EQ(reply.rfind("ok job ", 0), 0u) << reply;
    done.jobId = std::stoull(serve::splitTokens(reply)[2]);
    done.payload = serve::encodeJobResult(okResult());
    ASSERT_EQ(requestLine(server.endpoint(), serve::serializeRequest(done)),
              "ok");

    // ...and by a drain once the queue is idle.
    start = Clock::now();
    leaser = std::thread(
        [&] { reply = requestLine(server.endpoint(), "lease w"); });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server.drain();
    leaser.join();
    EXPECT_LT(waitedMs(start), 1500);
    EXPECT_EQ(reply, "ok drained");
    server.stop();
}

TEST(ServeEndToEnd, ExternalWorkersComputeEachBaselineOnce)
{
    const test::TempDir tmp("baselines");
    const std::string &dir = tmp.path();
    serve::ServerOptions opts;
    opts.endpoint.path = dir + "/sock";
    opts.localWorkers = 0;
    serve::Server server(opts);
    telemetry::Registry::global().reset(); // exact counts below
    server.start();

    serve::WorkerOptions wopts;
    wopts.endpoint = server.endpoint();
    wopts.pollMs = 20;
    std::vector<std::thread> workers;
    std::vector<int> workerRc(2, -1);
    for (int i = 0; i < 2; ++i)
        workers.emplace_back([&, i] {
            serve::WorkerOptions w = wopts;
            w.name = "bw-" + std::to_string(i);
            workerRc[i] = serve::runWorker(w);
        });

    // fig01: three profiles x four thread counts. Each profile's
    // 1-thread run is one baseline job, leased to either worker once.
    const std::string specText =
        "profiles = blackscholes_medium, facesim_medium, cholesky\n"
        "threads = 2, 4, 8, 16\n";
    std::string response;
    ASSERT_TRUE(server.submitCampaign("fig01", 0, specText, response));
    EXPECT_EQ(response,
              "ok submitted fig01 jobs=12 new=12 deduped=0 cached=0");
    const Streamed s =
        streamRequest(server.endpoint(), "results fig01 csv wait");
    EXPECT_EQ(s.end, "end complete 12/12");
    const QueueStats stats = server.queue().stats();
    EXPECT_EQ(stats.done, 12u);
    EXPECT_EQ(stats.baselines[static_cast<std::size_t>(
                  QueueJobState::kDone)],
              3u);
    EXPECT_EQ(stats.requeues, 0u);
    const std::string metrics = server.metricsText();
    EXPECT_NE(
        metrics.find("sst_serve_queue_baselines{state=\"done\"} 3\n"),
        std::string::npos)
        << metrics;

    const std::vector<JobSpec> jobs =
        expandGrid(specGrid(parseSpec(specText)));
    EXPECT_EQ(s.body, sweepCsv(jobs, runExperimentBatch(jobs, {})));

    server.drain();
    for (std::thread &t : workers)
        t.join();
    EXPECT_EQ(workerRc[0], 0);
    EXPECT_EQ(workerRc[1], 0);
    server.stop();
}

TEST(ServeEndToEnd, VanishedBaselineHolderIsRequeuedAfterLeaseExpiry)
{
    const test::TempDir tmp("vanished");
    const std::string &dir = tmp.path();
    serve::ServerOptions opts;
    opts.endpoint.path = dir + "/sock";
    opts.localWorkers = 0;
    opts.queue.leaseMs = 300;
    opts.queue.backoffBaseMs = 50;
    opts.reaperIntervalMs = 50;
    serve::Server server(opts);
    server.start();

    const std::string specText = "profiles = cholesky\nthreads = 2, 4\n";
    std::string response;
    ASSERT_TRUE(server.submitCampaign("camp", 0, specText, response));

    // A worker leases the shared baseline and is killed before
    // reporting it (raw protocol: what a SIGKILL leaves).
    const std::string lease =
        requestLine(server.endpoint(), "lease zombie");
    ASSERT_EQ(lease.rfind("ok baseline ", 0), 0u) << lease;
    const std::string id = serve::splitTokens(lease)[2];

    // Neither experiment is leasable while its baseline is out.
    EXPECT_EQ(requestLine(server.endpoint(), "lease intruder"), "ok none");
    // A worker that does not hold the lease may not settle it, not even
    // with a well-formed (bogus) run: the CSV check below would catch
    // a wrong baseline.
    Request done;
    done.kind = Request::Kind::kDone;
    done.worker = "intruder";
    done.jobId = std::stoull(id);
    done.payload = serve::encodeJobResult(baselineResult(1));
    EXPECT_EQ(requestLine(server.endpoint(),
                          serve::serializeRequest(done)),
              "err stale");
    EXPECT_EQ(requestLine(server.endpoint(), "heartbeat intruder " + id),
              "err stale");

    // A live worker takes over once the expired lease is requeued, and
    // the campaign completes with the baseline computed by it alone.
    serve::WorkerOptions wopts;
    wopts.endpoint = server.endpoint();
    wopts.name = "survivor";
    wopts.pollMs = 20;
    int rc = -1;
    std::thread worker([&] { rc = serve::runWorker(wopts); });

    const Streamed s =
        streamRequest(server.endpoint(), "results camp csv wait");
    EXPECT_EQ(s.end, "end complete 2/2");
    const QueueStats stats = server.queue().stats();
    EXPECT_GE(stats.requeues, 1u);
    EXPECT_EQ(stats.baselines[static_cast<std::size_t>(
                  QueueJobState::kDone)],
              1u);
    const std::vector<JobSpec> jobs =
        expandGrid(specGrid(parseSpec(specText)));
    EXPECT_EQ(s.body, sweepCsv(jobs, runExperimentBatch(jobs, {})));

    server.drain();
    worker.join();
    EXPECT_EQ(rc, 0);
    server.stop();
}

TEST(ServeEndToEnd, DoneFromANonHolderNeverReachesTheCache)
{
    const test::TempDir tmp("poison");
    const std::string &dir = tmp.path();
    serve::ServerOptions opts;
    opts.endpoint.path = dir + "/sock";
    opts.driver.cacheDir = dir + "/cache";
    opts.localWorkers = 0;
    serve::Server server(opts);
    server.start();

    const std::string specText = "profiles = cholesky\nthreads = 2\n";
    std::string response;
    ASSERT_TRUE(server.submitCampaign("camp", 0, specText, response));
    Request done;
    done.kind = Request::Kind::kDone;
    done.worker = "holder";
    std::string lease = requestLine(server.endpoint(), "lease holder");
    ASSERT_EQ(lease.rfind("ok baseline ", 0), 0u) << lease;
    done.jobId = std::stoull(serve::splitTokens(lease)[2]);
    done.payload = serve::encodeJobResult(baselineResult());
    ASSERT_EQ(requestLine(server.endpoint(), serve::serializeRequest(done)),
              "ok");
    lease = requestLine(server.endpoint(), "lease holder");
    ASSERT_EQ(lease.rfind("ok job ", 0), 0u) << lease;

    // Another client reports a well-formed result for the leased job.
    done.worker = "intruder";
    done.jobId = std::stoull(serve::splitTokens(lease)[2]);
    done.payload = serve::encodeJobResult(okResult());
    EXPECT_EQ(requestLine(server.endpoint(), serve::serializeRequest(done)),
              "err stale");
    const JobSpec spec = expandGrid(specGrid(parseSpec(specText)))[0];
    SpeedupExperiment stored;
    EXPECT_FALSE(ResultCache(opts.driver.cacheDir)
                     .lookup(fingerprintJob(spec), stored))
        << "a non-holder's done poisoned the result cache";
    EXPECT_EQ(server.queue().stateOf(done.jobId), QueueJobState::kLeased);
    server.stop();
}

TEST(ServeEndToEnd, DoneOfAnotherThreadCountFailsTheJob)
{
    const test::TempDir tmp("mismatch");
    const std::string &dir = tmp.path();
    serve::ServerOptions opts;
    opts.endpoint.path = dir + "/sock";
    opts.driver.cacheDir = dir + "/cache";
    opts.localWorkers = 0;
    opts.queue.backoffBaseMs = 1;
    serve::Server server(opts);
    server.start();

    const std::string specText = "profiles = cholesky\nthreads = 4\n";
    std::string response;
    ASSERT_TRUE(server.submitCampaign("camp", 0, specText, response));

    // A hand-rolled worker: it settles the baseline, then reports a
    // well-formed 2-thread result for the 4-thread experiment.
    Request done;
    done.kind = Request::Kind::kDone;
    done.worker = "liar";
    std::string lease = requestLine(server.endpoint(), "lease liar");
    ASSERT_EQ(lease.rfind("ok baseline ", 0), 0u) << lease;
    done.jobId = std::stoull(serve::splitTokens(lease)[2]);
    done.payload = serve::encodeJobResult(baselineResult());
    ASSERT_EQ(requestLine(server.endpoint(), serve::serializeRequest(done)),
              "ok");
    lease = requestLine(server.endpoint(), "lease liar");
    ASSERT_EQ(lease.rfind("ok job ", 0), 0u) << lease;
    done.jobId = std::stoull(serve::splitTokens(lease)[2]);
    done.payload = serve::encodeJobResult(okResult(1000, 500, 2));
    EXPECT_EQ(requestLine(server.endpoint(), serve::serializeRequest(done)),
              "err result of 2 thread(s) for a 4-thread job");

    // Like an undecodable payload: the job is requeued, not settled,
    // and nothing reached the cache under its fingerprint.
    EXPECT_EQ(server.queue().stateOf(done.jobId), QueueJobState::kPending);
    EXPECT_EQ(server.queue().stats().requeues, 1u);
    const JobSpec spec = expandGrid(parseSpec(specText))[0];
    SpeedupExperiment stored;
    EXPECT_FALSE(ResultCache(opts.driver.cacheDir)
                     .lookup(fingerprintJob(spec), stored))
        << "a mismatched done poisoned the result cache";
    EXPECT_NE(server.statusText().find("worker liar leases=2 done=1 "
                                       "failed=1"),
              std::string::npos)
        << server.statusText();
    server.stop();
}

TEST(ServeEndToEnd, LocalWorkerRunsAJobAnExternalWorkerFailedAfterBackoff)
{
    const test::TempDir tmp("local-backoff");
    serve::ServerOptions opts;
    opts.endpoint.path = tmp.path() + "/sock";
    opts.localWorkers = 1;
    opts.queue.backoffBaseMs = 200;
    serve::Server server(opts);

    // An external worker holds the campaign's baseline job before the
    // local worker starts, so the local worker cannot take it first.
    const std::string specText = "profiles = cholesky\nthreads = 2\n";
    std::string response;
    ASSERT_TRUE(server.submitCampaign("camp", 0, specText, response))
        << response;
    LeasedJob held;
    ASSERT_TRUE(server.queue().lease("ext", server.nowMs(), held));
    ASSERT_TRUE(held.isBaseline());
    server.start();

    // Its `fail` requeues the job behind a backoff on the server's
    // clock, which the local worker must see run out.
    Request fail;
    fail.kind = Request::Kind::kFail;
    fail.worker = "ext";
    fail.jobId = held.id;
    fail.payload = "worker crashed";
    ASSERT_EQ(requestLine(server.endpoint(), serve::serializeRequest(fail)),
              "ok requeued");
    ASSERT_NO_FATAL_FAILURE(waitForSettled(server, 1));
    const Streamed streamed =
        streamRequest(server.endpoint(), "results camp csv wait");
    EXPECT_EQ(streamed.end, "end complete 1/1");
    const std::vector<JobSpec> jobs = expandGrid(parseSpec(specText));
    EXPECT_EQ(streamed.body, sweepCsv(jobs, runExperimentBatch(jobs, {})));

    const std::string status = server.statusText();
    EXPECT_NE(status.find("worker ext leases=1 done=0 failed=1 "),
              std::string::npos)
        << status;
    EXPECT_NE(status.find("worker local-0 leases=2 done=2 failed=0 "),
              std::string::npos)
        << status;
    server.stop();
}

TEST(ServeEndToEnd, TsIsTheBaselineTheServerSettled)
{
    const test::TempDir tmp("served-ts");
    const std::string &dir = tmp.path();
    serve::ServerOptions opts;
    opts.endpoint.path = dir + "/sock";
    opts.driver.cacheDir = dir + "/cache";
    opts.localWorkers = 0;
    opts.queue.backoffBaseMs = 1;
    serve::Server server(opts);
    server.start();

    const std::string specText = "profiles = cholesky\nthreads = 4\n";
    std::string response;
    ASSERT_TRUE(server.submitCampaign("camp", 0, specText, response));

    // A hand-rolled worker settles the baseline with X = 3432501 cycles.
    Request done;
    done.kind = Request::Kind::kDone;
    done.worker = "hand";
    std::string lease = requestLine(server.endpoint(), "lease hand");
    ASSERT_EQ(lease.rfind("ok baseline ", 0), 0u) << lease;
    done.jobId = std::stoull(serve::splitTokens(lease)[2]);
    done.payload = serve::encodeJobResult(baselineResult(3432501));
    ASSERT_EQ(requestLine(server.endpoint(), serve::serializeRequest(done)),
              "ok");

    // The experiment lease is the spec alone.
    lease = requestLine(server.endpoint(), "lease hand");
    ASSERT_EQ(lease.rfind("ok job ", 0), 0u) << lease;
    EXPECT_EQ(serve::splitTokens(lease).size(), 5u) << lease;
    done.jobId = std::stoull(serve::splitTokens(lease)[2]);

    // A forged run (`cycles 1`, four threads that finished at cycle 0)
    // is undecodable: requeued, never settled or cached.
    JobResult forged = okResult(1, 1, 4);
    for (ThreadCounters &t : forged.exp.parallel.threads)
        t.finishTime = 0;
    done.payload = serve::encodeJobResult(forged);
    EXPECT_EQ(requestLine(server.endpoint(), serve::serializeRequest(done)),
              "err undecodable result payload");
    EXPECT_EQ(server.queue().stateOf(done.jobId), QueueJobState::kPending);
    const JobSpec spec = expandGrid(parseSpec(specText))[0];
    SpeedupExperiment stored;
    EXPECT_FALSE(ResultCache(opts.driver.cacheDir)
                     .lookup(fingerprintJob(spec), stored));

    // The honest report of Tp = 2000000: whatever Ts the worker holds,
    // the row and the cache entry pair Tp with the server's X.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    lease = requestLine(server.endpoint(), "lease hand");
    ASSERT_EQ(lease.rfind("ok job ", 0), 0u) << lease;
    done.payload = serve::encodeJobResult(okResult(1, 2000000, 4));
    ASSERT_EQ(requestLine(server.endpoint(), serve::serializeRequest(done)),
              "ok");
    const Streamed rows =
        streamRequest(server.endpoint(), "results camp csv nowait");
    EXPECT_EQ(rows.end, "end complete 1/1");
    EXPECT_NE(rows.body.find(",ok,3432501,2000000,"), std::string::npos)
        << rows.body;
    ASSERT_TRUE(ResultCache(opts.driver.cacheDir)
                    .lookup(fingerprintJob(spec), stored));
    EXPECT_EQ(stored.single.executionTime, 3432501u);
    EXPECT_EQ(stored.parallel.executionTime, 2000000u);
    server.stop();
}

TEST(ServeEndToEnd, LiCampaignReusesTheTianCampaignsJobs)
{
    // The stack detector is not part of a job: a Li campaign of the
    // grid a Tian campaign ran dedups onto its jobs, simulates nothing,
    // and still streams Li's stacks.
    const test::TempDir tmp("li-after-tian");
    const std::string &dir = tmp.path();
    serve::ServerOptions opts;
    opts.endpoint.path = dir + "/sock";
    opts.localWorkers = 1;
    serve::Server server(opts);
    server.start();

    const std::string tianText = "profiles = cholesky\nthreads = 4, 16\n";
    const std::string liText = tianText + "machine.stack-detector = li\n";
    std::string response;
    ASSERT_TRUE(server.submitCampaign("tian", 0, tianText, response));
    const Streamed tian =
        streamRequest(server.endpoint(), "results tian csv wait");
    EXPECT_EQ(tian.end, "end complete 2/2");
    ASSERT_TRUE(server.submitCampaign("li", 0, liText, response));
    EXPECT_EQ(response, "ok submitted li jobs=2 new=0 deduped=2 cached=0");
    const Streamed li = streamRequest(server.endpoint(), "results li csv wait");
    EXPECT_EQ(li.end, "end complete 2/2");

    for (const auto &[text, body] :
         {std::pair{tianText, tian.body}, std::pair{liText, li.body}}) {
        const std::vector<JobSpec> jobs = expandGrid(parseSpec(text));
        EXPECT_EQ(body, sweepCsv(jobs, runExperimentBatch(jobs, {})))
            << text;
    }
    EXPECT_NE(li.body, tian.body) << "the detectors agree here, so the "
                                     "test proves nothing";
    server.stop();
}

TEST(ServeEndToEnd, StopDoesNotWaitForAnExternalBaselineLease)
{
    const test::TempDir tmp("stopbaseline");
    const std::string &dir = tmp.path();
    serve::ServerOptions opts;
    opts.endpoint.path = dir + "/sock";
    opts.localWorkers = 1;
    opts.queue.leaseMs = 3600000; // the external lease never expires
    serve::Server server(opts);
    server.start();
    const auto waitUntil = [](const std::function<bool()> &pred) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (!pred()) {
            if (std::chrono::steady_clock::now() > deadline)
                return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return true;
    };

    // Keep the local worker busy (a 16-thread radix job runs for about
    // a second) so the raw client below leases the baseline first.
    const std::string busyText = "profiles = radix\nthreads = 16\n";
    std::string response;
    ASSERT_TRUE(server.submitCampaign("busy", 0, busyText, response));
    ASSERT_TRUE(
        waitUntil([&] { return server.queue().stats().leased == 1; }));
    ASSERT_TRUE(server.submitCampaign(
        "camp", 0, "profiles = cholesky\nthreads = 2, 4\n", response));
    const std::string lease = requestLine(server.endpoint(), "lease ext");
    ASSERT_EQ(lease.rfind("ok baseline ", 0), 0u) << lease;

    // The local worker finishes the busy job; the two experiments wait
    // on the external lease, which is never reported. Stopping the
    // server must not wait for it.
    ASSERT_TRUE(waitUntil([&] { return server.queue().stats().done == 1; }));
    const std::vector<JobSpec> busy =
        expandGrid(specGrid(parseSpec(busyText)));
    EXPECT_EQ(streamRequest(server.endpoint(), "results busy csv nowait")
                  .body,
              sweepCsv(busy, runExperimentBatch(busy, {})));
    std::promise<void> stopped;
    std::thread stopper([&] {
        server.stop();
        stopped.set_value();
    });
    if (stopped.get_future().wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
        ADD_FAILURE() << "Server::stop() hung on jobs waiting for an "
                         "external baseline lease";
        std::_Exit(1); // the blocked threads cannot be joined
    }
    stopper.join();
    const QueueStats stats = server.queue().stats();
    EXPECT_EQ(stats.pending, 2u);
    EXPECT_EQ(stats.baselines[static_cast<std::size_t>(
                  QueueJobState::kLeased)],
              1u);

}

TEST(ServeEndToEnd, MetricsVerbAndWorkerStatusLines)
{
    const test::TempDir tmp("metrics");
    const std::string &dir = tmp.path();
    serve::ServerOptions opts;
    opts.endpoint.path = dir + "/sock";
    opts.localWorkers = 1;
    serve::Server server(opts);
    // The registry is process-global and earlier tests ran servers too;
    // reset so this test's counts are exact. start() re-enables it.
    telemetry::Registry::global().reset();
    server.start();

    std::string response;
    ASSERT_TRUE(server.submitCampaign(
        "camp", 0, "profiles = cholesky\nthreads = 2\n", response));
    waitForSettled(server, 1);

    // The metrics verb streams the exposition: queue gauges, the
    // per-worker counters and the serve done totals must all be there.
    const Streamed metrics = streamRequest(server.endpoint(), "metrics");
    EXPECT_EQ(metrics.first, "ok metrics");
    EXPECT_EQ(metrics.end, "end");
    // The worker ran the job and its baseline job: two leases.
    EXPECT_NE(metrics.body.find("sst_serve_jobs_done_total 2\n"),
              std::string::npos)
        << metrics.body;
    EXPECT_NE(metrics.body.find(
                  "sst_serve_worker_done_total{worker=\"local-0\"} 2\n"),
              std::string::npos)
        << metrics.body;
    EXPECT_NE(metrics.body.find("sst_serve_queue_jobs{state=\"done\"} 1\n"),
              std::string::npos)
        << metrics.body;
    EXPECT_NE(metrics.body.find("# TYPE sst_sim_events_total counter"),
              std::string::npos)
        << metrics.body;

    // status now carries one line per worker with lifetime counters.
    const std::string status = server.statusText();
    EXPECT_NE(status.find("worker local-0 leases="), std::string::npos)
        << status;
    EXPECT_NE(status.find("done=2"), std::string::npos) << status;

    server.stop();
}

} // namespace
} // namespace sst
