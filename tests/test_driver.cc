/**
 * @file
 * Tests of the parallel experiment driver: the determinism contract
 * (worker count never changes results), serial equivalence, baseline
 * sharing, on-disk result-cache hits and invalidation, failure
 * isolation, and the sweep-grid helpers.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <gtest/gtest.h>
#include <stdexcept>
#include <thread>

#include "core/experiment.hh"
#include "driver/baseline_store.hh"
#include "driver/driver.hh"
#include "driver/fingerprint.hh"
#include "driver/result_cache.hh"
#include "driver/sweep.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "tests/test_util.hh"

namespace sst {
namespace {

JobSpec
makeJob(const BenchmarkProfile &profile, int nthreads)
{
    return JobSpec::forProfile(profile, nthreads);
}

/** A small mixed batch exercising compute, locks, barriers, sharing. */
std::vector<JobSpec>
smallBatch()
{
    return {makeJob(test::computeOnlyProfile(), 2),
            makeJob(test::lockHeavyProfile(), 4),
            makeJob(test::barrierHeavyProfile(), 2),
            makeJob(test::sharingProfile(), 2)};
}

std::string
freshTempDir(const char *name)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "sst_driver_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

// ---- fingerprints ----------------------------------------------------------

TEST(Fingerprint, SensitiveToEveryJobAxis)
{
    const JobSpec base = makeJob(test::computeOnlyProfile(), 4);
    const std::uint64_t h0 = fingerprintJob(base).hash;

    JobSpec t = base;
    t.workload.groups[0].nthreads = 8;
    EXPECT_NE(fingerprintJob(t).hash, h0);

    JobSpec p = base;
    p.params.cache.llcBytes *= 2;
    EXPECT_NE(fingerprintJob(p).hash, h0);

    JobSpec s = base;
    s.seedOffset = 1;
    EXPECT_NE(fingerprintJob(s).hash, h0);

    JobSpec w = base;
    w.workload.groups[0].profile.totalIters += 1;
    EXPECT_NE(fingerprintJob(w).hash, h0);
}

TEST(Fingerprint, BaselineSharedAcrossThreadCounts)
{
    const JobSpec a = makeJob(test::computeOnlyProfile(), 2);
    JobSpec b = a;
    b.workload.groups[0].nthreads = 16;
    EXPECT_EQ(fingerprintBaseline(a).canonical,
              fingerprintBaseline(b).canonical);
    EXPECT_NE(fingerprintJob(a).hash, fingerprintJob(b).hash);

    // But a parameter the 1-thread run depends on splits the baseline.
    JobSpec c = a;
    c.params.cache.llcBytes *= 2;
    EXPECT_NE(fingerprintBaseline(a).canonical,
              fingerprintBaseline(c).canonical);
}

TEST(Fingerprint, SeedDerivationIsIdentityAtOffsetZero)
{
    EXPECT_EQ(deriveJobSeed(42, 0), 42u);
    EXPECT_NE(deriveJobSeed(42, 1), 42u);
    EXPECT_NE(deriveJobSeed(42, 1), deriveJobSeed(42, 2));
}

// ---- determinism -----------------------------------------------------------

TEST(Driver, ResultsIdenticalAcrossWorkerCounts)
{
    const std::vector<JobSpec> specs = smallBatch();

    DriverOptions serial;
    serial.jobs = 1;
    const std::vector<JobResult> r1 = runExperimentBatch(specs, serial);

    DriverOptions parallel;
    parallel.jobs = 8;
    const std::vector<JobResult> r8 = runExperimentBatch(specs, parallel);

    ASSERT_EQ(r1.size(), specs.size());
    ASSERT_EQ(r8.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(r1[i].ok()) << r1[i].error;
        ASSERT_TRUE(r8[i].ok()) << r8[i].error;
        test::expectSameExperiment(r1[i].exp, r8[i].exp);
    }
}

TEST(Driver, MatchesRunExperiment)
{
    // The in-process reference and the driver agree on everything a
    // fresh result carries: the summary, every per-thread counter, the
    // per-core cache stats and the region snapshots the ablation benches
    // and inspect read. The LLC size and the ATD sampling factor are
    // the machine settings llc_study and abl_atd_sampling vary.
    std::vector<JobSpec> specs = {makeJob(test::lockHeavyProfile(), 4),
                                  makeJob(test::sharingProfile(), 4),
                                  makeJob(test::memoryHeavyProfile(), 4)};
    specs[1].params.cache.llcBytes = 512 * 1024;
    specs[2].params.cache.atdSamplingFactor = 8;

    DriverOptions opts;
    opts.jobs = 4;
    const std::vector<JobResult> results = runExperimentBatch(specs, opts);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].label());
        ASSERT_TRUE(results[i].ok()) << results[i].error;
        ASSERT_FALSE(results[i].fromCache());
        test::expectSameExperiment(
            results[i].exp,
            runExperiment(specs[i].params, specs[i].workload));
        EXPECT_FALSE(results[i].exp.parallel.threads.empty());
        EXPECT_FALSE(results[i].exp.parallel.cacheStats.empty());
    }
    EXPECT_FALSE(results[1].exp.parallel.regions.empty());

    // Neither setting is dropped on the way: each changes the run.
    const SpeedupExperiment llc_default =
        runExperiment(SimParams{}, specs[1].workload);
    EXPECT_NE(results[1].exp.tp, llc_default.tp);
    const SpeedupExperiment atd_default =
        runExperiment(SimParams{}, specs[2].workload);
    auto atdSamples = [](const SpeedupExperiment &e) {
        return e.parallel.sumThreads([](const ThreadCounters &t) {
            return t.atdSampledAccesses;
        });
    };
    EXPECT_NE(atdSamples(results[2].exp), atdSamples(atd_default));
}

TEST(Driver, SeedOffsetSelectsDistinctStream)
{
    // Memory-heavy: the DRAM row/bank schedule depends on the random
    // address stream, so a different RNG stream must shift the timing.
    JobSpec a = makeJob(test::memoryHeavyProfile(), 2);
    JobSpec b = a;
    b.seedOffset = 1;

    const std::vector<JobResult> results =
        runExperimentBatch({a, b}, DriverOptions{});
    ASSERT_TRUE(results[0].ok());
    ASSERT_TRUE(results[1].ok());
    EXPECT_TRUE(results[0].exp.ts != results[1].exp.ts ||
                results[0].exp.tp != results[1].exp.tp);
}

// ---- baseline sharing ------------------------------------------------------

TEST(Driver, BaselineComputedOncePerProfile)
{
    const BenchmarkProfile profile = test::computeOnlyProfile();
    const std::vector<JobSpec> specs = {
        makeJob(profile, 2), makeJob(profile, 4), makeJob(profile, 8)};

    DriverOptions opts;
    opts.jobs = 4;
    ExperimentDriver driver(opts);
    const std::vector<JobResult> results = driver.runBatch(specs);

    EXPECT_EQ(driver.stats().baselinesComputed, 1u);
    ASSERT_TRUE(results[0].ok());
    ASSERT_TRUE(results[1].ok());
    ASSERT_TRUE(results[2].ok());
    EXPECT_EQ(results[0].exp.ts, results[1].exp.ts);
    EXPECT_EQ(results[1].exp.ts, results[2].exp.ts);
}

TEST(Driver, FourJobsSharingOneBaselineComputeItOnce)
{
    // Grid order puts the thread counts of one profile next to each
    // other, so four workers lease four jobs that all need the same
    // baseline at once: one computes it, three defer it.
    const BenchmarkProfile profile = test::computeOnlyProfile();
    const std::vector<JobSpec> specs = {
        makeJob(profile, 2), makeJob(profile, 4), makeJob(profile, 8),
        makeJob(profile, 16)};

    DriverOptions serialOpts;
    serialOpts.jobs = 1;
    const std::vector<JobResult> serial =
        runExperimentBatch(specs, serialOpts);

    DriverOptions opts;
    opts.jobs = 4;
    BatchStats stats;
    const std::vector<JobResult> pooled =
        runExperimentBatch(specs, opts, &stats);
    EXPECT_EQ(stats.baselinesComputed, 1u);
    EXPECT_EQ(stats.executed, 4u);
    EXPECT_EQ(sweepCsv(specs, pooled), sweepCsv(specs, serial));
}

// ---- BaselineStore (claim-or-defer) ----------------------------------------

std::shared_ptr<const RunResult>
baselineRun(Cycles ts)
{
    RunResult run;
    run.nthreads = 1;
    run.ncores = 1;
    run.executionTime = ts;
    return std::make_shared<const RunResult>(run);
}

TEST(BaselineStore, OneOwnerPerKey)
{
    LocalBaselineStore store;
    EXPECT_EQ(store.claim({1, 0, "k1"}).claim,
              BaselineTicket::Claim::kCompute);
    EXPECT_EQ(store.claim({2, 0, "k1"}).claim,
              BaselineTicket::Claim::kPending);
    EXPECT_EQ(store.claim({2, 0, "k2"}).claim,
              BaselineTicket::Claim::kCompute);

    // Concurrent claimers of one fresh key: exactly one owner.
    std::atomic<int> owners{0};
    std::vector<std::thread> threads;
    for (std::uint64_t job = 10; job < 18; ++job)
        threads.emplace_back([&store, &owners, job] {
            if (store.claim({job, 0, "k3"}).claim ==
                BaselineTicket::Claim::kCompute)
                ++owners;
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(owners.load(), 1);
}

TEST(BaselineStore, PendingBecomesHaveAfterPublish)
{
    LocalBaselineStore store;
    ASSERT_EQ(store.claim({1, 0, "k"}).claim,
              BaselineTicket::Claim::kCompute);
    ASSERT_EQ(store.claim({2, 0, "k"}).claim,
              BaselineTicket::Claim::kPending);

    BaselineTicket awaited;
    std::thread waiter([&] { awaited = store.await({2, 0, "k"}); });
    const std::shared_ptr<const RunResult> run = baselineRun(1234);
    store.publish({1, 0, "k"}, run);
    waiter.join();
    EXPECT_EQ(awaited.claim, BaselineTicket::Claim::kHave);
    EXPECT_EQ(awaited.run, run);

    const BaselineTicket later = store.claim({3, 0, "k"});
    EXPECT_EQ(later.claim, BaselineTicket::Claim::kHave);
    EXPECT_EQ(later.run->executionTime, 1234u);
}

TEST(BaselineStore, OwnerExceptionReachesEveryAwaiter)
{
    LocalBaselineStore store;
    ASSERT_EQ(store.claim({1, 0, "k"}).claim,
              BaselineTicket::Claim::kCompute);
    std::atomic<int> failures{0};
    std::vector<std::thread> waiters;
    for (std::uint64_t job = 2; job < 5; ++job)
        waiters.emplace_back([&store, &failures, job] {
            try {
                store.await({job, 0, "k"});
            } catch (const std::runtime_error &e) {
                if (std::string(e.what()) == "boom")
                    ++failures;
            }
        });
    store.abandon({1, 0, "k"},
                  std::make_exception_ptr(std::runtime_error("boom")));
    for (std::thread &t : waiters)
        t.join();
    EXPECT_EQ(failures.load(), 3);
    // Later claimers see the failure too instead of recomputing.
    EXPECT_THROW(store.claim({9, 0, "k"}), std::runtime_error);
}

TEST(BaselineStore, ReleasedClaimIsRegranted)
{
    LocalBaselineStore store;
    ASSERT_EQ(store.claim({1, 0, "k"}).claim,
              BaselineTicket::Claim::kCompute);
    ASSERT_EQ(store.claim({1, 1, "other"}).claim,
              BaselineTicket::Claim::kCompute);
    store.publish({1, 1, "other"}, baselineRun(5));

    BaselineTicket awaited;
    std::thread waiter([&] { awaited = store.await({2, 0, "k"}); });
    // Job 1 vanishes: only its unpublished claim is released, and the
    // blocked awaiter becomes the new owner.
    EXPECT_EQ(store.release(1), 1u);
    waiter.join();
    EXPECT_EQ(awaited.claim, BaselineTicket::Claim::kCompute);
    EXPECT_EQ(store.claim({3, 0, "k"}).claim,
              BaselineTicket::Claim::kPending);
    EXPECT_EQ(store.claim({3, 0, "other"}).claim,
              BaselineTicket::Claim::kHave);
    EXPECT_EQ(store.release(1), 0u);

    // The vanished owner's late reports cannot touch the new owner's
    // slot: its publish is refused and its failure ignored.
    EXPECT_FALSE(store.publish({1, 0, "k"}, baselineRun(7)));
    store.abandon({1, 0, "k"},
                  std::make_exception_ptr(std::runtime_error("late")));
    EXPECT_EQ(store.claim({3, 0, "k"}).claim,
              BaselineTicket::Claim::kPending);
    EXPECT_TRUE(store.publish({2, 0, "k"}, baselineRun(8)));
    EXPECT_EQ(store.claim({3, 0, "k"}).run->executionTime, 8u);

    // A publish to a released, unclaimed slot is accepted.
    ASSERT_EQ(store.claim({4, 0, "free"}).claim,
              BaselineTicket::Claim::kCompute);
    EXPECT_EQ(store.release(4), 1u);
    EXPECT_TRUE(store.publish({5, 0, "free"}, baselineRun(9)));
    EXPECT_EQ(store.claim({6, 0, "free"}).claim,
              BaselineTicket::Claim::kHave);
}

TEST(BaselineStore, ReleasedSlotIsRegrantedWithoutItsError)
{
    LocalBaselineStore store;
    ASSERT_EQ(store.claim({1, 0, "k"}).claim,
              BaselineTicket::Claim::kCompute);
    ASSERT_EQ(store.claim({1, 1, "other"}).claim,
              BaselineTicket::Claim::kCompute);

    // The owner's own input was bad: it gives one slot up, and the
    // blocked awaiter becomes the new owner instead of inheriting a
    // failure. The owner's other claim stays.
    BaselineTicket awaited;
    std::thread waiter([&] { awaited = store.await({2, 0, "k"}); });
    store.release({1, 0, "k"});
    waiter.join();
    EXPECT_EQ(awaited.claim, BaselineTicket::Claim::kCompute);
    EXPECT_EQ(store.claim({3, 1, "other"}).claim,
              BaselineTicket::Claim::kPending);

    // Only the owner releases: the old owner's late release is ignored.
    store.release({1, 0, "k"});
    EXPECT_EQ(store.claim({3, 0, "k"}).claim,
              BaselineTicket::Claim::kPending);
    EXPECT_TRUE(store.publish({2, 0, "k"}, baselineRun(4)));
    EXPECT_EQ(store.claim({3, 0, "k"}).run->executionTime, 4u);
}

TEST(BaselineStore, ReleaseAllFreesEveryAwaiter)
{
    LocalBaselineStore store;
    ASSERT_EQ(store.claim({1, 0, "a"}).claim,
              BaselineTicket::Claim::kCompute);
    ASSERT_EQ(store.claim({2, 0, "b"}).claim,
              BaselineTicket::Claim::kCompute);
    ASSERT_EQ(store.claim({3, 0, "done"}).claim,
              BaselineTicket::Claim::kCompute);
    ASSERT_TRUE(store.publish({3, 0, "done"}, baselineRun(1)));

    // Owners that will never publish (shutdown): every awaiter wakes
    // as the new owner, and published runs stay.
    BaselineTicket awaitedA;
    BaselineTicket awaitedB;
    std::thread waiterA([&] { awaitedA = store.await({4, 0, "a"}); });
    std::thread waiterB([&] { awaitedB = store.await({5, 0, "b"}); });
    EXPECT_EQ(store.releaseAll(), 2u);
    waiterA.join();
    waiterB.join();
    EXPECT_EQ(awaitedA.claim, BaselineTicket::Claim::kCompute);
    EXPECT_EQ(awaitedB.claim, BaselineTicket::Claim::kCompute);
    EXPECT_EQ(store.claim({6, 0, "done"}).claim,
              BaselineTicket::Claim::kHave);
}

TEST(BaselineStore, DeferredJobRunsFirstAndWaitsInItsOwnSpan)
{
    // Another job owns the baseline: the executor defers it, runs the
    // parallel simulation, and only then blocks for it.
    const JobSpec spec = makeJob(test::computeOnlyProfile(), 4);
    const WorkloadSpec workload = spec.effectiveWorkload();
    const BaselineSlot owner{99, 0,
                             fingerprintWorkloadGroupBaseline(
                                 spec.params, workload, 0)
                                 .canonical};
    LocalBaselineStore store;
    ASSERT_EQ(store.claim(owner).claim, BaselineTicket::Claim::kCompute);

    telemetry::Registry &registry = telemetry::Registry::global();
    telemetry::SpanTracer &tracer = telemetry::SpanTracer::global();
    registry.reset();
    registry.setEnabled(true);
    tracer.clear();
    tracer.setEnabled(true);

    JobExecutor executor(DriverOptions{}, nullptr, store);
    JobResult result;
    std::thread job([&] { result = executor.run(spec, 1); });
    // Publish only once the job is blocked after its parallel run.
    const std::string waiting =
        "sst_driver_baseline_requests_total{outcome=\"wait\"} 1\n";
    while (registry.renderText().find(waiting) == std::string::npos)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    store.publish(owner,
                  std::make_shared<const RunResult>(simulateSources(
                      spec.params,
                      workloadGroupBaselineSources(workload, 0), 1)));
    job.join();

    tracer.setEnabled(false);
    const std::string trace = tracer.chromeTraceJson();
    const std::string metrics = registry.renderText();
    tracer.clear();
    registry.reset();

    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(executor.baselinesComputed(), 0u);
    EXPECT_NE(metrics.find("sst_driver_baseline_requests_total{outcome="
                           "\"deferred\"} 1\n"),
              std::string::npos)
        << metrics;
    EXPECT_NE(trace.find("\"baseline-wait\""), std::string::npos);
    EXPECT_EQ(trace.find("\"baseline\""), std::string::npos)
        << "a job that computed no baseline has no baseline span";

    const std::vector<JobResult> reference =
        runExperimentBatch({spec}, DriverOptions{});
    test::expectSameExperiment(result.exp, reference[0].exp);
}

// ---- result cache ----------------------------------------------------------

TEST(Driver, SecondRunReplaysFromCache)
{
    const std::string dir = freshTempDir("cache_hit");
    const std::vector<JobSpec> specs = {
        makeJob(test::computeOnlyProfile(), 2),
        makeJob(test::lockHeavyProfile(), 2)};

    DriverOptions opts;
    opts.jobs = 2;
    opts.cacheDir = dir;

    BatchStats first;
    const std::vector<JobResult> fresh =
        runExperimentBatch(specs, opts, &first);
    EXPECT_EQ(first.executed, 2u);
    EXPECT_EQ(first.cached, 0u);

    BatchStats second;
    const std::vector<JobResult> replay =
        runExperimentBatch(specs, opts, &second);
    EXPECT_EQ(second.executed, 0u);
    EXPECT_EQ(second.cached, 2u);
    EXPECT_EQ(second.baselinesComputed, 0u);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(replay[i].fromCache());
        test::expectSameSummary(replay[i].exp, fresh[i].exp);
    }
    std::filesystem::remove_all(dir);
}

TEST(Driver, CacheInvalidatedByParameterChange)
{
    const std::string dir = freshTempDir("cache_inval");
    std::vector<JobSpec> specs = {makeJob(test::computeOnlyProfile(), 2)};

    DriverOptions opts;
    opts.cacheDir = dir;

    BatchStats stats;
    runExperimentBatch(specs, opts, &stats);
    EXPECT_EQ(stats.executed, 1u);

    // Any simulation-relevant change must miss...
    specs[0].params.cache.llcBytes *= 2;
    runExperimentBatch(specs, opts, &stats);
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.cached, 0u);

    // ...and the original configuration must still hit.
    specs[0].params.cache.llcBytes /= 2;
    runExperimentBatch(specs, opts, &stats);
    EXPECT_EQ(stats.cached, 1u);
    std::filesystem::remove_all(dir);
}

TEST(Driver, RefreshBypassesCacheHits)
{
    const std::string dir = freshTempDir("cache_refresh");
    const std::vector<JobSpec> specs = {
        makeJob(test::computeOnlyProfile(), 2)};

    DriverOptions opts;
    opts.cacheDir = dir;
    BatchStats stats;
    runExperimentBatch(specs, opts, &stats);
    EXPECT_EQ(stats.executed, 1u);

    opts.refresh = true;
    runExperimentBatch(specs, opts, &stats);
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.cached, 0u);
    std::filesystem::remove_all(dir);
}

TEST(ResultCache, RejectsCorruptAndTruncatedEntries)
{
    const std::string dir = freshTempDir("cache_corrupt");
    ResultCache cache(dir);
    const Fingerprint fp =
        fingerprintJob(makeJob(test::computeOnlyProfile(), 2));

    SpeedupExperiment exp;
    exp.label = "t";
    exp.nthreads = 2;
    exp.ts = 100;
    exp.tp = 60;
    exp.actualSpeedup = 100.0 / 60.0;
    cache.store(fp, exp);

    SpeedupExperiment loaded;
    ASSERT_TRUE(cache.lookup(fp, loaded));
    EXPECT_EQ(loaded.ts, 100u);
    EXPECT_EQ(loaded.actualSpeedup, exp.actualSpeedup);

    // Truncate the file: the missing `end` sentinel must fail lookup.
    {
        std::string path = cache.entryPath(fp);
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        ASSERT_FALSE(ec);
        std::filesystem::resize_file(path, size - 5, ec);
        ASSERT_FALSE(ec);
    }
    EXPECT_FALSE(cache.lookup(fp, loaded));
    std::filesystem::remove_all(dir);
}

// ---- failure isolation -----------------------------------------------------

TEST(Driver, OneBadJobDoesNotPoisonTheBatch)
{
    std::vector<JobSpec> specs = smallBatch();
    JobSpec bad = makeJob(test::computeOnlyProfile(), 0); // invalid
    specs.insert(specs.begin() + 1, bad);

    DriverOptions opts;
    opts.jobs = 4;
    BatchStats stats;
    const std::vector<JobResult> results =
        runExperimentBatch(specs, opts, &stats);

    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.executed, specs.size() - 1);
    EXPECT_FALSE(results[1].ok());
    EXPECT_NE(results[1].error.find("nthreads"), std::string::npos);
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i == 1)
            continue;
        EXPECT_TRUE(results[i].ok()) << i << ": " << results[i].error;
        EXPECT_GT(results[i].exp.actualSpeedup, 0.0);
    }
}

TEST(Driver, EmptyProfileFailsCleanly)
{
    BenchmarkProfile empty;
    empty.name = "t-empty";
    const std::vector<JobResult> results =
        runExperimentBatch({makeJob(empty, 2)}, DriverOptions{});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok());
    EXPECT_NE(results[0].error.find("totalIters"), std::string::npos);
}

// ---- sweep grids and export ------------------------------------------------

TEST(Sweep, ExpandGridIsProfileMajorCrossProduct)
{
    SweepGrid grid;
    grid.profiles = {"cholesky", "radix"};
    grid.threads = {2, 4};
    grid.llcBytes = {1u << 20, 2u << 20};

    const std::vector<JobSpec> jobs = expandGrid(grid);
    ASSERT_EQ(jobs.size(), 8u);
    EXPECT_EQ(jobs[0].label(), "cholesky");
    EXPECT_EQ(jobs[3].label(), "cholesky");
    EXPECT_EQ(jobs[4].label(), "radix");
    EXPECT_EQ(jobs[0].nthreads(), 2);
    EXPECT_EQ(jobs[0].params.cache.llcBytes, 1u << 20);
    EXPECT_EQ(jobs[1].params.cache.llcBytes, 2u << 20);
    EXPECT_EQ(jobs[2].nthreads(), 4);
}

TEST(Sweep, ExpandGridRejectsUnknownLabel)
{
    SweepGrid grid;
    grid.profiles = {"definitely-not-a-benchmark"};
    EXPECT_THROW(expandGrid(grid), std::invalid_argument);
}

TEST(Sweep, ExpandGridAcceptsBareNamesLikeProfileByLabel)
{
    SweepGrid grid;
    grid.profiles = {"facesim"}; // bare name, no _small/_medium suffix
    const std::vector<JobSpec> jobs = expandGrid(grid);
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].workload.groups[0].profile.name, "facesim");
    EXPECT_EQ(jobs[0].label(), profileByLabel("facesim").label());
}

TEST(Sweep, ListParsers)
{
    EXPECT_EQ(parseIntList("2,4,8,16"), (std::vector<int>{2, 4, 8, 16}));
    EXPECT_THROW(parseIntList("2,,4"), std::invalid_argument);
    EXPECT_THROW(parseIntList("2,x"), std::invalid_argument);

    EXPECT_EQ(parseSize("4096"), 4096u);
    EXPECT_EQ(parseSize("512K"), 512u * 1024);
    EXPECT_EQ(parseSize("2M"), 2u * 1024 * 1024);
    EXPECT_EQ(parseSize("1g"), 1024ull * 1024 * 1024);
    EXPECT_THROW(parseSize("M"), std::invalid_argument);
    EXPECT_THROW(parseSize(""), std::invalid_argument);

    EXPECT_EQ(parseSizeList("1M,2M"),
              (std::vector<std::uint64_t>{1u << 20, 2u << 20}));

    EXPECT_EQ(parseLabelList("a,b"), (std::vector<std::string>{"a", "b"}));
    EXPECT_THROW(parseLabelList("a,,b"), std::invalid_argument);
}

TEST(Sweep, CsvAndJsonExport)
{
    SweepGrid grid;
    grid.profiles = {"cholesky"};
    grid.threads = {2};
    const std::vector<JobSpec> specs = expandGrid(grid);

    DriverOptions opts;
    const std::vector<JobResult> results =
        runExperimentBatch(specs, opts);

    const std::string csv = sweepCsv(specs, results);
    EXPECT_NE(csv.find(sweepCsvHeader()), std::string::npos);
    EXPECT_NE(csv.find("cholesky,splash2,2,"), std::string::npos);
    // header + one row + trailing newline
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);

    const std::string json = sweepJson(specs, results);
    EXPECT_NE(json.find("\"benchmark\": \"cholesky\""),
              std::string::npos);
    EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
}

} // namespace
} // namespace sst
