/**
 * @file
 * Tests of the parallel experiment driver: the determinism contract
 * (worker count never changes results), serial equivalence, baseline
 * sharing, on-disk result-cache hits and invalidation, failure
 * isolation, and the sweep-grid helpers.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cache/hierarchy.hh"
#include "core/experiment.hh"
#include "driver/driver.hh"
#include "driver/fingerprint.hh"
#include "driver/result_cache.hh"
#include "driver/sweep.hh"
#include "sim/machine_keys.hh"
#include "spec/spec.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "tests/test_util.hh"
#include "util/parse.hh"

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

std::string
baselineKey(const JobSpec &spec)
{
    return fingerprintWorkloadGroupBaseline(spec.params,
                                            spec.effectiveWorkload(), 0)
        .canonical;
}

TEST(Fingerprint, BaselineSharedAcrossThreadCounts)
{
    const JobSpec a = makeJob(test::computeOnlyProfile(), 2);
    JobSpec b = a;
    b.workload.groups[0].nthreads = 16;
    EXPECT_EQ(baselineKey(a), baselineKey(b));
    EXPECT_NE(fingerprintJob(a).hash, fingerprintJob(b).hash);

    // But a parameter the 1-thread run depends on splits the baseline.
    JobSpec c = a;
    c.params.cache.llcBytes *= 2;
    EXPECT_NE(baselineKey(a), baselineKey(c));
}

TEST(Fingerprint, StackDetectorSharesTheJobAndItsBaselines)
{
    // The detector picks how a stack is built from counters every run
    // records: a Li job is the Tian job, in the cache and in the queue,
    // and its text is the default text.
    const JobSpec tian = makeJob(test::computeOnlyProfile(), 4);
    JobSpec li = tian;
    li.params.accounting.stackDetector = AccountingParams::Detector::kLi;
    EXPECT_EQ(fingerprintJob(li).canonical, fingerprintJob(tian).canonical);
    EXPECT_EQ(baselineKey(li), baselineKey(tian));
    EXPECT_NE(fingerprintJob(li).canonical.find(
                  "machine.stack-detector = tian\n"),
              std::string::npos);
    EXPECT_EQ(fingerprintJob(li).canonical.find("report."),
              std::string::npos);
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
    // With full runs kept, the in-process reference and the driver agree
    // on everything a fresh result carries: the summary, every
    // per-thread counter, the per-core cache stats and the region
    // snapshots inspect and abl_region_stacks read. The LLC size and
    // the ATD sampling factor are the machine settings llc_study and
    // abl_atd_sampling vary.
    std::vector<JobSpec> specs = {makeJob(test::lockHeavyProfile(), 4),
                                  makeJob(test::sharingProfile(), 4),
                                  makeJob(test::memoryHeavyProfile(), 4)};
    specs[1].params.cache.llcBytes = 512 * 1024;
    specs[2].params.cache.atdSamplingFactor = 8;

    DriverOptions opts;
    opts.jobs = 4;
    opts.fullRuns = true;
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

TEST(Driver, FinishedJobKeepsItsStoredForm)
{
    // By default a finished job keeps what its cache entry stores: the
    // summary, the run totals and each thread's counters. The per-core
    // stats and region snapshots are freed, the baseline's included.
    const JobSpec spec = makeJob(test::barrierHeavyProfile(), 4);
    const std::vector<JobResult> results =
        runExperimentBatch({spec}, DriverOptions{});
    ASSERT_TRUE(results[0].ok()) << results[0].error;
    const SpeedupExperiment &exp = results[0].exp;
    const SpeedupExperiment reference =
        runExperiment(spec.params, spec.workload);
    ASSERT_FALSE(reference.parallel.regions.empty());

    test::expectSameSummary(exp, reference);
    for (const auto &[kept, full] :
         {std::pair{&exp.single, &reference.single},
          std::pair{&exp.parallel, &reference.parallel}}) {
        EXPECT_EQ(kept->executionTime, full->executionTime);
        EXPECT_EQ(kept->totalInstructions, full->totalInstructions);
        EXPECT_EQ(kept->totalSpinInstructions, full->totalSpinInstructions);
        EXPECT_EQ(kept->engineEvents, full->engineEvents);
        ASSERT_EQ(kept->threads.size(), full->threads.size());
        for (std::size_t t = 0; t < full->threads.size(); ++t)
            test::expectSameCounters(kept->threads[t], full->threads[t]);
        EXPECT_TRUE(kept->cacheStats.empty());
        EXPECT_TRUE(kept->dramStats.empty());
        EXPECT_TRUE(kept->regions.empty());
    }
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

TEST(Driver, StackDetectorLiBuildsTheStackFromLisDetector)
{
    JobSpec spec = makeJob(test::lockHeavyProfile(), 4);
    spec.params.accounting.stackDetector = AccountingParams::Detector::kLi;
    DriverOptions opts;
    opts.jobs = 1;
    const std::vector<JobResult> results = runExperimentBatch({spec}, opts);
    ASSERT_TRUE(results[0].ok()) << results[0].error;
    const SpeedupExperiment &e = results[0].exp;

    // Rebuild both stacks from the job's counters: Tian's as reported
    // by default, and the same components with Li's spin cycles.
    std::vector<CycleComponents> comps =
        computeComponents(e.parallel.threads, e.tp, ReportOptions());
    const SpeedupStack tian = buildSpeedupStack(comps, e.tp);
    for (std::size_t t = 0; t < comps.size(); ++t)
        comps[t].spin =
            static_cast<double>(e.parallel.threads[t].spinDetectedLi);
    const SpeedupStack li = buildSpeedupStack(comps, e.tp);

    EXPECT_EQ(e.estimatedSpeedup, li.estimatedSpeedup);
    EXPECT_EQ(e.stack.spin, li.spin);
    EXPECT_NE(li.estimatedSpeedup, tian.estimatedSpeedup)
        << "the detectors agree here, so the test proves nothing";
}

TEST(Driver, MixedDetectorBatchSimulatesOnce)
{
    // A Tian and a Li spec of one job share its fingerprint: the batch
    // simulates once, and each row is its own spec's single-spec run.
    const JobSpec tian = makeJob(test::lockHeavyProfile(), 4);
    JobSpec li = tian;
    li.params.accounting.stackDetector = AccountingParams::Detector::kLi;
    BatchStats stats;
    const std::vector<JobResult> mixed =
        runExperimentBatch({tian, li}, DriverOptions{}, &stats);
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.deduped, 1u);
    EXPECT_EQ(stats.baselinesComputed, 1u);
    for (std::size_t i = 0; i < 2; ++i) {
        const JobSpec &spec = i == 0 ? tian : li;
        ASSERT_TRUE(mixed[i].ok()) << mixed[i].error;
        test::expectSameSummary(
            mixed[i].exp,
            runExperimentBatch({spec}, DriverOptions{})[0].exp);
    }
    EXPECT_NE(mixed[0].exp.estimatedSpeedup, mixed[1].exp.estimatedSpeedup);
}

TEST(Driver, LiStackReplaysATianCacheEntry)
{
    const test::TempDir tmp("li_from_tian");
    const std::string &dir = tmp.path();
    const JobSpec tian = makeJob(test::lockHeavyProfile(), 4);
    JobSpec li = tian;
    li.params.accounting.stackDetector = AccountingParams::Detector::kLi;
    DriverOptions opts;
    opts.cacheDir = dir;
    BatchStats stats;
    runExperimentBatch({tian}, opts, &stats);
    ASSERT_EQ(stats.executed, 1u);

    const std::vector<JobResult> warm =
        runExperimentBatch({li}, opts, &stats);
    EXPECT_EQ(stats.executed, 0u);
    EXPECT_EQ(stats.cached, 1u);
    ASSERT_TRUE(warm[0].fromCache());
    test::expectSameSummary(warm[0].exp,
                            runExperiment(li.params, li.workload));
}

TEST(Driver, ThreadsCappedAtQueuedJobs)
{
    // Two experiments sharing one baseline queue three jobs: eight
    // requested workers start three threads, and a batch served from
    // the cache queues nothing and runs on the calling thread.
    const BenchmarkProfile profile = test::computeOnlyProfile();
    const std::vector<JobSpec> specs = {makeJob(profile, 2),
                                        makeJob(profile, 4)};
    const test::TempDir tmp("threads_capped");
    const std::string &dir = tmp.path();
    DriverOptions opts;
    opts.jobs = 8;
    opts.cacheDir = dir;
    ExperimentDriver driver(opts);
    driver.runBatch(specs);
    EXPECT_EQ(driver.stats().executed, 2u);
    EXPECT_EQ(driver.stats().workers, 3);
    driver.runBatch(specs);
    EXPECT_EQ(driver.stats().cached, 2u);
    EXPECT_EQ(driver.stats().workers, 1);
}

TEST(Driver, FourJobsSharingOneBaselineComputeItOnce)
{
    // Four experiments need the same baseline: it is one queue job,
    // and the four workers lease the experiments once it is done.
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

TEST(Driver, EachBaselineIsAJobSpanOfItsOwn)
{
    // Three thread counts of one profile: one baseline job and three
    // experiment jobs, each a `job` span on a pool lane.
    const BenchmarkProfile profile = test::computeOnlyProfile();
    const std::vector<JobSpec> specs = {
        makeJob(profile, 2), makeJob(profile, 4), makeJob(profile, 8)};
    telemetry::SpanTracer &tracer = telemetry::SpanTracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    DriverOptions opts;
    opts.jobs = 2;
    BatchStats stats;
    runExperimentBatch(specs, opts, &stats);
    tracer.setEnabled(false);
    const std::string trace = tracer.chromeTraceJson();
    tracer.clear();

    const auto begins = [&trace](const std::string &name) {
        const std::string needle =
            "\"name\":\"" + name + "\",\"cat\":\"driver\",\"ph\":\"B\"";
        std::size_t n = 0;
        for (std::size_t at = trace.find(needle); at != std::string::npos;
             at = trace.find(needle, at + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(stats.baselinesComputed, 1u);
    EXPECT_EQ(begins("job"), 4u) << trace;
    EXPECT_EQ(begins("baseline"), 1u);
    EXPECT_EQ(begins("simulate"), 3u);
}

// ---- result cache ----------------------------------------------------------

TEST(Driver, SecondRunReplaysFromCache)
{
    const test::TempDir tmp("cache_hit");
    const std::string &dir = tmp.path();
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
        // The entry carries every thread's raw counters too.
        EXPECT_EQ(replay[i].exp.parallel.threads.size(), 2u);
        EXPECT_EQ(encodeExperimentRuns(replay[i].exp),
                  encodeExperimentRuns(fresh[i].exp));
    }
}

TEST(Driver, CacheInvalidatedByParameterChange)
{
    const test::TempDir tmp("cache_inval");
    const std::string &dir = tmp.path();
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
}

TEST(Driver, RefreshBypassesCacheHits)
{
    const test::TempDir tmp("cache_refresh");
    const std::string &dir = tmp.path();
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
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/** The two runs of an experiment of @p nthreads threads, every set
 *  counter distinct and the parallel totals consistent with them. */
SpeedupExperiment
runsWithThreads(int nthreads)
{
    SpeedupExperiment exp;
    exp.single.nthreads = 1;
    exp.single.ncores = 1;
    exp.single.executionTime = 1000;
    exp.single.totalInstructions = 4000;
    exp.single.totalSpinInstructions = 3;
    exp.single.engineEvents = 77;
    exp.parallel.nthreads = nthreads;
    exp.parallel.engineEvents = 88;
    exp.parallel.threads.resize(static_cast<std::size_t>(
        std::max(nthreads, 0)));
    std::uint64_t v = 1;
    for (ThreadCounters &t : exp.parallel.threads) {
        t.instructions = 1000 + v++;
        t.spinInstructions = v++;
        t.coherencyMisses = v++;
        t.gtMemWaitOther = v++;
        t.finishTime = ~std::uint64_t{0} - v++; // the full 64-bit range
    }
    // The run's totals are what the simulator derives from its threads.
    for (const ThreadCounters &t : exp.parallel.threads) {
        exp.parallel.executionTime =
            std::max(exp.parallel.executionTime, t.finishTime);
        exp.parallel.totalInstructions += t.instructions - t.spinInstructions;
        exp.parallel.totalSpinInstructions += t.spinInstructions;
    }
    return exp;
}

TEST(ResultCache, RejectsCorruptAndTruncatedEntries)
{
    const test::TempDir tmp("cache_corrupt");
    const std::string &dir = tmp.path();
    ResultCache cache(dir);
    const Fingerprint fp =
        fingerprintJob(makeJob(test::computeOnlyProfile(), 2));
    cache.store(fp, runsWithThreads(2));
    SpeedupExperiment loaded;
    ASSERT_TRUE(cache.lookup(fp, loaded));
    EXPECT_EQ(loaded.single.executionTime, 1000u);
    EXPECT_EQ(loaded.parallel.executionTime,
              runsWithThreads(2).parallel.executionTime);

    // Every proper prefix of the entry (a torn write) is a miss: the
    // magic, the hash, the canonical text, any run line or the `end`
    // sentinel cut short.
    const std::string path = cache.entryPath(fp);
    const std::string entry = readFile(path);
    for (std::size_t n = 0; n < entry.size(); ++n) {
        writeFile(path, entry.substr(0, n));
        SpeedupExperiment out = runsWithThreads(3);
        EXPECT_FALSE(cache.lookup(fp, out)) << "prefix of " << n << " bytes";
        EXPECT_EQ(out.parallel.nthreads, 3) << "a miss leaves out untouched";
    }
    writeFile(path, entry);
    EXPECT_TRUE(cache.lookup(fp, loaded));
}

/**
 * @p text with the @p nth (0-based) line starting with @p key replaced
 * by @p line.
 */
std::string
withLine(std::string text, const std::string &key, const std::string &line,
         int nth = 0)
{
    std::size_t at = 0;
    for (int seen = 0; text.compare(at, key.size(), key) != 0 || seen++ < nth;
         ++at)
        if ((at = text.find('\n', at)) == std::string::npos)
            throw std::logic_error("no line '" + key + "' to replace");
    return text.replace(at, text.find('\n', at) - at, line);
}

TEST(ResultCache, RunsCodecIsAFixedPoint)
{
    for (const int n : {1, 16, 64}) {
        const SpeedupExperiment runs = runsWithThreads(n);
        const std::string text = encodeExperimentRuns(runs);
        SpeedupExperiment decoded;
        ASSERT_TRUE(decodeExperimentRuns(text, decoded)) << n;
        test::expectSameRun(decoded.single, runs.single);
        EXPECT_EQ(decoded.single.engineEvents, runs.single.engineEvents);
        EXPECT_EQ(decoded.parallel.nthreads, n);
        EXPECT_EQ(decoded.parallel.executionTime,
                  runs.parallel.executionTime);
        EXPECT_EQ(decoded.parallel.engineEvents, runs.parallel.engineEvents);
        ASSERT_EQ(decoded.parallel.threads.size(),
                  static_cast<std::size_t>(n));
        for (std::size_t t = 0; t < runs.parallel.threads.size(); ++t)
            test::expectSameCounters(decoded.parallel.threads[t],
                                     runs.parallel.threads[t]);
        EXPECT_EQ(encodeExperimentRuns(decoded), text) << n;
    }
    // Only the runs travel: nothing derived from them is in the text.
    const std::string text = encodeExperimentRuns(runsWithThreads(2));
    for (const char *derived : {"label", "estimatedSpeedup", "error",
                                "stack.", "parOverheadMeasured"})
        EXPECT_EQ(text.find(derived), std::string::npos) << derived;
}

TEST(ResultCache, RunsCodecRejectsNonDigitsAndBadThreadCounts)
{
    const std::string text = encodeExperimentRuns(runsWithThreads(4));
    SpeedupExperiment out;
    ASSERT_TRUE(decodeExperimentRuns(text, out));
    const std::size_t at = text.find("\nthread ") + 1;
    const std::string thread = text.substr(at, text.find('\n', at) - at);
    const std::string bad[] = {
        // Integers are decimal digits only, within their type: the
        // baseline's lines come first, then the parallel run's. The
        // edits land on lines no consistency check reads (the
        // baseline's totals, `events`), so only the parse can refuse.
        withLine(text, "nthreads ", "nthreads 4294967300"),
        withLine(text, "cycles ", "cycles -1"),
        withLine(text, "cycles ", "cycles  +5"),
        withLine(text, "cycles ", "cycles +5"),
        withLine(text, "cycles ", "cycles 5 "),
        withLine(text, "events ", "events 5 ", 1),
        withLine(text, "events ", "events ", 1),
        withLine(text, "nthreads ", "nthreads 2147483648"),
        withLine(text, "instructions ", "instructions 18446744073709551616"),
        withLine(text, "events ", "events 18446744073709551616", 1),
        withLine(text, "thread ", "thread -1" + thread.substr(8)),
        // nthreads lies in 1..kMaxSimCores, thread lines or not.
        encodeExperimentRuns(runsWithThreads(0)),
        encodeExperimentRuns(runsWithThreads(kMaxSimCores + 1)),
        withLine(text, "nthreads ", "nthreads 1000000000"),
        // One thread line per thread...
        withLine(text, "nthreads ", "nthreads 3"),
        withLine(text, "nthreads ", "nthreads 5"),
        // ...of exactly 23 counters.
        withLine(text, "thread ", thread.substr(0, thread.rfind(' '))),
        withLine(text, "thread ", thread + " 7"),
        withLine(text, "thread ", thread + " "),
        // Each run has all four totals, in order.
        withLine(text, "events ", "spin-instructions 1", 1),
        withLine(text, "cycles ", "instructions 1"),
        // Nothing after `end`.
        text + "end\n",
    };
    for (const std::string &t : bad) {
        SpeedupExperiment rejected = out;
        EXPECT_FALSE(decodeExperimentRuns(t, rejected)) << t;
        EXPECT_EQ(encodeExperimentRuns(rejected), text)
            << "a rejected decode leaves its output untouched";
    }
}

TEST(ResultCache, OlderVersionEntriesAreHealedMisses)
{
    const test::TempDir tmp("cache_old");
    const std::string &dir = tmp.path();
    const std::vector<JobSpec> specs = {
        makeJob(test::computeOnlyProfile(), 2)};
    DriverOptions opts;
    opts.cacheDir = dir;
    BatchStats stats;
    runExperimentBatch(specs, opts, &stats);
    ASSERT_EQ(stats.executed, 1u);

    const std::string path =
        ResultCache(dir).entryPath(fingerprintJob(specs[0]));
    const std::string entry = readFile(path);
    const std::string current = "sst-result-cache v3\n";
    ASSERT_EQ(entry.rfind(current, 0), 0u);
    for (const char *old : {"sst-result-cache v1\n", "sst-result-cache v2\n"}) {
        SCOPED_TRACE(old);
        writeFile(path, old + entry.substr(current.size()));

        telemetry::Registry::global().reset();
        telemetry::Registry::global().setEnabled(true);
        runExperimentBatch(specs, opts, &stats);
        const std::string metrics =
            telemetry::Registry::global().renderText();
        telemetry::Registry::global().reset();
        EXPECT_EQ(stats.executed, 1u);
        EXPECT_EQ(stats.cached, 0u);
        EXPECT_NE(metrics.find("sst_driver_cache_heals_total 1\n"),
                  std::string::npos)
            << metrics;

        // The re-executed job overwrote the entry in the current layout.
        EXPECT_EQ(readFile(path), entry);
        runExperimentBatch(specs, opts, &stats);
        EXPECT_EQ(stats.cached, 1u);
    }
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

/** A machine value the simulator cannot run, and the key to blame. */
struct BadMachineValue
{
    const char *key;
    const char *value;
};

class DriverRefusesMachineValue
    : public ::testing::TestWithParam<BadMachineValue>
{
};

// Each of these would end the whole process (a panic, SIGFPE, SIGSEGV,
// a livelock, or gigabytes of bus timeline), taking every other job of
// a batch or a server with it.
TEST_P(DriverRefusesMachineValue, FailsTheJobNamingTheKey)
{
    const BadMachineValue bad = GetParam();
    JobSpec job = makeJob(test::computeOnlyProfile(), 2);
    setMachineValue(job.params, *findMachineKey(bad.key), bad.value);
    const std::vector<JobResult> results =
        runExperimentBatch({job}, DriverOptions{});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok());
    EXPECT_NE(results[0].error.find(std::string("machine.") + bad.key),
              std::string::npos)
        << results[0].error;
}

INSTANTIATE_TEST_SUITE_P(
    Keys, DriverRefusesMachineValue,
    ::testing::Values(BadMachineValue{"llc-ways", "0"},
                      BadMachineValue{"llc-ways", "65"},
                      BadMachineValue{"l1-ways", "3"},
                      BadMachineValue{"llc-bytes", "1000"},
                      BadMachineValue{"atd-sampling-factor", "3"},
                      BadMachineValue{"atd-sampling-factor", "0"},
                      BadMachineValue{"dram-banks", "0"},
                      BadMachineValue{"dram-data-cycles", "4097"},
                      BadMachineValue{"dram-row-conflict-cycles",
                                      "1000000000"},
                      BadMachineValue{"dram-row-bytes", "32"},
                      BadMachineValue{"dispatch-width", "0"},
                      BadMachineValue{"tian-table-entries", "0"},
                      BadMachineValue{"li-table-entries", "0"},
                      BadMachineValue{"spin-check-cycles", "0"},
                      BadMachineValue{"time-slice-cycles", "0"}));

TEST(Driver, AcceptsEveryWayCountUpToTheBound)
{
    SimParams params;
    EXPECT_NO_THROW(validateMachine(params));
    params.cache.llcWays = 64; // 2M / 64 B / 64 ways = 512 sets
    params.cache.l1Ways = 1;
    EXPECT_NO_THROW(validateMachine(params));
}

// A bus that costs nothing is an ablation, not a fault.
TEST(Driver, RunsZeroCycleBusTransfers)
{
    JobSpec job = makeJob(test::memoryHeavyProfile(), 4);
    setMachineValue(job.params, *findMachineKey("dram-bus-cycles"), "0");
    setMachineValue(job.params, *findMachineKey("dram-data-cycles"), "0");
    const std::vector<JobResult> results =
        runExperimentBatch({job}, DriverOptions{});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok()) << results[0].error;
}

// ---- grid expansion and export ---------------------------------------------

TEST(Sweep, ExpandGridIsProfileMajorCrossProduct)
{
    ExperimentSpec grid;
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
    ExperimentSpec grid;
    grid.profiles = {"definitely-not-a-benchmark"};
    EXPECT_THROW(expandGrid(grid), std::invalid_argument);
}

TEST(Sweep, ExpandGridAcceptsBareNamesLikeProfileByLabel)
{
    ExperimentSpec grid;
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
    ExperimentSpec grid;
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
