/**
 * @file
 * Tests of the per-thread WorkloadSpec refactor. The load-bearing
 * properties:
 *
 *  - WorkloadSpec::homogeneous() is bit-identical to the pre-refactor
 *    stack: golden Ts/Tp anchors, exact equality with the historical
 *    entry points, and byte-identical result-cache fingerprints
 *    (hexes captured from the pre-refactor build).
 *  - Mixes are deterministic, conserve each program's work, and are
 *    normalized against the sum of the per-program 1-thread baselines
 *    (the paper's per-program methodology).
 *  - Pipeline stage imbalance surfaces as synchronization time with
 *    the expected component ordering (yield-dominated, like ferret).
 *  - v2 trace containers keep replaying as homogeneous workloads, and
 *    the v3 compatibility check rejects per-thread-profile mismatches.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>

#include "core/experiment.hh"
#include "driver/driver.hh"
#include "driver/fingerprint.hh"
#include "driver/sweep.hh"
#include "spec/spec.hh"
#include "tests/test_util.hh"
#include "trace/trace_run.hh"
#include "workload/workload_spec.hh"

namespace sst {
namespace {

/** Two dissimilar co-runnable programs for mix tests. */
WorkloadSpec
smallMix()
{
    return WorkloadSpec::mix(
        {WorkloadGroup{test::computeOnlyProfile(), 2},
         WorkloadGroup{test::memoryHeavyProfile(), 2}});
}

/** A strongly imbalanced two-stage pipeline: the heavy stage carries
 *  8x the light stage's work, so the light stage parks on every phase
 *  barrier. */
WorkloadSpec
imbalancedPipeline()
{
    BenchmarkProfile light = test::computeOnlyProfile();
    light.name = "t-light";
    light.totalIters = 500;
    light.barrierPhases = 8;
    BenchmarkProfile heavy = test::computeOnlyProfile();
    heavy.name = "t-heavy";
    heavy.totalIters = 4000;
    heavy.barrierPhases = 8;
    return WorkloadSpec::pipeline(
        {WorkloadGroup{light, 2}, WorkloadGroup{heavy, 2}});
}

// ---- homogeneous path: bit-identical to the pre-refactor stack -------------

struct Golden
{
    const char *label;
    int nthreads;
    Cycles ts;
    Cycles tp;
};

/** Same anchors as tests/test_sched.cc: exact pre-refactor cycles. */
constexpr Golden kGolden[] = {
    {"cholesky", 1, 3432501, 3432501},
    {"cholesky", 4, 3432501, 1077672},
    {"cholesky", 16, 3432501, 640758},
    {"fft", 1, 1963196, 1963196},
    {"fft", 4, 1963196, 527328},
    {"lu.cont", 1, 3227759, 3227759},
    {"lu.cont", 4, 3227759, 893794},
    {"lu.cont", 16, 3227759, 558743},
    {"fft", 16, 1963196, 207740},
};

TEST(WorkloadHomogeneous, MatchesPreRefactorGoldens)
{
    for (const Golden &g : kGolden) {
        const WorkloadSpec spec = WorkloadSpec::homogeneous(
            profileByLabel(g.label), g.nthreads);
        const SpeedupExperiment e = runExperiment(SimParams{}, spec);
        EXPECT_EQ(e.ts, g.ts) << g.label << " x" << g.nthreads;
        EXPECT_EQ(e.tp, g.tp) << g.label << " x" << g.nthreads;
    }
}

TEST(WorkloadHomogeneous, FingerprintsPreservedAcrossRefactor)
{
    // Hexes captured from the pre-WorkloadSpec build (fingerprint v3):
    // existing result-cache entries and baseline sharing must survive.
    JobSpec j16 = JobSpec::forProfile(profileByLabel("cholesky"), 16);
    EXPECT_EQ(fingerprintJob(j16).hex(), "0968471822c93cec");
    EXPECT_EQ(fingerprintWorkloadGroupBaseline(
                  j16.params, j16.effectiveWorkload(), 0)
                  .hex(),
              "f721ebd444707c80");
    const JobSpec j4 = JobSpec::forProfile(profileByLabel("cholesky"), 4);
    EXPECT_EQ(fingerprintJob(j4).hex(), "d1058aea01982d42");
    EXPECT_NE(fingerprintJob(j16).canonical.find("fingerprint.version=3"),
              std::string::npos);
}

TEST(WorkloadHomogeneous, MixBaselineFingerprintSharesWithHomogeneous)
{
    // A mix group's baseline key equals the homogeneous baseline key of
    // the same profile, so sweeps and mixes share 1-thread runs.
    const JobSpec hom =
        JobSpec::forProfile(test::computeOnlyProfile(), 4);
    JobSpec mix;
    mix.workload = smallMix();
    EXPECT_EQ(fingerprintWorkloadGroupBaseline(
                  hom.params, hom.effectiveWorkload(), 0)
                  .canonical,
              fingerprintWorkloadGroupBaseline(
                  mix.params, mix.effectiveWorkload(), 0)
                  .canonical);
}

// ---- mixes ------------------------------------------------------------------

TEST(WorkloadMix, BaselineIsSumOfPerProgramBaselines)
{
    const WorkloadSpec mix = smallMix();
    const SpeedupExperiment e = runExperiment(SimParams{}, mix);
    const RunResult a =
        runSingleThreaded(SimParams{}, mix.groups[0].profile);
    const RunResult b =
        runSingleThreaded(SimParams{}, mix.groups[1].profile);
    EXPECT_EQ(e.ts, a.executionTime + b.executionTime);
    EXPECT_GT(e.actualSpeedup, 1.0); // co-running 4 cores beats serial
}

TEST(WorkloadMix, GroupsAreDisjointAndConserveWork)
{
    // Without locks, committed instructions are schedule-independent.
    // Co-running must execute exactly the instructions of each program
    // run alone at its own thread count — groups share no data, locks
    // or barriers, so only hardware interference couples them.
    const WorkloadSpec mix = smallMix();
    const RunResult together = simulateWorkload(SimParams{}, mix);
    const RunResult alone_a = simulateWorkload(
        SimParams{}, WorkloadSpec::homogeneous(mix.groups[0].profile, 2));
    const RunResult alone_b = simulateWorkload(
        SimParams{}, WorkloadSpec::homogeneous(mix.groups[1].profile, 2));
    EXPECT_EQ(together.totalInstructions,
              alone_a.totalInstructions + alone_b.totalInstructions);
    // ...and the interference is real: the mix takes longer than the
    // slower program alone on its own 2 cores.
    EXPECT_GT(together.executionTime,
              std::max(alone_a.executionTime, alone_b.executionTime));
}

TEST(WorkloadMix, DeterministicAcrossThreadPools)
{
    ExperimentSpec grid;
    grid.workloads = {"fig08_cholesky", "t-na"};
    // Use registered + inline entries; replace the bogus one first.
    grid.workloads[1] = "cholesky:2+fft:2";

    DriverOptions serial;
    serial.jobs = 1;
    const std::vector<JobSpec> jobs = expandGrid(grid);
    const std::vector<JobResult> a = runExperimentBatch(jobs, serial);

    DriverOptions pooled;
    pooled.jobs = 4;
    const std::vector<JobResult> b = runExperimentBatch(jobs, pooled);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i].ok()) << a[i].error;
        ASSERT_TRUE(b[i].ok()) << b[i].error;
        EXPECT_EQ(a[i].exp.ts, b[i].exp.ts);
        EXPECT_EQ(a[i].exp.tp, b[i].exp.tp);
        EXPECT_EQ(a[i].exp.stack.negLlc, b[i].exp.stack.negLlc);
        EXPECT_EQ(a[i].exp.stack.posLlc, b[i].exp.stack.posLlc);
    }
}

TEST(WorkloadMix, SameProgramTwiceDrawsDecorrelatedSeeds)
{
    JobSpec job;
    job.workload = WorkloadSpec::mix(
        {WorkloadGroup{test::computeOnlyProfile(), 2},
         WorkloadGroup{test::computeOnlyProfile(), 2}});
    const WorkloadSpec eff = job.effectiveWorkload();
    EXPECT_EQ(eff.groups[0].profile.seed,
              test::computeOnlyProfile().seed); // group 0 untouched
    EXPECT_NE(eff.groups[1].profile.seed, eff.groups[0].profile.seed);
}

// ---- pipelines --------------------------------------------------------------

TEST(WorkloadPipeline, StageImbalanceYieldDominatesTheStack)
{
    const SpeedupExperiment e =
        runExperiment(SimParams{}, imbalancedPipeline());
    // The light stage's threads park on every phase barrier while the
    // heavy stage finishes: long waits register as yielding, not
    // spinning, and dominate every other sync component — the
    // ferret-style stage-imbalance signature.
    EXPECT_GT(e.stack.yield, 0.0);
    EXPECT_GT(e.stack.yield, e.stack.spin);
    EXPECT_GT(e.stack.yield, e.stack.imbalance);
    EXPECT_TRUE(e.stack.sumsToHeight(1e-9));
}

TEST(WorkloadPipeline, StagesMustAgreeOnPhases)
{
    BenchmarkProfile a = test::computeOnlyProfile();
    a.barrierPhases = 4;
    BenchmarkProfile b = test::computeOnlyProfile();
    b.barrierPhases = 8;
    const WorkloadSpec bad = WorkloadSpec::pipeline(
        {WorkloadGroup{a, 1}, WorkloadGroup{b, 1}});
    EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(WorkloadPipeline, RegisteredFerretRunsEndToEnd)
{
    const WorkloadSpec &ferret = *mixRegistry().find("ferret4");
    const SpeedupExperiment e = runExperiment(SimParams{}, ferret);
    EXPECT_GT(e.actualSpeedup, 1.0);
    EXPECT_GT(e.stack.yield, e.stack.spin);
}

// ---- descriptor parsing -----------------------------------------------------

TEST(WorkloadParsing, InlineFormsAndBroadcast)
{
    const WorkloadSpec one = parseWorkload("cholesky:8");
    EXPECT_TRUE(one.isHomogeneous());
    EXPECT_EQ(one.nthreads(), 8);

    const WorkloadSpec broadcast = parseWorkload("cholesky+fft:8");
    EXPECT_EQ(broadcast.role, WorkloadRole::kMix);
    ASSERT_EQ(broadcast.ngroups(), 2);
    EXPECT_EQ(broadcast.groups[0].nthreads, 8);
    EXPECT_EQ(broadcast.groups[1].nthreads, 8);
    EXPECT_EQ(broadcast.descriptor(), "cholesky:8+fft:8");

    // Stages must agree on barrier phases, so stage the same profile
    // twice; heterogeneous-phase stages are rejected.
    const WorkloadSpec pipe = parseWorkload("cholesky:1>cholesky:2");
    EXPECT_EQ(pipe.role, WorkloadRole::kPipeline);
    EXPECT_EQ(pipe.nthreads(), 3);
    EXPECT_THROW(parseWorkload("cholesky:1>fft:2"),
                 std::invalid_argument);

    // Canonicalization is a fixed point and re-parses equal.
    const std::string canon = canonicalWorkloadText("cholesky + fft:8");
    EXPECT_EQ(canon, "cholesky:8+fft:8");
    EXPECT_EQ(canonicalWorkloadText(canon), canon);
    EXPECT_EQ(canonicalWorkloadText("ferret4"), "ferret4");
}

TEST(WorkloadParsing, ErrorsListRegisteredMixes)
{
    try {
        parseWorkload("not-a-mix");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        for (const std::string &name : mixRegistry().names())
            EXPECT_NE(what.find(name), std::string::npos) << what;
    }
    EXPECT_THROW(parseWorkload("cholesky:4>fft+lu.cont"),
                 std::invalid_argument);
    EXPECT_THROW(parseWorkload("cholesky:4+fft"),
                 std::invalid_argument);
    EXPECT_THROW(parseWorkload("cholesky:0+fft:2"),
                 std::invalid_argument);
}

// ---- trace backward compatibility ------------------------------------------

TEST(WorkloadTrace, V2FixtureReplaysAsHomogeneousBitIdentically)
{
    // Checked-in container written by the pre-WorkloadSpec (v2) build:
    // tests/data/homogeneous_v2.sstt records t-compute at 2 threads.
    const std::string path =
        std::string(SST_TESTS_DATA_DIR) + "/homogeneous_v2.sstt";
    const TraceReader reader(path);
    EXPECT_EQ(reader.meta().version, 2u);
    EXPECT_EQ(reader.meta().role, WorkloadRole::kReplicated);
    ASSERT_EQ(reader.ngroups(), 1);
    EXPECT_EQ(reader.meta().groups[0].nthreads, 2);
    EXPECT_EQ(reader.meta().groups[0].profileHash,
              traceProfileHash(test::computeOnlyProfile()));

    const RunResult single = replayBaseline(SimParams{}, reader);
    const RunResult parallel = replayParallel(SimParams{}, reader);
    const SpeedupExperiment live = runExperiment(
        SimParams{}, WorkloadSpec::homogeneous(test::computeOnlyProfile(), 2));
    test::expectSameRun(single, live.single);
    test::expectSameRun(parallel, live.parallel);
    // Anchors from the pre-refactor build, so a drift in either the
    // reader or the homogeneous simulation fails loudly.
    EXPECT_EQ(single.executionTime, 54000u);
    EXPECT_EQ(parallel.executionTime, 27461u);
}

TEST(WorkloadTrace, RequireCompatibleRejectsPerThreadProfileMismatch)
{
    const test::TempDir tmp("mix-trace");
    const std::string &dir = tmp.path();
    JobSpec job;
    job.workload = smallMix();
    test::recordTraces({job}, dir);
    const WorkloadSpec mix = job.effectiveWorkload();

    const TraceReader reader(tracePathFor(dir, mix));
    EXPECT_EQ(reader.meta().version, trace::kTraceVersion);
    EXPECT_EQ(reader.meta().role, WorkloadRole::kMix);
    ASSERT_EQ(reader.ngroups(), 2);
    EXPECT_NO_THROW(reader.requireCompatibleWorkload(
        mix.role, traceGroupsOf(mix), SchedPolicy::kAffinityFifo, 0));

    // A different per-thread profile in group 1 must be rejected with
    // a message naming the group.
    WorkloadSpec other = mix;
    other.groups[1].profile.totalIters += 1;
    try {
        reader.requireCompatibleWorkload(other.role,
                                         traceGroupsOf(other),
                                         SchedPolicy::kAffinityFifo, 0);
        FAIL() << "expected TraceError";
    } catch (const TraceError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("per-thread-profile mismatch"),
                  std::string::npos) << what;
        EXPECT_NE(what.find("group 1"), std::string::npos) << what;
    }

    // Wrong role and wrong group count are named too.
    EXPECT_THROW(reader.requireCompatibleWorkload(
                     WorkloadRole::kPipeline, traceGroupsOf(mix),
                     SchedPolicy::kAffinityFifo, 0),
                 TraceError);
    // A request for one group refuses a two-group recording.
    try {
        reader.requireCompatibleWorkload(mix.role, {traceGroupsOf(mix)[0]},
                                         SchedPolicy::kAffinityFifo, 0);
        FAIL() << "expected TraceError";
    } catch (const TraceError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("records 2 program groups"), std::string::npos)
            << what;
    }
}

TEST(WorkloadTrace, MixRecordReplayRoundTripsBitIdentically)
{
    const test::TempDir tmp("mix-rt");
    const std::string &dir = tmp.path();
    JobSpec job;
    job.workload = smallMix();
    const SpeedupExperiment reference =
        runExperiment(job.params, job.effectiveWorkload());
    const std::vector<JobResult> live = test::recordTraces({job}, dir);
    ASSERT_TRUE(live[0].ok()) << live[0].error;
    test::expectSameExperiment(live[0].exp, reference);

    DriverOptions opts;
    opts.traceDir = dir;
    opts.fullRuns = true;
    const std::vector<JobResult> replayed = runExperimentBatch({job}, opts);
    ASSERT_TRUE(replayed[0].ok()) << replayed[0].error;
    EXPECT_TRUE(replayed[0].tracedReplay);
    test::expectSameExperiment(replayed[0].exp, reference);
}

// ---- driver integration -----------------------------------------------------

TEST(WorkloadDriver, MixJobsCacheAndReplay)
{
    const test::TempDir tmp("mix-cache");
    const std::string &dir = tmp.path();

    ExperimentSpec grid;
    grid.workloads = {"cholesky:2+fft:2"};
    const std::vector<JobSpec> jobs = expandGrid(grid);

    DriverOptions opts;
    opts.cacheDir = dir;
    BatchStats stats;
    const std::vector<JobResult> fresh =
        runExperimentBatch(jobs, opts, &stats);
    ASSERT_TRUE(fresh[0].ok()) << fresh[0].error;
    EXPECT_EQ(stats.executed, 1u);

    const std::vector<JobResult> cached =
        runExperimentBatch(jobs, opts, &stats);
    EXPECT_EQ(stats.cached, 1u);
    EXPECT_TRUE(cached[0].fromCache());
    EXPECT_EQ(cached[0].exp.ts, fresh[0].exp.ts);
    EXPECT_EQ(cached[0].exp.actualSpeedup, fresh[0].exp.actualSpeedup);
    // Heterogeneous jobs carry the v4 workload section.
    EXPECT_NE(fingerprintJob(jobs[0]).canonical.find("workload.role=mix"),
              std::string::npos);
}

TEST(WorkloadDriver, RecordDirCapturesFreshJobsOnly)
{
    const test::TempDir recDir("mix-rec"), cacheDir("mix-rec-cache");
    const std::string &rec = recDir.path();
    const std::string &cache = cacheDir.path();

    ExperimentSpec grid;
    grid.workloads = {"cholesky:2+fft:2"};
    const std::vector<JobSpec> jobs = expandGrid(grid);

    DriverOptions opts;
    opts.cacheDir = cache;
    opts.recordDir = rec;
    opts.fullRuns = true;
    BatchStats stats;
    const std::vector<JobResult> fresh =
        runExperimentBatch(jobs, opts, &stats);
    ASSERT_TRUE(fresh[0].ok()) << fresh[0].error;
    EXPECT_EQ(stats.tracesRecorded, 1u);
    EXPECT_TRUE(fresh[0].traceRecorded);
    const std::string path = tracePathFor(rec, jobs[0].effectiveWorkload());
    EXPECT_TRUE(std::filesystem::exists(path));

    // Cache hit: no re-simulation, no re-capture.
    const std::vector<JobResult> cached =
        runExperimentBatch(jobs, opts, &stats);
    EXPECT_EQ(stats.cached, 1u);
    EXPECT_EQ(stats.tracesRecorded, 0u);

    // The captured trace replays bit-identically to the live run.
    const SpeedupExperiment reference =
        runExperiment(jobs[0].params, jobs[0].effectiveWorkload());
    test::expectSameExperiment(fresh[0].exp, reference);
    DriverOptions replay;
    replay.traceDir = rec;
    replay.fullRuns = true;
    const std::vector<JobResult> replayed =
        runExperimentBatch(jobs, replay);
    ASSERT_TRUE(replayed[0].ok()) << replayed[0].error;
    EXPECT_TRUE(replayed[0].tracedReplay);
    test::expectSameExperiment(replayed[0].exp, reference);
}

TEST(WorkloadDriver, RecordAndReplayDirsAreExclusive)
{
    DriverOptions opts;
    opts.traceDir = "/tmp/a";
    opts.recordDir = "/tmp/b";
    EXPECT_THROW(ExperimentDriver{opts}, std::invalid_argument);
}

} // namespace
} // namespace sst
