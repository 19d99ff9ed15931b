/**
 * @file
 * End-to-end trace round-trip tests: recording a job through the
 * driver (--record-dir) and replaying it from the binary trace
 * (--trace-dir) must reproduce the live results bit for bit —
 * execution times, speedup-stack components and every per-thread
 * accounting counter — across profiles and thread counts. Also covers
 * the rest of the --trace-dir mode: missing traces fall back to
 * generation, stale or malformed traces fail their job loudly, and
 * --record-dir writes the same bytes at any worker count.
 */

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <memory>

#include "core/experiment.hh"
#include "driver/driver.hh"
#include "trace/trace_run.hh"
#include "tests/test_util.hh"
#include "workload/profile.hh"

namespace sst {
namespace {

/**
 * Record -> replay for one (profile, nthreads) point through the
 * driver and demand bit-identical results everywhere.
 */
void
roundTrip(const std::string &dir, const BenchmarkProfile &profile,
          int nthreads)
{
    SCOPED_TRACE(profile.label() + " @" + std::to_string(nthreads));
    const JobSpec spec = JobSpec::forProfile(profile, nthreads);
    const SpeedupExperiment reference =
        runExperiment(spec.params, spec.workload);

    // The recording shim must be transparent: the live experiment
    // measured while recording equals a plain run without the shim.
    const std::vector<JobResult> live = test::recordTraces({spec}, dir);
    ASSERT_TRUE(live[0].ok()) << live[0].error;
    test::expectSameExperiment(live[0].exp, reference);

    DriverOptions opts;
    opts.traceDir = dir;
    opts.fullRuns = true;
    const std::vector<JobResult> replayed =
        runExperimentBatch({spec}, opts);
    ASSERT_TRUE(replayed[0].ok()) << replayed[0].error;
    EXPECT_TRUE(replayed[0].tracedReplay);
    test::expectSameExperiment(replayed[0].exp, reference);
}

// Three Figure-6 profiles spanning the behaviour classes (good /
// lock-spin / barrier-imbalance scaling), each at 1, 4 and 16 threads
// — the satellite's ">= 3 profiles x {1, 4, 16}" matrix.
TEST(TraceRoundTrip, CholeskyMatchesLiveBitForBit)
{
    const test::TempDir tmp("rt_cholesky");
    const std::string &dir = tmp.path();
    for (const int n : {1, 4, 16})
        roundTrip(dir, profileByLabel("cholesky"), n);
}

TEST(TraceRoundTrip, RadixMatchesLiveBitForBit)
{
    const test::TempDir tmp("rt_radix");
    const std::string &dir = tmp.path();
    for (const int n : {1, 4, 16})
        roundTrip(dir, profileByLabel("radix"), n);
}

TEST(TraceRoundTrip, FftMatchesLiveBitForBit)
{
    const test::TempDir tmp("rt_fft");
    const std::string &dir = tmp.path();
    for (const int n : {1, 4, 16})
        roundTrip(dir, profileByLabel("fft"), n);
}

// ---- driver --trace-dir ----------------------------------------------------

JobSpec
makeJob(const BenchmarkProfile &profile, int nthreads)
{
    return JobSpec::forProfile(profile, nthreads);
}

TEST(DriverTrace, BatchReplaysFromTraceDirAndMatchesLive)
{
    const test::TempDir tmp("driver_replay");
    const std::string &dir = tmp.path();
    const std::vector<JobSpec> specs = {
        makeJob(test::computeOnlyProfile(), 2),
        makeJob(test::lockHeavyProfile(), 4),
        makeJob(test::barrierHeavyProfile(), 2)};

    const std::vector<JobResult> fresh = test::recordTraces(specs, dir, 2);

    DriverOptions traced;
    traced.jobs = 2;
    traced.traceDir = dir;
    traced.fullRuns = true;
    BatchStats stats;
    const std::vector<JobResult> replayed =
        runExperimentBatch(specs, traced, &stats);

    EXPECT_EQ(stats.traceReplays, specs.size());
    EXPECT_EQ(stats.executed, specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(replayed[i].ok()) << replayed[i].error;
        EXPECT_TRUE(replayed[i].tracedReplay);
        const SpeedupExperiment reference =
            runExperiment(specs[i].params, specs[i].workload);
        test::expectSameExperiment(fresh[i].exp, reference);
        test::expectSameExperiment(replayed[i].exp, reference);
    }
}

TEST(DriverTrace, JobsSharingOneTraceEachReplayIt)
{
    // Two jobs that differ only in the LLC size look up one canonical
    // recording. Whether they read it at the same time (2 workers) or
    // one after the other (1 worker), both must replay it and match
    // their live rows.
    const test::TempDir tmp("driver_shared");
    const std::string &dir = tmp.path();
    const BenchmarkProfile profile = test::lockHeavyProfile();
    test::recordTraces({makeJob(profile, 4)}, dir);
    JobSpec small = makeJob(profile, 4);
    JobSpec large = small;
    large.params.cache.llcBytes *= 2;
    const std::vector<JobSpec> specs = {small, large};
    const std::vector<JobResult> live =
        runExperimentBatch(specs, DriverOptions{});

    for (const int jobs : {1, 2}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        DriverOptions opts;
        opts.jobs = jobs;
        opts.traceDir = dir;
        BatchStats stats;
        const std::vector<JobResult> replayed =
            runExperimentBatch(specs, opts, &stats);
        EXPECT_EQ(stats.traceReplays, 2u);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            ASSERT_TRUE(replayed[i].ok()) << replayed[i].error;
            ASSERT_TRUE(live[i].ok()) << live[i].error;
            test::expectSameExperiment(replayed[i].exp, live[i].exp);
        }
    }
}

TEST(DriverTrace, MissingTraceFallsBackToLiveGeneration)
{
    const test::TempDir tmp("driver_fallback");
    const std::string &dir = tmp.path();
    DriverOptions opts;
    opts.traceDir = dir; // exists but holds no recordings
    BatchStats stats;
    const std::vector<JobResult> results = runExperimentBatch(
        {makeJob(test::computeOnlyProfile(), 2)}, opts, &stats);
    ASSERT_TRUE(results[0].ok()) << results[0].error;
    EXPECT_FALSE(results[0].tracedReplay);
    EXPECT_EQ(stats.traceReplays, 0u);
    EXPECT_EQ(stats.executed, 1u);
}

TEST(DriverTrace, SeedOffsetLooksUpItsOwnRecording)
{
    // An offset-0 recording must not be picked up by an offset-1 job
    // (different op streams): the job falls back to live generation.
    const test::TempDir tmp("driver_seed_offset");
    const std::string &dir = tmp.path();
    const BenchmarkProfile profile = test::computeOnlyProfile();
    test::recordTraces({makeJob(profile, 2)}, dir);

    JobSpec offset = makeJob(profile, 2);
    offset.seedOffset = 1;
    DriverOptions opts;
    opts.traceDir = dir;
    BatchStats stats;
    const std::vector<JobResult> results =
        runExperimentBatch({offset}, opts, &stats);
    ASSERT_TRUE(results[0].ok()) << results[0].error;
    EXPECT_FALSE(results[0].tracedReplay);
    EXPECT_EQ(stats.traceReplays, 0u);
}

TEST(DriverTrace, StaleTraceFailsTheJobLoudly)
{
    const test::TempDir tmp("driver_stale");
    const std::string &dir = tmp.path();
    BenchmarkProfile profile = test::computeOnlyProfile();
    test::recordTraces({makeJob(profile, 2)}, dir);

    // Same label, different op streams: the recording is now stale.
    profile.seed += 1;
    DriverOptions opts;
    opts.traceDir = dir;
    const std::vector<JobResult> results =
        runExperimentBatch({makeJob(profile, 2)}, opts);
    ASSERT_FALSE(results[0].ok());
    EXPECT_NE(results[0].error.find("profile mismatch"),
              std::string::npos);
}

/** @p src's ops through its end marker, with @p bad spliced into the
 *  middle as one op when it is non-empty. */
std::shared_ptr<const trace::OpEncoder>
encodeWithSplice(OpSource &src, const std::string &bad)
{
    std::vector<Op> ops;
    do
        ops.push_back(src.nextOp());
    while (ops.back().type != OpType::kEnd);
    auto enc = std::make_shared<trace::OpEncoder>();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (!bad.empty() && i == ops.size() / 2) {
            enc->bytes += bad;
            ++enc->opCount;
        }
        enc->encode(ops[i]);
    }
    return enc;
}

/**
 * Write @p profile's @p nthreads-thread recording into @p dir with
 * @p bad spliced, as one op, into the middle of thread 0's stream (or
 * of the baseline stream when @p in_baseline). The header matches a
 * live job, so only decoding can tell.
 */
void
writeCorruptTrace(const std::string &dir, const BenchmarkProfile &profile,
                  int nthreads, const std::string &bad,
                  bool in_baseline = false)
{
    const WorkloadSpec w = WorkloadSpec::homogeneous(profile, nthreads);
    TraceWriter writer(traceMetaFor(w, SimParams{}));
    const OpSourceFactory gen = workloadOpSources(w);
    for (int tid = 0; tid < nthreads; ++tid)
        writer.setStream(
            tid, encodeWithSplice(*gen(tid, nthreads),
                                  tid == 0 && !in_baseline ? bad : ""));
    writer.setStream(
        writer.baselineStream(),
        encodeWithSplice(*workloadGroupBaselineSources(w, 0)(0, 1),
                         in_baseline ? bad : ""));
    writer.writeFile(tracePathFor(dir, w));
}

TEST(DriverTrace, MalformedTraceFailsOnlyItsJob)
{
    const test::TempDir tmp("driver_malformed");
    const std::string &dir = tmp.path();
    const BenchmarkProfile bad = test::lockHeavyProfile();
    writeCorruptTrace(dir, bad, 2, "\x2a"); // unknown op tag
    writeCorruptTrace(dir, bad, 3,
                      std::string(1, static_cast<char>(OpType::kEnd)));
    writeCorruptTrace(dir, bad, 4,
                      std::string(1, static_cast<char>(OpType::kLoad)) +
                          std::string(9, '\x80') + "\x7e" +
                          std::string(1, '\0')); // varint overflow
    const BenchmarkProfile good = test::computeOnlyProfile();
    // A malformed baseline stream, whose 1-thread run shares its key
    // with a valid recording (3 threads) and a live job (4 threads, no
    // recording). Baseline jobs never read a recording.
    const BenchmarkProfile barrier = test::barrierHeavyProfile();
    writeCorruptTrace(dir, barrier, 2, "\x2a", true);
    test::recordTraces({makeJob(good, 2), makeJob(barrier, 3)}, dir);

    const std::vector<JobSpec> specs = {
        makeJob(barrier, 2), makeJob(bad, 2), makeJob(good, 2),
        makeJob(barrier, 3), makeJob(bad, 3), makeJob(barrier, 4),
        makeJob(bad, 4)};
    const std::vector<JobResult> live =
        runExperimentBatch(specs, DriverOptions{});
    for (const int jobs : {1, 3}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        DriverOptions opts;
        opts.jobs = jobs;
        opts.traceDir = dir;
        const std::vector<JobResult> results =
            runExperimentBatch(specs, opts);
        for (const std::size_t i : {1u, 4u, 6u}) {
            EXPECT_EQ(results[i].status, JobStatus::kFailed);
            EXPECT_NE(results[i].error.find("malformed trace"),
                      std::string::npos)
                << results[i].error;
        }
        // The bad baseline stream is never read: the job that recorded
        // it replays its valid parallel stream on the generated
        // baseline, at every worker count, like the jobs sharing its
        // baseline key.
        for (const std::size_t i : {0u, 2u, 3u, 5u}) {
            ASSERT_TRUE(results[i].ok()) << results[i].error;
            test::expectSameExperiment(results[i].exp, live[i].exp);
        }
        EXPECT_TRUE(results[0].tracedReplay);
        EXPECT_TRUE(results[2].tracedReplay);
        EXPECT_TRUE(results[3].tracedReplay);
        EXPECT_FALSE(results[5].tracedReplay);
    }
}

std::string
fileBytes(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(DriverTrace, RecordingIsIdenticalAcrossWorkerCounts)
{
    const std::vector<BenchmarkProfile> profiles = {
        test::lockHeavyProfile(), test::barrierHeavyProfile()};
    std::vector<JobSpec> specs;
    for (const BenchmarkProfile &p : profiles)
        for (const int n : {2, 4})
            specs.push_back(makeJob(p, n));

    const test::TempDir jobs1("record_jobs1"), jobs4("record_jobs4");
    const std::vector<std::string> dirs = {jobs1.path(), jobs4.path()};
    for (std::size_t i = 0; i < dirs.size(); ++i) {
        DriverOptions opts;
        opts.jobs = i == 0 ? 1 : 4;
        opts.recordDir = dirs[i];
        BatchStats stats;
        runExperimentBatch(specs, opts, &stats);
        ASSERT_EQ(stats.tracesRecorded, specs.size());
    }

    for (const JobSpec &spec : specs) {
        const WorkloadSpec w = spec.effectiveWorkload();
        const std::string one = fileBytes(tracePathFor(dirs[0], w));
        SCOPED_TRACE(tracePathFor(dirs[0], w));
        ASSERT_FALSE(one.empty());
        EXPECT_EQ(one, fileBytes(tracePathFor(dirs[1], w)));

        // Rebuilding the file from its parallel streams plus
        // appendGeneratedBaseline() gives the same bytes: each shared
        // baseline stream is exactly the generated one.
        const TraceReader reader = TraceReader::fromBytes(one);
        TraceWriter rebuilt(traceMetaFor(w, spec.params));
        for (int tid = 0; tid < w.nthreads(); ++tid) {
            const std::unique_ptr<OpSource> src = reader.parallelSource(tid);
            while (!src->finished())
                rebuilt.append(tid, src->nextOp());
        }
        appendGeneratedBaseline(rebuilt, w, 0);
        EXPECT_EQ(rebuilt.serialize(), one);
    }

    // The checked-in v2 container still opens, validates and replays.
    const TraceReader v2(std::string(SST_TESTS_DATA_DIR) +
                         "/homogeneous_v2.sstt");
    EXPECT_NO_THROW(v2.validate());
    EXPECT_EQ(replayParallel(SimParams{}, v2).executionTime, 27461u);
}

} // namespace
} // namespace sst
