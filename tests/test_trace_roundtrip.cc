/**
 * @file
 * End-to-end trace round-trip tests: recording a run and replaying it
 * from the binary trace must reproduce the live results bit for bit —
 * execution times, speedup-stack components and every per-thread
 * accounting counter — across profiles and thread counts. Also covers
 * the driver's --trace-dir mode: replayed batches match live batches,
 * missing traces fall back to generation, stale or malformed traces fail
 * their job loudly, and --record-dir writes the same bytes at any
 * worker count.
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

std::string
freshTempDir(const char *name)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "sst_trace_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/**
 * Record -> replay for one (profile, nthreads) point and demand
 * bit-identical results everywhere.
 */
void
roundTrip(const std::string &dir, const BenchmarkProfile &profile,
          int nthreads)
{
    SCOPED_TRACE(profile.label() + " @" + std::to_string(nthreads));
    const std::string path = tracePathFor(dir, profile, nthreads);
    const SimParams params;
    const WorkloadSpec workload = WorkloadSpec::homogeneous(profile, nthreads);

    const SpeedupExperiment live =
        recordSpeedupTrace(params, workload, path);
    const SpeedupExperiment replayed = replaySpeedupTrace(params, path);
    test::expectSameExperiment(live, replayed);

    // The recording shim must also be transparent: the live experiment
    // measured while recording equals a plain run without the shim.
    test::expectSameExperiment(live, runExperiment(params, workload));
}

// Three Figure-6 profiles spanning the behaviour classes (good /
// lock-spin / barrier-imbalance scaling), each at 1, 4 and 16 threads
// — the satellite's ">= 3 profiles x {1, 4, 16}" matrix.
TEST(TraceRoundTrip, CholeskyMatchesLiveBitForBit)
{
    const std::string dir = freshTempDir("rt_cholesky");
    for (const int n : {1, 4, 16})
        roundTrip(dir, profileByLabel("cholesky"), n);
    std::filesystem::remove_all(dir);
}

TEST(TraceRoundTrip, RadixMatchesLiveBitForBit)
{
    const std::string dir = freshTempDir("rt_radix");
    for (const int n : {1, 4, 16})
        roundTrip(dir, profileByLabel("radix"), n);
    std::filesystem::remove_all(dir);
}

TEST(TraceRoundTrip, FftMatchesLiveBitForBit)
{
    const std::string dir = freshTempDir("rt_fft");
    for (const int n : {1, 4, 16})
        roundTrip(dir, profileByLabel("fft"), n);
    std::filesystem::remove_all(dir);
}

// ---- driver --trace-dir ----------------------------------------------------

JobSpec
makeJob(const BenchmarkProfile &profile, int nthreads)
{
    return JobSpec::forProfile(profile, nthreads);
}

TEST(DriverTrace, BatchReplaysFromTraceDirAndMatchesLive)
{
    const std::string dir = freshTempDir("driver_replay");
    const std::vector<JobSpec> specs = {
        makeJob(test::computeOnlyProfile(), 2),
        makeJob(test::lockHeavyProfile(), 4),
        makeJob(test::barrierHeavyProfile(), 2)};

    const SimParams params;
    for (const JobSpec &s : specs) {
        const BenchmarkProfile &profile = s.workload.groups[0].profile;
        recordSpeedupTrace(params, s.workload,
                           tracePathFor(dir, profile, s.nthreads()));
    }

    DriverOptions live;
    live.jobs = 2;
    const std::vector<JobResult> fresh = runExperimentBatch(specs, live);

    DriverOptions traced = live;
    traced.traceDir = dir;
    BatchStats stats;
    const std::vector<JobResult> replayed =
        runExperimentBatch(specs, traced, &stats);

    EXPECT_EQ(stats.traceReplays, specs.size());
    EXPECT_EQ(stats.executed, specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(replayed[i].ok()) << replayed[i].error;
        EXPECT_TRUE(replayed[i].tracedReplay);
        test::expectSameExperiment(replayed[i].exp, fresh[i].exp);
    }
    std::filesystem::remove_all(dir);
}

TEST(DriverTrace, JobsSharingOneTraceEachReplayIt)
{
    // Two jobs that differ only in the LLC size look up one canonical
    // recording. Whether they read it at the same time (2 workers) or
    // one after the other (1 worker), both must replay it and match
    // their live rows.
    const std::string dir = freshTempDir("driver_shared");
    const BenchmarkProfile profile = test::lockHeavyProfile();
    recordSpeedupTrace(SimParams{}, WorkloadSpec::homogeneous(profile, 4),
                       tracePathFor(dir, profile, 4));
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
    std::filesystem::remove_all(dir);
}

TEST(DriverTrace, MissingTraceFallsBackToLiveGeneration)
{
    const std::string dir = freshTempDir("driver_fallback");
    DriverOptions opts;
    opts.traceDir = dir; // exists but holds no recordings
    BatchStats stats;
    const std::vector<JobResult> results = runExperimentBatch(
        {makeJob(test::computeOnlyProfile(), 2)}, opts, &stats);
    ASSERT_TRUE(results[0].ok()) << results[0].error;
    EXPECT_FALSE(results[0].tracedReplay);
    EXPECT_EQ(stats.traceReplays, 0u);
    EXPECT_EQ(stats.executed, 1u);
    std::filesystem::remove_all(dir);
}

TEST(DriverTrace, SeedOffsetLooksUpItsOwnRecording)
{
    // An offset-0 recording must not be picked up by an offset-1 job
    // (different op streams): the job falls back to live generation.
    const std::string dir = freshTempDir("driver_seed_offset");
    const BenchmarkProfile profile = test::computeOnlyProfile();
    recordSpeedupTrace(SimParams{}, WorkloadSpec::homogeneous(profile, 2),
                       tracePathFor(dir, profile, 2));

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
    std::filesystem::remove_all(dir);
}

TEST(DriverTrace, StaleTraceFailsTheJobLoudly)
{
    const std::string dir = freshTempDir("driver_stale");
    BenchmarkProfile profile = test::computeOnlyProfile();
    recordSpeedupTrace(SimParams{}, WorkloadSpec::homogeneous(profile, 2),
                       tracePathFor(dir, profile, 2));

    // Same label, different op streams: the recording is now stale.
    profile.seed += 1;
    DriverOptions opts;
    opts.traceDir = dir;
    const std::vector<JobResult> results =
        runExperimentBatch({makeJob(profile, 2)}, opts);
    ASSERT_FALSE(results[0].ok());
    EXPECT_NE(results[0].error.find("profile mismatch"),
              std::string::npos);
    std::filesystem::remove_all(dir);
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
    writer.writeFile(tracePathFor(dir, profile, nthreads));
}

TEST(DriverTrace, MalformedTraceFailsOnlyItsJob)
{
    const std::string dir = freshTempDir("driver_malformed");
    const BenchmarkProfile bad = test::lockHeavyProfile();
    writeCorruptTrace(dir, bad, 2, "\x2a"); // unknown op tag
    writeCorruptTrace(dir, bad, 3,
                      std::string(1, static_cast<char>(OpType::kEnd)));
    writeCorruptTrace(dir, bad, 4,
                      std::string(1, static_cast<char>(OpType::kLoad)) +
                          std::string(9, '\x80') + "\x7e" +
                          std::string(1, '\0')); // varint overflow
    const BenchmarkProfile good = test::computeOnlyProfile();
    recordSpeedupTrace(SimParams{}, WorkloadSpec::homogeneous(good, 2),
                       tracePathFor(dir, good, 2));
    // A malformed baseline stream, whose 1-thread run shares its key
    // with a valid recording (3 threads) and a live job (4 threads, no
    // recording). Listed first, so at jobs 1 it claims the baseline.
    const BenchmarkProfile barrier = test::barrierHeavyProfile();
    writeCorruptTrace(dir, barrier, 2, "\x2a", true);
    recordSpeedupTrace(SimParams{}, WorkloadSpec::homogeneous(barrier, 3),
                       tracePathFor(dir, barrier, 3));

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
        // Jobs sharing the bad stream's baseline key never inherit its
        // failure: they compute the baseline themselves.
        for (const std::size_t i : {2u, 3u, 5u}) {
            ASSERT_TRUE(results[i].ok()) << results[i].error;
            test::expectSameExperiment(results[i].exp, live[i].exp);
        }
        EXPECT_TRUE(results[2].tracedReplay);
        EXPECT_TRUE(results[3].tracedReplay);
        EXPECT_FALSE(results[5].tracedReplay);
        // The job that owns the claim reads the bad stream and fails.
        // Running alongside, it may instead take the baseline a sibling
        // computed and never read its own copy: the same, correct run.
        if (jobs == 1 || !results[0].ok()) {
            EXPECT_EQ(results[0].status, JobStatus::kFailed);
            EXPECT_NE(results[0].error.find("malformed trace"),
                      std::string::npos)
                << results[0].error;
        } else {
            test::expectSameExperiment(results[0].exp, live[0].exp);
        }
    }
    std::filesystem::remove_all(dir);
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

    std::vector<std::string> dirs;
    for (const int jobs : {1, 4}) {
        dirs.push_back(freshTempDir(("record_jobs" +
                                     std::to_string(jobs)).c_str()));
        DriverOptions opts;
        opts.jobs = jobs;
        opts.recordDir = dirs.back();
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
    EXPECT_EQ(replaySpeedupTrace(SimParams{}, v2).tp, 27461u);
    for (const std::string &dir : dirs)
        std::filesystem::remove_all(dir);
}

} // namespace
} // namespace sst
