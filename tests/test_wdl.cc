/**
 * @file
 * Tests of the WDL workload description language: parser/IR golden
 * properties (canonical text is a fixed point), file:line diagnostics,
 * deterministic op-stream compilation (kEnd exactly once, identical
 * streams on re-enumeration), zipfian key skew, result determinism
 * across driver worker pools, record -> replay bit-identity, and
 * fingerprint stability (content-addressed, never path-addressed).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "driver/driver.hh"
#include "driver/fingerprint.hh"
#include "spec/spec.hh"
#include "tests/test_util.hh"
#include "trace/trace_run.hh"
#include "wdl/wdl.hh"
#include "workload/op.hh"
#include "workload/workload_spec.hh"

namespace sst {
namespace {

/** Two small groups contending on a shared zipfian lock table — the
 *  cross-group scenario no registered profile expresses. */
constexpr const char *kContention = R"(
wdl 1
workload "t-contention"
seed 11
lock keys[16]

group hot threads=2 private=16K {
  loop 40 {
    txn txn_ops=4 rw_ratio=0.5 locks=keys zipf(0.9) compute=10 memory=1
  }
}

group cold threads=2 private=16K {
  loop 40 {
    txn txn_ops=4 rw_ratio=0.5 locks=keys zipf(0.0) compute=10 memory=1
  }
}
)";

/** A replicated barrier-phased group exercising every statement kind. */
constexpr const char *kPhased = R"(
wdl 1
workload "t-phased"
seed 3
lock guard
barrier sync

group main threads=4 private=32K shared=64K {
  loop 2 each {
    phase {
      loop 80 {
        compute uniform(20, 40)
        memory 2
        memory 1 shared store=0.25
      }
    }
    barrier sync
    lock guard {
      compute 15
      memory 2 data
    }
    yield
  }
}
)";

WorkloadSpec
specFromText(const std::string &text, const std::string &virtual_path)
{
    auto prog = std::make_shared<const wdl::Program>(
        wdl::parseProgram(text, virtual_path));
    return wdl::toWorkloadSpec(prog, virtual_path);
}

std::string
writeTemp(const std::string &name, const std::string &text)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / name).string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    out.close();
    return path;
}

/** Enumerate one thread's stream; asserts kEnd arrives exactly once
 *  and the source then stays finished. */
std::vector<Op>
drain(const OpSourceFactory &factory, ThreadId tid, int nthreads)
{
    std::unique_ptr<OpSource> src = factory(tid, nthreads);
    std::vector<Op> ops;
    for (int guard = 0; guard < 2'000'000; ++guard) {
        const Op op = src->nextOp();
        if (op.type == OpType::kEnd)
            break;
        ops.push_back(op);
    }
    EXPECT_TRUE(src->finished());
    EXPECT_EQ(src->nextOp().type, OpType::kEnd); // end forever after
    return ops;
}

bool
sameOps(const std::vector<Op> &a, const std::vector<Op> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].type != b[i].type || a[i].count != b[i].count ||
            a[i].addr != b[i].addr || a[i].pc != b[i].pc ||
            a[i].id != b[i].id)
            return false;
    }
    return true;
}

// ---- parser / IR -----------------------------------------------------------

TEST(WdlParser, ParsesContentionScenario)
{
    const wdl::Program prog = wdl::parseProgram(kContention, "t.wdl");
    EXPECT_EQ(prog.name, "t-contention");
    EXPECT_EQ(prog.role, WorkloadRole::kMix); // 2 groups default to mix
    ASSERT_EQ(prog.locks.size(), 1u);
    EXPECT_EQ(prog.locks[0].name, "keys");
    EXPECT_EQ(prog.locks[0].size, 16u);
    ASSERT_EQ(prog.groups.size(), 2u);
    EXPECT_EQ(prog.groups[0].name, "hot");
    EXPECT_EQ(prog.groups[0].nthreads, 2);
    EXPECT_EQ(prog.groups[1].name, "cold");
    EXPECT_EQ(prog.groups[0].seed, 11u);
}

TEST(WdlParser, CanonicalTextIsAFixedPoint)
{
    for (const char *text : {kContention, kPhased}) {
        const wdl::Program prog = wdl::parseProgram(text, "t.wdl");
        const std::string canon = prog.canonicalText();
        const wdl::Program again = wdl::parseProgram(canon, "canon.wdl");
        EXPECT_EQ(again.canonicalText(), canon);
        EXPECT_EQ(again.irHash(), prog.irHash());
    }
}

TEST(WdlParser, SingleGroupNormalizesToReplicated)
{
    const wdl::Program prog = wdl::parseProgram(kPhased, "t.wdl");
    EXPECT_EQ(prog.role, WorkloadRole::kReplicated);
    ASSERT_EQ(prog.groups.size(), 1u);
    EXPECT_EQ(prog.groups[0].nthreads, 4);
}

// ---- diagnostics -----------------------------------------------------------

void
expectParseError(const std::string &text, const char *needle,
                 const char *line_marker)
{
    try {
        wdl::parseProgram(text, "bad.wdl");
        FAIL() << "expected std::invalid_argument for: " << needle;
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("bad.wdl:"), std::string::npos) << msg;
        EXPECT_NE(msg.find(needle), std::string::npos) << msg;
        if (line_marker) {
            EXPECT_NE(msg.find(line_marker), std::string::npos) << msg;
        }
    }
}

TEST(WdlDiagnostics, UnknownStatementNamesFileLineAndToken)
{
    expectParseError("wdl 1\ngroup g threads=1 {\n  frobnicate 3\n}\n",
                     "unknown statement", "bad.wdl:3");
}

TEST(WdlDiagnostics, UndefinedLockListsDeclaredNames)
{
    expectParseError("wdl 1\nlock a\ngroup g threads=1 {\n"
                     "  lock nope { compute 1 }\n}\n",
                     "nope", "bad.wdl:4");
}

TEST(WdlDiagnostics, TruncatedFileReportsOpenBlock)
{
    expectParseError("wdl 1\ngroup g threads=1 {\n  compute 5\n",
                     "not closed", "end of file");
}

TEST(WdlDiagnostics, ScalarLockRejectsSelector)
{
    expectParseError("wdl 1\nlock l\ngroup g threads=1 {\n"
                     "  lock l[zipf(0.5)] { compute 1 }\n}\n",
                     "scalar", nullptr);
}

TEST(WdlDiagnostics, SyncInsideCriticalSectionRejected)
{
    expectParseError("wdl 1\nlock l\ngroup g threads=2 {\n"
                     "  lock l { yield }\n}\n",
                     "", "bad.wdl:");
}

// ---- compiled op streams ---------------------------------------------------

TEST(WdlCompiler, StreamsAreDeterministicAndEndOnce)
{
    const WorkloadSpec spec = specFromText(kPhased, "t.wdl");
    const OpSourceFactory factory = workloadOpSources(spec);
    for (int tid = 0; tid < spec.nthreads(); ++tid) {
        const std::vector<Op> first = drain(factory, tid, spec.nthreads());
        const std::vector<Op> second = drain(factory, tid, spec.nthreads());
        EXPECT_FALSE(first.empty());
        EXPECT_TRUE(sameOps(first, second)) << "tid " << tid;
    }
}

TEST(WdlCompiler, ZipfSkewsLockKeys)
{
    // Share of acquisitions hitting the hottest key: strongly
    // concentrated at theta 0.9, near-uniform (~1/16) at theta 0.
    const WorkloadSpec spec = specFromText(kContention, "t.wdl");
    const OpSourceFactory factory = workloadOpSources(spec);
    auto hotShare = [&](ThreadId tid) {
        std::map<int, int> counts;
        int total = 0;
        for (const Op &op : drain(factory, tid, spec.nthreads())) {
            if (op.type == OpType::kLockAcquire) {
                ++counts[op.id];
                ++total;
            }
        }
        int hottest = 0;
        for (const auto &kv : counts)
            hottest = std::max(hottest, kv.second);
        EXPECT_GT(total, 0);
        return static_cast<double>(hottest) / total;
    };
    EXPECT_GT(hotShare(0), 0.25);  // zipf(0.9) group
    EXPECT_LT(hotShare(2), 0.25);  // zipf(0.0) group
}

TEST(WdlCompiler, BaselineStreamsHaveNoSyncOps)
{
    const WorkloadSpec spec = specFromText(kContention, "t.wdl");
    for (int g = 0; g < spec.ngroups(); ++g) {
        const std::vector<Op> ops =
            drain(workloadGroupBaselineSources(spec, g), 0, 1);
        EXPECT_FALSE(ops.empty());
        for (const Op &op : ops) {
            EXPECT_NE(op.type, OpType::kLockAcquire);
            EXPECT_NE(op.type, OpType::kLockRelease);
            EXPECT_NE(op.type, OpType::kBarrier);
        }
    }
}

TEST(WdlCompiler, ContentionStreamsMatchGoldenHash)
{
    // examples/workloads/contention.wdl with one thread per group: each
    // thread's warmup (2 K private lines, 4 K lock-data lines) spans many
    // buffer refills. Captured from the compiler that built the whole
    // warmup in one buffer; every op must stay bit-identical.
    std::ifstream in(std::string(SST_TESTS_DATA_DIR) +
                     "/../../examples/workloads/contention.wdl");
    ASSERT_TRUE(in) << "cannot open contention.wdl";
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    for (std::size_t at = text.find("threads=8"); at != std::string::npos;
         at = text.find("threads=8"))
        text.replace(at, 9, "threads=1");
    const WorkloadSpec spec = specFromText(text, "contention.wdl");
    ASSERT_EQ(spec.nthreads(), 2);

    std::uint64_t h = 0;
    const OpSourceFactory parallel = workloadOpSources(spec);
    for (int tid = 0; tid < spec.nthreads(); ++tid)
        h = test::hashStream(*parallel(tid, spec.nthreads()), h);
    for (int g = 0; g < spec.ngroups(); ++g)
        h = test::hashStream(*workloadGroupBaselineSources(spec, g)(0, 1), h);
    EXPECT_EQ(h, 0x7928c9d5ffecac0cULL);
}

// ---- driver / record / replay ----------------------------------------------

JobSpec
wdlJob(const char *text)
{
    JobSpec job;
    job.workload = specFromText(text, "t.wdl");
    return job;
}

TEST(WdlDriver, ResultsIdenticalAcrossWorkerCounts)
{
    const std::vector<JobSpec> jobs = {wdlJob(kContention),
                                       wdlJob(kPhased)};
    DriverOptions serial;
    serial.jobs = 1;
    DriverOptions parallel;
    parallel.jobs = 4;
    const std::vector<JobResult> r1 = runExperimentBatch(jobs, serial);
    const std::vector<JobResult> r4 = runExperimentBatch(jobs, parallel);
    ASSERT_EQ(r1.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(r1[i].ok()) << r1[i].error;
        ASSERT_TRUE(r4[i].ok()) << r4[i].error;
        test::expectSameExperiment(r1[i].exp, r4[i].exp);
    }
}

TEST(WdlTrace, RecordThenReplayIsBitIdentical)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / "t_wdl_trace").string();
    std::filesystem::remove_all(dir);
    const JobSpec job = wdlJob(kContention);
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
    std::filesystem::remove_all(dir);
}

TEST(WdlDriver, MixExperimentMatchesDriverRow)
{
    // runExperiment() must simulate the program, not the placeholder
    // profiles. Single group only: the driver folds the group index into
    // later groups' seeds.
    const JobSpec job = wdlJob(kPhased);
    DriverOptions opts;
    opts.fullRuns = true;
    const std::vector<JobResult> rows = runExperimentBatch({job}, opts);
    ASSERT_TRUE(rows[0].ok()) << rows[0].error;
    test::expectSameExperiment(runExperiment(job.params, job.workload),
                         rows[0].exp);
}

// ---- fingerprints ----------------------------------------------------------

TEST(WdlFingerprint, HashesContentNotPath)
{
    const std::string a = writeTemp("t_wdl_fp_a.wdl", kContention);
    const std::string b = writeTemp("t_wdl_fp_b.wdl", kContention);
    JobSpec ja, jb;
    ja.workload = wdl::loadWorkloadFile(a);
    jb.workload = wdl::loadWorkloadFile(b);
    EXPECT_EQ(fingerprintJob(ja).canonical, fingerprintJob(jb).canonical);
    EXPECT_EQ(fingerprintWorkloadGroupBaseline(ja.params, ja.workload, 0)
                  .canonical,
              fingerprintWorkloadGroupBaseline(jb.params, jb.workload, 0)
                  .canonical);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

/** kContention with the first @p from replaced by @p to. */
JobSpec
editedContention(const std::string &from, const std::string &to)
{
    std::string text = kContention;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    JobSpec job;
    job.workload = specFromText(text, "t.wdl");
    return job;
}

std::string
baselineKey(const JobSpec &job, int group)
{
    return fingerprintWorkloadGroupBaseline(job.params,
                                            job.effectiveWorkload(), group)
        .canonical;
}

TEST(WdlFingerprint, BaselineKeyedOnWhatTheSequentialStreamReads)
{
    const JobSpec base = wdlJob(kContention);

    // The program name and the thread counts never reach the 1-thread
    // stream: such programs share each group's baseline, and the runs
    // are bit-identical. Their experiments stay distinct.
    for (const JobSpec &twin :
         {editedContention("workload \"t-contention\"",
                           "workload \"renamed\""),
          editedContention("group hot threads=2", "group hot threads=8")}) {
        EXPECT_NE(fingerprintJob(base).hash, fingerprintJob(twin).hash);
        for (int g = 0; g < 2; ++g) {
            SCOPED_TRACE("group " + std::to_string(g));
            EXPECT_EQ(baselineKey(base, g), baselineKey(twin, g));
            test::expectSameRun(
                simulateSources(base.params,
                                workloadGroupBaselineSources(
                                    base.effectiveWorkload(), g),
                                1),
                simulateSources(twin.params,
                                workloadGroupBaselineSources(
                                    twin.effectiveWorkload(), g),
                                1));
        }
    }

    // Anything the stream reads splits them: the group's body, its
    // region sizes, the lock declarations and the group seed.
    const JobSpec body =
        editedContention("zipf(0.9)", "zipf(0.5)"); // group hot only
    EXPECT_NE(baselineKey(base, 0), baselineKey(body, 0));
    EXPECT_EQ(baselineKey(base, 1), baselineKey(body, 1));
    const JobSpec region = editedContention("private=16K", "private=32K");
    EXPECT_NE(baselineKey(base, 0), baselineKey(region, 0));
    EXPECT_EQ(baselineKey(base, 1), baselineKey(region, 1));
    for (const JobSpec &all : {editedContention("lock keys[16]",
                                                "lock keys[32]"),
                               editedContention("seed 11", "seed 12")})
        for (int g = 0; g < 2; ++g)
            EXPECT_NE(baselineKey(base, g), baselineKey(all, g));
    JobSpec offset = base;
    offset.seedOffset = 1;
    EXPECT_NE(baselineKey(base, 0), baselineKey(offset, 0));

    // The driver runs the shared baselines once for both jobs.
    BatchStats stats;
    const std::vector<JobResult> rows = runExperimentBatch(
        {base, editedContention("group hot threads=2", "group hot threads=4")},
        DriverOptions{}, &stats);
    for (const JobResult &r : rows)
        ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(stats.baselinesComputed, 2u);
    EXPECT_EQ(rows[0].exp.ts, rows[1].exp.ts);
}

TEST(WdlFingerprint, DifferentThetaDifferentFingerprint)
{
    std::string low = kContention;
    const std::size_t at = low.find("zipf(0.9)");
    ASSERT_NE(at, std::string::npos);
    low.replace(at, 9, "zipf(0.1)");
    JobSpec hot = wdlJob(kContention);
    JobSpec cool;
    cool.workload = specFromText(low, "t.wdl");
    EXPECT_NE(fingerprintJob(hot).hash, fingerprintJob(cool).hash);
}

// ---- spec integration ------------------------------------------------------

TEST(WdlSpec, WorkloadFileKeyIsSugarForFrontend)
{
    const ExperimentSpec spec =
        parseSpec("workload-file = examples/workloads/contention.wdl\n");
    EXPECT_EQ(spec.frontend, "workload-file");
    ASSERT_EQ(spec.workloadFiles.size(), 1u);
    EXPECT_EQ(spec.workloadFiles[0],
              "examples/workloads/contention.wdl");
    // Canonical round trip.
    EXPECT_EQ(parseSpec(serializeSpec(spec)), spec);
}

TEST(WdlSpec, WorkloadFileExclusiveWithOtherAxes)
{
    ExperimentSpec spec;
    applySpecValue(spec, "workload-file", "a.wdl");
    EXPECT_THROW(applySpecValue(spec, "workload", "fig08_cholesky"),
                 std::invalid_argument);
    ExperimentSpec other;
    applySpecValue(other, "workload", "fig08_cholesky");
    EXPECT_THROW(applySpecValue(other, "workload-file", "a.wdl"),
                 std::invalid_argument);
    ExperimentSpec threads;
    applySpecValue(threads, "workload-file", "a.wdl");
    applySpecValue(threads, "threads", "2,4");
    EXPECT_THROW(validateSpec(threads), std::invalid_argument);
}

TEST(WdlSpec, SpecErrorsCarryLineAndOffendingText)
{
    try {
        parseSpec("threads = 4\nbogus line without equals\n");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("bogus line without equals"),
                  std::string::npos)
            << msg;
    }
}

TEST(WdlSpec, SpecForJobRoundTripsThroughThePath)
{
    const std::string path = writeTemp("t_wdl_spec.wdl", kContention);
    JobSpec job;
    job.workload = wdl::loadWorkloadFile(path);
    const ExperimentSpec spec = specForJob(job);
    EXPECT_EQ(spec.frontend, "workload-file");
    ASSERT_EQ(spec.workloadFiles.size(), 1u);
    const std::vector<JobSpec> jobs = expandGrid(specGrid(spec));
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(fingerprintJob(jobs[0]).canonical,
              fingerprintJob(job).canonical);
    std::remove(path.c_str());
}

} // namespace
} // namespace sst
