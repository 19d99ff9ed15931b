/**
 * @file
 * Shared helpers for the test suite: small controlled benchmark profiles
 * that exercise one mechanism at a time, exact-equality checks of
 * experiments and runs, trace recording through the driver, and
 * temporary directories that clean up after themselves.
 */

#ifndef SST_TESTS_TEST_UTIL_HH
#define SST_TESTS_TEST_UTIL_HH

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <gtest/gtest.h>
#include <string>
#include <system_error>
#include <vector>

#include "core/experiment.hh"
#include "driver/driver.hh"
#include "sim/system.hh"
#include "trace/trace_run.hh"
#include "workload/op_source.hh"
#include "workload/profile.hh"

namespace sst {
namespace test {

/**
 * A fresh, empty directory `sst-test-<tag>-<pid>-<n>` under the system
 * temp dir ($TMPDIR), removed with everything in it when the object
 * goes out of scope: also when a failing ASSERT_* returns from the
 * test early.
 */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        static std::atomic<int> counter{0};
        path_ = (std::filesystem::temp_directory_path() /
                 ("sst-test-" + tag + "-" + std::to_string(::getpid()) +
                  "-" + std::to_string(counter++)))
                    .string();
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~TempDir()
    {
        std::error_code ec; // a destructor must not throw
        std::filesystem::remove_all(path_, ec);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Fold @p v into the running order-sensitive hash @p h. */
inline std::uint64_t
hashMix(std::uint64_t h, std::uint64_t v)
{
    h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 29);
}

/**
 * Drain @p src and fold every field of every op, kEnd included, into
 * @p h. Golden values of this hash pin op streams exactly.
 */
inline std::uint64_t
hashStream(OpSource &src, std::uint64_t h)
{
    for (;;) {
        const Op op = src.nextOp();
        h = hashMix(h, static_cast<std::uint64_t>(op.type));
        h = hashMix(h, op.count);
        h = hashMix(h, op.addr);
        h = hashMix(h, op.pc);
        h = hashMix(h, static_cast<std::uint64_t>(op.id));
        if (op.type == OpType::kEnd)
            return h;
    }
}

/** A tiny compute-only profile (no sync, no sharing). */
inline BenchmarkProfile
computeOnlyProfile()
{
    BenchmarkProfile p;
    p.name = "t-compute";
    p.suite = "test";
    p.totalIters = 2000;
    p.computePerIter = 100;
    p.memPerIter = 4;
    p.privateBytes = 8 * 1024;
    p.barrierPhases = 1;
    p.seed = 7;
    return p;
}

/** One hot lock, every iteration enters a short critical section. */
inline BenchmarkProfile
lockHeavyProfile()
{
    BenchmarkProfile p = computeOnlyProfile();
    p.name = "t-lock";
    p.totalIters = 3000;
    p.numLocks = 1;
    p.lockFreq = 1.0;
    p.csCompute = 60;
    p.csMem = 1;
    return p;
}

/** Many short barrier phases with skewed work. */
inline BenchmarkProfile
barrierHeavyProfile()
{
    BenchmarkProfile p = computeOnlyProfile();
    p.name = "t-barrier";
    p.totalIters = 4000;
    p.barrierPhases = 16;
    p.imbalanceSkew = 0.3;
    return p;
}

/** Shared-heavy profile with a moving hot window (positive interf.). */
inline BenchmarkProfile
sharingProfile()
{
    BenchmarkProfile p = computeOnlyProfile();
    p.name = "t-sharing";
    p.totalIters = 4000;
    p.memPerIter = 12;
    p.sharedBytes = 512 * 1024;
    p.sharedFrac = 0.5;
    p.sharedHotFrac = 0.5;
    p.sharedHotBytes = 32 * 1024;
    p.sharedWindowPhases = 2;
    p.barrierPhases = 8;
    return p;
}

/** Footprint far beyond the LLC: steady DRAM traffic. */
inline BenchmarkProfile
memoryHeavyProfile()
{
    BenchmarkProfile p = computeOnlyProfile();
    p.name = "t-memory";
    p.totalIters = 2000;
    p.memPerIter = 16;
    p.privateBytes = 4 * 1024 * 1024;
    p.privateHotBytes = 16 * 1024;
    p.privateHotFrac = 0.9;
    return p;
}

/** Every accounting and ground-truth counter of one thread equal. */
inline void
expectSameCounters(const ThreadCounters &a, const ThreadCounters &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.spinInstructions, b.spinInstructions);
    EXPECT_EQ(a.llcLoadMissStall, b.llcLoadMissStall);
    EXPECT_EQ(a.llcLoadMisses, b.llcLoadMisses);
    EXPECT_EQ(a.negLlcSampledStall, b.negLlcSampledStall);
    EXPECT_EQ(a.interThreadMissesSampled, b.interThreadMissesSampled);
    EXPECT_EQ(a.interThreadHitsSampled, b.interThreadHitsSampled);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.atdSampledAccesses, b.atdSampledAccesses);
    EXPECT_EQ(a.busWaitOther, b.busWaitOther);
    EXPECT_EQ(a.bankWaitOther, b.bankWaitOther);
    EXPECT_EQ(a.pageConflictOther, b.pageConflictOther);
    EXPECT_EQ(a.spinDetectedTian, b.spinDetectedTian);
    EXPECT_EQ(a.spinDetectedLi, b.spinDetectedLi);
    EXPECT_EQ(a.yieldCycles, b.yieldCycles);
    EXPECT_EQ(a.coherencyMisses, b.coherencyMisses);
    EXPECT_EQ(a.gtLockSpin, b.gtLockSpin);
    EXPECT_EQ(a.gtBarrierSpin, b.gtBarrierSpin);
    EXPECT_EQ(a.gtLockYield, b.gtLockYield);
    EXPECT_EQ(a.gtBarrierYield, b.gtBarrierYield);
    EXPECT_EQ(a.gtPreemptYield, b.gtPreemptYield);
    EXPECT_EQ(a.gtMemWaitOther, b.gtMemWaitOther);
    EXPECT_EQ(a.finishTime, b.finishTime);
}

/** The cache ground truth of one core equal. */
inline void
expectSameCacheStats(const CacheStats &a, const CacheStats &b)
{
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.coherencyMisses, b.coherencyMisses);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.llcHits, b.llcHits);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.interThreadHitsSampled, b.interThreadHitsSampled);
    EXPECT_EQ(a.interThreadMissesSampled, b.interThreadMissesSampled);
    EXPECT_EQ(a.oracleInterThreadHits, b.oracleInterThreadHits);
    EXPECT_EQ(a.oracleInterThreadMisses, b.oracleInterThreadMisses);
    EXPECT_EQ(a.invalidationsReceived, b.invalidationsReceived);
    EXPECT_EQ(a.writebacks, b.writebacks);
}

/** Two runs equal: totals, per-thread counters, per-core cache stats
 *  and the number of region snapshots. */
inline void
expectSameRun(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.nthreads, b.nthreads);
    EXPECT_EQ(a.ncores, b.ncores);
    EXPECT_EQ(a.executionTime, b.executionTime);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_EQ(a.totalSpinInstructions, b.totalSpinInstructions);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t t = 0; t < a.threads.size(); ++t)
        expectSameCounters(a.threads[t], b.threads[t]);
    ASSERT_EQ(a.cacheStats.size(), b.cacheStats.size());
    for (std::size_t c = 0; c < a.cacheStats.size(); ++c)
        expectSameCacheStats(a.cacheStats[c], b.cacheStats[c]);
    EXPECT_EQ(a.regions.size(), b.regions.size());
}

/**
 * Two experiments equal bit for bit (not approximately: determinism
 * is exact) on every summary field, which is all a result-cache hit
 * carries.
 */
inline void
expectSameSummary(const SpeedupExperiment &a, const SpeedupExperiment &b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.nthreads, b.nthreads);
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.tp, b.tp);
    EXPECT_EQ(a.actualSpeedup, b.actualSpeedup);
    EXPECT_EQ(a.estimatedSpeedup, b.estimatedSpeedup);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.parOverheadMeasured, b.parOverheadMeasured);
    EXPECT_EQ(a.stack.baseSpeedup, b.stack.baseSpeedup);
    EXPECT_EQ(a.stack.posLlc, b.stack.posLlc);
    EXPECT_EQ(a.stack.negLlc, b.stack.negLlc);
    EXPECT_EQ(a.stack.negMem, b.stack.negMem);
    EXPECT_EQ(a.stack.spin, b.stack.spin);
    EXPECT_EQ(a.stack.yield, b.stack.yield);
    EXPECT_EQ(a.stack.imbalance, b.stack.imbalance);
    EXPECT_EQ(a.stack.coherency, b.stack.coherency);
}

/** expectSameSummary() plus both runs; for freshly executed results. */
inline void
expectSameExperiment(const SpeedupExperiment &a, const SpeedupExperiment &b)
{
    expectSameSummary(a, b);
    expectSameRun(a.single, b.single);
    expectSameRun(a.parallel, b.parallel);
}

/**
 * Run @p specs through the driver, with no result cache, while it
 * records each job's canonical trace into @p dir (`--record-dir`).
 * Returns the live results with their full runs (DriverOptions::
 * fullRuns), so callers compare per-core stats and region snapshots
 * too. Every job must succeed and be recorded.
 * Each recorded baseline stream must also replay to the generated
 * 1-thread run of its group, counter for counter: the driver never
 * reads those streams back, but `sst trace info` checks them and the
 * layer benchmark replays them.
 */
inline std::vector<JobResult>
recordTraces(const std::vector<JobSpec> &specs, const std::string &dir,
             int jobs = 1)
{
    DriverOptions opts;
    opts.jobs = jobs;
    opts.recordDir = dir;
    opts.fullRuns = true;
    const std::vector<JobResult> results = runExperimentBatch(specs, opts);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const JobSpec &spec = specs[i];
        EXPECT_TRUE(results[i].ok()) << results[i].error;
        EXPECT_TRUE(results[i].traceRecorded) << spec.label();
        if (!results[i].traceRecorded)
            continue;
        const WorkloadSpec w = spec.effectiveWorkload();
        const TraceReader reader(tracePathFor(
            dir, w, spec.seedOffset, spec.params.schedPolicy,
            spec.params.schedSeed));
        for (int g = 0; g < w.ngroups(); ++g)
            expectSameRun(
                replayBaseline(spec.params, reader, g),
                simulateSources(spec.params,
                                workloadGroupBaselineSources(w, g), 1));
    }
    return results;
}

} // namespace test
} // namespace sst

#endif // SST_TESTS_TEST_UTIL_HH
