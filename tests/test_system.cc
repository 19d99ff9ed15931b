/**
 * @file
 * Integration tests of the CMP simulator: controlled mini-workloads
 * exercising each scaling delimiter, determinism, oversubscription, and
 * the mutual-exclusion / barrier protocol invariants visible through
 * the sync state and accounting.
 */

#include <gtest/gtest.h>

#include "sim/system.hh"
#include "test_util.hh"

namespace sst {
namespace {

SimParams
paramsFor(int ncores)
{
    SimParams p;
    p.ncores = ncores;
    return p;
}

TEST(System, SequentialRunCompletes)
{
    const BenchmarkProfile p = test::computeOnlyProfile();
    // The factory owns the profile the thread programs reference.
    const OpSourceFactory sources =
        workloadOpSources(WorkloadSpec::homogeneous(p, 1));
    System sys(paramsFor(1), sources, 1);
    const RunResult res = sys.run();
    EXPECT_GT(res.executionTime, 0u);
    EXPECT_EQ(res.nthreads, 1);
    EXPECT_GT(res.totalInstructions, 0u);
}

TEST(System, RunIsDeterministic)
{
    const OpSourceFactory sources = workloadOpSources(
        WorkloadSpec::homogeneous(test::barrierHeavyProfile(), 4));
    SimParams params = paramsFor(4);
    System a(params, sources, 4), b(params, sources, 4);
    const RunResult ra = a.run();
    const RunResult rb = b.run();
    EXPECT_EQ(ra.executionTime, rb.executionTime);
    EXPECT_EQ(ra.totalInstructions, rb.totalInstructions);
    for (int t = 0; t < 4; ++t) {
        EXPECT_EQ(ra.threads[(std::size_t)t].finishTime,
                  rb.threads[(std::size_t)t].finishTime);
    }
}

TEST(System, ParallelismGivesSpeedup)
{
    const BenchmarkProfile p = test::computeOnlyProfile();
    const RunResult seq =
        simulateWorkload(paramsFor(1), WorkloadSpec::homogeneous(p, 1));
    const RunResult par =
        simulateWorkload(paramsFor(4), WorkloadSpec::homogeneous(p, 4));
    const double speedup = static_cast<double>(seq.executionTime) /
                           static_cast<double>(par.executionTime);
    EXPECT_GT(speedup, 3.0);
    EXPECT_LT(speedup, 4.3);
}

TEST(System, LockContentionCausesSpin)
{
    const BenchmarkProfile p = test::lockHeavyProfile();
    SimParams params = paramsFor(8);
    const OpSourceFactory sources =
        workloadOpSources(WorkloadSpec::homogeneous(p, 8));
    System sys(params, sources, 8);
    const RunResult res = sys.run();
    const std::uint64_t gt_spin = res.sumThreads(
        [](const ThreadCounters &t) { return t.gtSpin(); });
    const std::uint64_t detected = res.sumThreads(
        [](const ThreadCounters &t) { return t.spinDetectedTian; });
    EXPECT_GT(gt_spin, 0u);
    EXPECT_GT(detected, 0u);
    // The detector should see a large fraction of true spinning.
    EXPECT_GT(static_cast<double>(detected),
              0.3 * static_cast<double>(gt_spin));
    // And not wildly overcount.
    EXPECT_LT(static_cast<double>(detected),
              1.5 * static_cast<double>(gt_spin));
}

TEST(System, MutualExclusionAccountingConsistent)
{
    const BenchmarkProfile p = test::lockHeavyProfile();
    SimParams params = paramsFor(4);
    const OpSourceFactory sources =
        workloadOpSources(WorkloadSpec::homogeneous(p, 4));
    System sys(params, sources, 4);
    sys.run();
    // Every contended acquisition was eventually served: the lock ends
    // free with an empty wait queue.
    const LockState &lock = sys.sync().lockState(0);
    EXPECT_EQ(lock.owner, kInvalidId);
    EXPECT_TRUE(lock.yieldedWaiters.empty());
    EXPECT_GT(lock.acquisitions, 0u);
}

TEST(System, BarrierSkewCausesYield)
{
    const BenchmarkProfile p = test::barrierHeavyProfile();
    SimParams params = paramsFor(8);
    const RunResult res =
        simulateWorkload(params, WorkloadSpec::homogeneous(p, 8));
    const std::uint64_t yield = res.sumThreads(
        [](const ThreadCounters &t) { return t.yieldCycles; });
    const std::uint64_t gt_yield = res.sumThreads(
        [](const ThreadCounters &t) { return t.gtYield(); });
    EXPECT_GT(yield, 0u);
    EXPECT_EQ(yield, gt_yield) << "OS yield accounting is exact";
}

TEST(System, MemoryHeavyWorkloadStallsOnDram)
{
    const BenchmarkProfile p = test::memoryHeavyProfile();
    const RunResult res =
        simulateWorkload(paramsFor(8), WorkloadSpec::homogeneous(p, 8));
    const std::uint64_t stall = res.sumThreads(
        [](const ThreadCounters &t) { return t.llcLoadMissStall; });
    EXPECT_GT(stall, 0u);
    std::uint64_t dram = 0;
    for (const auto &d : res.dramStats)
        dram += d.accesses;
    EXPECT_GT(dram, 1000u);
}

TEST(System, SharingProfileShowsPositiveInterference)
{
    const BenchmarkProfile p = test::sharingProfile();
    const RunResult res =
        simulateWorkload(paramsFor(8), WorkloadSpec::homogeneous(p, 8));
    const std::uint64_t hits = res.sumThreads(
        [](const ThreadCounters &t) { return t.interThreadHitsSampled; });
    EXPECT_GT(hits, 0u);
}

TEST(System, OversubscriptionCompletesAndTimeShares)
{
    const BenchmarkProfile p = test::barrierHeavyProfile();
    SimParams params = paramsFor(2);
    const RunResult res =
        simulateWorkload(params, WorkloadSpec::homogeneous(p, 8), 2);
    EXPECT_EQ(res.nthreads, 8);
    EXPECT_EQ(res.ncores, 2);
    EXPECT_GT(res.executionTime, 0u);
    // All threads finished.
    for (const auto &t : res.threads)
        EXPECT_GT(t.finishTime, 0u);
}

TEST(System, MoreCoresHelpOversubscribedRun)
{
    const BenchmarkProfile p = test::computeOnlyProfile();
    const RunResult on2 =
        simulateWorkload(paramsFor(2), WorkloadSpec::homogeneous(p, 8), 2);
    const RunResult on8 =
        simulateWorkload(paramsFor(8), WorkloadSpec::homogeneous(p, 8), 8);
    EXPECT_LT(on8.executionTime, on2.executionTime);
}

TEST(System, FinishTimesNeverExceedExecutionTime)
{
    const BenchmarkProfile p = test::barrierHeavyProfile();
    const RunResult res =
        simulateWorkload(paramsFor(8), WorkloadSpec::homogeneous(p, 8));
    for (const auto &t : res.threads)
        EXPECT_LE(t.finishTime, res.executionTime);
}

TEST(System, RunTwiceIsRejected)
{
    const BenchmarkProfile p = test::computeOnlyProfile();
    const OpSourceFactory sources =
        workloadOpSources(WorkloadSpec::homogeneous(p, 1));
    System sys(paramsFor(1), sources, 1);
    sys.run();
    EXPECT_DEATH(sys.run(), "run\\(\\) may only be called once");
}

TEST(System, InstructionCountsScaleWithOverheadKnob)
{
    BenchmarkProfile p = test::computeOnlyProfile();
    p.parOverheadFrac = 0.3;
    const RunResult seq =
        simulateWorkload(paramsFor(1), WorkloadSpec::homogeneous(p, 1));
    const RunResult par =
        simulateWorkload(paramsFor(4), WorkloadSpec::homogeneous(p, 4));
    EXPECT_GT(static_cast<double>(par.totalInstructions),
              1.2 * static_cast<double>(seq.totalInstructions));
}

} // namespace
} // namespace sst
