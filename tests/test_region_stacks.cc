/**
 * @file
 * Tests for per-region speedup stacks (Section 4.6): region spans tile
 * the run, every region's stack satisfies the height identity, and the
 * time-weighted aggregation is consistent with the whole-run stack.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/region_stacks.hh"
#include "test_util.hh"

namespace sst {
namespace {

RunResult
runBarrierHeavy(int nthreads)
{
    const BenchmarkProfile p = test::barrierHeavyProfile();
    SimParams params;
    params.ncores = nthreads;
    return simulateWorkload(params, WorkloadSpec::homogeneous(p, nthreads));
}

TEST(RegionStacks, RegionsTileTheRun)
{
    const RunResult run = runBarrierHeavy(8);
    const std::vector<RegionStack> regions = buildRegionStacks(run);
    ASSERT_FALSE(regions.empty());
    EXPECT_EQ(regions.front().begin, 0u);
    for (std::size_t i = 1; i < regions.size(); ++i)
        EXPECT_EQ(regions[i].begin, regions[i - 1].end);
    EXPECT_EQ(regions.back().end, run.executionTime);
}

TEST(RegionStacks, OneRegionPerBarrierEpisode)
{
    const RunResult run = runBarrierHeavy(4);
    const std::vector<RegionStack> regions = buildRegionStacks(run);
    // 16 phases with a final barrier: 16 boundaries; a tail region only
    // if the threads did work after the last barrier.
    EXPECT_GE(regions.size(), 16u);
    EXPECT_LE(regions.size(), 17u);
}

TEST(RegionStacks, EveryRegionSumsToHeight)
{
    const RunResult run = runBarrierHeavy(8);
    for (const RegionStack &r : buildRegionStacks(run)) {
        EXPECT_TRUE(r.stack.sumsToHeight(1e-6))
            << "region ending at " << r.end;
        EXPECT_EQ(r.stack.nthreads, 8);
    }
}

TEST(RegionStacks, SequentialRunHasNoRegions)
{
    const BenchmarkProfile p = test::barrierHeavyProfile();
    SimParams params;
    params.ncores = 1;
    const RunResult run =
        simulateWorkload(params, WorkloadSpec::homogeneous(p, 1));
    const std::vector<RegionStack> regions = buildRegionStacks(run);
    // No barriers in the sequential program: one tail region at most.
    EXPECT_LE(regions.size(), 1u);
}

TEST(RegionStacks, SkewedRegionsShowMoreWaiting)
{
    const RunResult run = runBarrierHeavy(8);
    const std::vector<RegionStack> regions = buildRegionStacks(run);
    // With 0.3 skew, the barrier wait should be a visible component in
    // most regions (spin + yield well above zero).
    int waiting_regions = 0;
    for (const RegionStack &r : regions) {
        if (r.stack.spin + r.stack.yield > 0.2)
            ++waiting_regions;
    }
    EXPECT_GT(waiting_regions, static_cast<int>(regions.size()) / 2);
}

TEST(RegionStacks, TimeWeightedYieldMatchesWholeRun)
{
    const BenchmarkProfile p = test::barrierHeavyProfile();
    SimParams params;
    params.ncores = 8;
    const SpeedupExperiment exp =
        runExperiment(params, WorkloadSpec::homogeneous(p, 8));
    const std::vector<RegionStack> regions =
        buildRegionStacks(exp.parallel, defaultReportOptions(params));
    double wsum = 0.0, yield = 0.0, spin = 0.0;
    for (const RegionStack &r : regions) {
        const double span = static_cast<double>(r.end - r.begin);
        wsum += span;
        yield += r.stack.yield * span;
        spin += r.stack.spin * span;
    }
    ASSERT_GT(wsum, 0.0);
    EXPECT_NEAR(yield / wsum, exp.stack.yield,
                0.05 * exp.stack.yield + 0.05);
    EXPECT_NEAR(spin / wsum, exp.stack.spin, exp.stack.spin * 0.2 + 0.05);
}

} // namespace
} // namespace sst
