/**
 * @file
 * End-to-end smoke tests: a small benchmark simulates to completion on
 * 1..16 threads, produces a well-formed speedup stack, and the estimate
 * lands in a sane range.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "workload/profile.hh"

namespace sst {
namespace {

TEST(Smoke, BlackscholesSmallRunsToCompletion)
{
    const BenchmarkProfile &profile = profileByLabel("blackscholes_small");
    SimParams params;
    params.ncores = 4;
    const SpeedupExperiment exp =
        runExperiment(params, WorkloadSpec::homogeneous(profile, 4));
    EXPECT_GT(exp.ts, 0u);
    EXPECT_GT(exp.tp, 0u);
    EXPECT_GT(exp.actualSpeedup, 1.0);
    EXPECT_LE(exp.actualSpeedup, 4.2);
    EXPECT_TRUE(exp.stack.sumsToHeight(1e-6));
}

} // namespace
} // namespace sst
