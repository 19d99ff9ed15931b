/**
 * @file
 * Figure-level regression tests: the qualitative claims of the paper's
 * evaluation, asserted on a representative subset so the full table
 * benches cannot silently drift.
 */

#include <gtest/gtest.h>

#include "core/classify.hh"
#include "core/experiment.hh"
#include "workload/profile.hh"

namespace sst {
namespace {

SpeedupExperiment
run16(const std::string &label)
{
    const BenchmarkProfile &p = profileByLabel(label);
    SimParams params;
    params.ncores = 16;
    return runExperiment(params, WorkloadSpec::homogeneous(p, 16));
}

TEST(PaperFigures, ScalingClassesMatchFigure6)
{
    for (const char *label :
         {"blackscholes_medium", "radix", "heartwall"}) {
        EXPECT_EQ(classifySpeedup(run16(label).actualSpeedup),
                  ScalingClass::kGood)
            << label;
    }
    for (const char *label : {"cholesky", "facesim_small", "fft"}) {
        EXPECT_EQ(classifySpeedup(run16(label).actualSpeedup),
                  ScalingClass::kModerate)
            << label;
    }
    for (const char *label : {"ferret_small", "bodytrack_small"}) {
        EXPECT_EQ(classifySpeedup(run16(label).actualSpeedup),
                  ScalingClass::kPoor)
            << label;
    }
}

TEST(PaperFigures, CholeskyIsSpinDominated)
{
    const SpeedupExperiment exp = run16("cholesky");
    const auto ranked = rankedDelimiters(exp.stack);
    ASSERT_FALSE(ranked.empty());
    EXPECT_EQ(ranked[0], StackComponent::kSpin);
    // Figure 8: cholesky has the suite's largest positive interference,
    // exceeded by its negative interference (net positive).
    EXPECT_GT(exp.stack.posLlc, 0.2);
    EXPECT_GT(exp.stack.negLlc, exp.stack.posLlc);
}

TEST(PaperFigures, FacesimIsYieldThenCache)
{
    const SpeedupExperiment exp = run16("facesim_medium");
    const auto ranked = rankedDelimiters(exp.stack);
    ASSERT_GE(ranked.size(), 2u);
    EXPECT_EQ(ranked[0], StackComponent::kYield);
    EXPECT_EQ(ranked[1], StackComponent::kNegLlcNet);
}

TEST(PaperFigures, BlackscholesHasNoDelimiters)
{
    const SpeedupExperiment exp = run16("blackscholes_medium");
    EXPECT_TRUE(rankedDelimiters(exp.stack).empty());
    EXPECT_GT(exp.actualSpeedup, 15.0);
}

TEST(PaperFigures, LargerLlcRemovesNegativeInterferenceOnly)
{
    // Figure 9's mechanism on cholesky: 2MB -> 8MB kills negative
    // interference while positive interference survives.
    const BenchmarkProfile &p = profileByLabel("cholesky");
    SimParams small;
    small.ncores = 16;
    SimParams big = small;
    big.cache.llcBytes = 8 * 1024 * 1024;
    const SpeedupExperiment s =
        runExperiment(small, WorkloadSpec::homogeneous(p, 16));
    const SpeedupExperiment b =
        runExperiment(big, WorkloadSpec::homogeneous(p, 16));
    EXPECT_LT(b.stack.negLlc, 0.25 * s.stack.negLlc + 0.05);
    EXPECT_GT(b.stack.posLlc, 0.25 * s.stack.posLlc);
    EXPECT_LT(b.stack.netNegLlc(), s.stack.netNegLlc());
}

TEST(PaperFigures, OversubscriptionHelpsFerret)
{
    // Figure 7's claim on 4 cores.
    const BenchmarkProfile &p = profileByLabel("ferret_small");
    SimParams params;
    params.ncores = 4;
    const RunResult baseline = runSingleThreaded(params, p);
    const RunResult equal =
        simulateWorkload(params, WorkloadSpec::homogeneous(p, 4), 4);
    const RunResult over =
        simulateWorkload(params, WorkloadSpec::homogeneous(p, 16), 4);
    EXPECT_LT(over.executionTime, equal.executionTime);
    EXPECT_GT(baseline.executionTime, over.executionTime);
}

} // namespace
} // namespace sst
