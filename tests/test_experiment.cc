/**
 * @file
 * Integration tests of the experiment runner and end-to-end validation
 * bounds on real suite profiles (a compressed version of the paper's
 * Section 6 validation).
 */

#include <cmath>
#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "workload/profile.hh"

namespace sst {
namespace {

TEST(Experiment, ReusesBaselineAcrossThreadCounts)
{
    const BenchmarkProfile &p = profileByLabel("blackscholes_small");
    SimParams params;
    const RunResult baseline = runSingleThreaded(params, p);
    const SpeedupExperiment e2 =
        runExperiment(params, WorkloadSpec::homogeneous(p, 2));
    const SpeedupExperiment e4 =
        runExperiment(params, WorkloadSpec::homogeneous(p, 4));
    EXPECT_EQ(e2.ts, baseline.executionTime);
    EXPECT_EQ(e2.ts, e4.ts);
    EXPECT_GT(e4.actualSpeedup, e2.actualSpeedup);
}

TEST(Experiment, StackAlwaysSumsToHeight)
{
    for (const char *label : {"cholesky", "facesim_small", "radix"}) {
        const BenchmarkProfile &p = profileByLabel(label);
        SimParams params;
        params.ncores = 8;
        const SpeedupExperiment exp =
            runExperiment(params, WorkloadSpec::homogeneous(p, 8));
        EXPECT_TRUE(exp.stack.sumsToHeight(1e-6)) << label;
        EXPECT_EQ(exp.stack.nthreads, 8);
    }
}

TEST(Experiment, SuiteRegistryComplete)
{
    EXPECT_EQ(benchmarkSuite().size(), 28u);
    EXPECT_EQ(profileRegistry().names().size(), 28u);
    // Paper composition: 12 PARSEC rows, 7 SPLASH-2, 5 Rodinia... count
    // by suite to catch registry regressions.
    int parsec = 0, splash = 0, rodinia = 0;
    for (const auto &p : benchmarkSuite()) {
        parsec += p.suite == "parsec";
        splash += p.suite == "splash2";
        rodinia += p.suite == "rodinia";
    }
    EXPECT_EQ(parsec + splash + rodinia, 28);
    EXPECT_EQ(splash, 7);
    EXPECT_EQ(rodinia, 5);
    EXPECT_EQ(parsec, 16);
}

TEST(Experiment, LookupByLabelAndName)
{
    EXPECT_EQ(profileByLabel("cholesky").name, "cholesky");
    EXPECT_EQ(profileByLabel("facesim_medium").input, "medium");
    EXPECT_EQ(profileByLabel("facesim").name, "facesim");
    EXPECT_DEATH(profileByLabel("nonexistent"), "unknown benchmark");
}

/** Compressed Section 6 validation: estimation error within sane bounds
 *  for a representative subset at 8 and 16 threads. */
class ValidationSweep
    : public ::testing::TestWithParam<std::tuple<const char *, int>>
{
};

TEST_P(ValidationSweep, ErrorWithinBounds)
{
    const auto [label, nthreads] = GetParam();
    const BenchmarkProfile &p = profileByLabel(label);
    SimParams params;
    params.ncores = nthreads;
    const SpeedupExperiment exp =
        runExperiment(params, WorkloadSpec::homogeneous(p, nthreads));

    EXPECT_GT(exp.actualSpeedup, 1.0);
    EXPECT_LE(exp.actualSpeedup, nthreads * 1.05);
    EXPECT_GT(exp.estimatedSpeedup, 0.0);
    // The paper's worst case is 22%; leave headroom for the subset.
    EXPECT_LT(std::fabs(exp.error), 0.25)
        << label << " @ " << nthreads << ": actual "
        << exp.actualSpeedup << " estimated " << exp.estimatedSpeedup;
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, ValidationSweep,
    ::testing::Combine(::testing::Values("blackscholes_small", "cholesky",
                                         "facesim_small", "lud",
                                         "ferret_small", "canneal_small"),
                       ::testing::Values(8, 16)));

TEST(Experiment, PaperSpeedupReproduced16Threads)
{
    // The headline reproduction: every profile's measured speedup at 16
    // threads lands within 10% (relative) of the paper's Figure 6 value.
    for (const char *label :
         {"blackscholes_medium", "cholesky", "facesim_medium",
          "ferret_small", "swaptions_medium", "needle"}) {
        const BenchmarkProfile &p = profileByLabel(label);
        SimParams params;
        params.ncores = 16;
        const SpeedupExperiment exp =
            runExperiment(params, WorkloadSpec::homogeneous(p, 16));
        EXPECT_NEAR(exp.actualSpeedup, p.paperSpeedup16,
                    0.10 * p.paperSpeedup16)
            << label;
    }
}

} // namespace
} // namespace sst
