/**
 * @file
 * Unit tests for the accounting hardware unit and the software
 * post-processing (report) step.
 */

#include <gtest/gtest.h>

#include "accounting/accounting_unit.hh"
#include "accounting/report.hh"

namespace sst {
namespace {

TEST(AccountingUnit, InstructionCounters)
{
    AccountingUnit acct(2, AccountingParams{});
    acct.onInstructions(0, 100);
    acct.onSpinInstructions(0, 8);
    EXPECT_EQ(acct.counters(0).instructions, 108u);
    EXPECT_EQ(acct.counters(0).spinInstructions, 8u);
    EXPECT_EQ(acct.counters(1).instructions, 0u);
}

TEST(AccountingUnit, LlcAccessAndSampling)
{
    AccountingUnit acct(1, AccountingParams{});
    acct.onLlcAccess(0, true);
    acct.onLlcAccess(0, false);
    acct.onLlcAccess(0, true);
    EXPECT_EQ(acct.counters(0).llcAccesses, 3u);
    EXPECT_EQ(acct.counters(0).atdSampledAccesses, 2u);
}

TEST(AccountingUnit, InterThreadMissTakesWholeStall)
{
    AccountingUnit acct(1, AccountingParams{});
    acct.onLlcLoadMissComplete(0, 50, /*sampled=*/true,
                               /*inter_thread=*/true, 10, 10, 10);
    const ThreadCounters &c = acct.counters(0);
    EXPECT_EQ(c.negLlcSampledStall, 50u);
    EXPECT_EQ(c.interThreadMissesSampled, 1u);
    // No memory attribution for inter-thread misses (disjointness).
    EXPECT_EQ(c.busWaitOther + c.bankWaitOther + c.pageConflictOther, 0u);
}

TEST(AccountingUnit, IntraThreadMissAttributesClampedWaits)
{
    AccountingUnit acct(1, AccountingParams{});
    // Waits sum to 60 but only 25 cycles blocked the ROB head.
    acct.onLlcLoadMissComplete(0, 25, true, false, 20, 20, 20);
    const ThreadCounters &c = acct.counters(0);
    EXPECT_EQ(c.negLlcSampledStall, 0u);
    EXPECT_EQ(c.busWaitOther, 20u);
    EXPECT_EQ(c.bankWaitOther, 5u);  // clamped
    EXPECT_EQ(c.pageConflictOther, 0u);
}

TEST(AccountingUnit, UnsampledMissOnlyCountsPenaltyStats)
{
    AccountingUnit acct(1, AccountingParams{});
    acct.onLlcLoadMissComplete(0, 40, false, false, 10, 0, 0);
    const ThreadCounters &c = acct.counters(0);
    EXPECT_EQ(c.llcLoadMissStall, 40u);
    EXPECT_EQ(c.llcLoadMisses, 1u);
    EXPECT_EQ(c.busWaitOther, 0u);
}

TEST(AccountingUnit, SpinDetectorIntegration)
{
    AccountingUnit acct(1, AccountingParams{});
    Cycles now = 0;
    for (int i = 0; i < 10; ++i) {
        acct.onLoad(0, 0x100, 0xF000, 1, false, now);
        now += 20;
    }
    acct.onLoad(0, 0x100, 0xF000, 0, true, now);
    EXPECT_EQ(acct.counters(0).spinDetectedTian, 200u);
}

TEST(AccountingUnit, DescheduleFlushesDetectors)
{
    AccountingUnit acct(1, AccountingParams{});
    Cycles now = 0;
    for (int i = 0; i < 10; ++i) {
        acct.onLoad(0, 0x100, 0xF000, 1, false, now);
        now += 20;
    }
    acct.onDescheduled(0);
    // Post-wake change is not attributed to the pre-yield spin.
    acct.onLoad(0, 0x100, 0xF000, 0, true, now);
    EXPECT_EQ(acct.counters(0).spinDetectedTian, 0u);
}

TEST(AccountingUnit, ResetThreadZeroesCounters)
{
    AccountingUnit acct(1, AccountingParams{});
    acct.onInstructions(0, 100);
    acct.onYield(0, 500);
    acct.resetThread(0);
    EXPECT_EQ(acct.counters(0).instructions, 0u);
    EXPECT_EQ(acct.counters(0).yieldCycles, 0u);
}

TEST(Report, MeasuredSamplingFactorFallsBackToNominal)
{
    ThreadCounters c;
    EXPECT_DOUBLE_EQ(measuredSamplingFactor(c, 32.0), 32.0);
    c.llcAccesses = 300;
    c.atdSampledAccesses = 10;
    EXPECT_DOUBLE_EQ(measuredSamplingFactor(c, 32.0), 30.0);
    c.atdSampledAccesses = 15;
    EXPECT_DOUBLE_EQ(measuredSamplingFactor(c, 32.0), 20.0);
}

TEST(Report, AverageMissPenalty)
{
    ThreadCounters c;
    EXPECT_DOUBLE_EQ(averageMissPenalty(c), 0.0);
    c.llcLoadMissStall = 500;
    c.llcLoadMisses = 10;
    EXPECT_DOUBLE_EQ(averageMissPenalty(c), 50.0);
}

TEST(Report, ComponentExtrapolationAndInterpolation)
{
    ThreadCounters c;
    c.llcAccesses = 640;
    c.atdSampledAccesses = 20; // measured factor 32
    c.negLlcSampledStall = 100;
    c.interThreadHitsSampled = 5;
    c.llcLoadMissStall = 1000;
    c.llcLoadMisses = 20; // avg penalty 50
    c.busWaitOther = 10;
    c.spinDetectedTian = 77;
    c.yieldCycles = 42;
    c.finishTime = 900;

    ReportOptions opts;
    opts.nominalSamplingFactor = 32.0;
    const std::vector<CycleComponents> comps =
        computeComponents({c}, /*tp=*/1000, opts);
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_DOUBLE_EQ(comps[0].negLlc, 100.0 * 32.0);
    EXPECT_DOUBLE_EQ(comps[0].posLlc, 5.0 * 32.0 * 50.0);
    EXPECT_DOUBLE_EQ(comps[0].negMem, 10.0 * 32.0);
    EXPECT_DOUBLE_EQ(comps[0].spin, 77.0);
    EXPECT_DOUBLE_EQ(comps[0].yield, 42.0);
    EXPECT_DOUBLE_EQ(comps[0].imbalance, 100.0);
    EXPECT_DOUBLE_EQ(comps[0].coherency, 0.0);
}

TEST(Report, LiDetectorOption)
{
    ThreadCounters c;
    c.spinDetectedTian = 10;
    c.spinDetectedLi = 99;
    c.finishTime = 100;
    ReportOptions opts;
    opts.spinDetector = AccountingParams::Detector::kLi;
    const auto comps = computeComponents({c}, 100, opts);
    EXPECT_DOUBLE_EQ(comps[0].spin, 99.0);
}

TEST(Report, CoherencyOption)
{
    ThreadCounters c;
    c.coherencyMisses = 7;
    c.finishTime = 100;
    ReportOptions opts;
    opts.accountCoherency = true;
    opts.coherencyMissPenalty = 10.0;
    const auto comps = computeComponents({c}, 100, opts);
    EXPECT_DOUBLE_EQ(comps[0].coherency, 70.0);
}

} // namespace
} // namespace sst
