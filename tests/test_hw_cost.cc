/**
 * @file
 * Unit tests for the hardware cost model (Section 4.7): the paper's
 * quoted numbers must fall out of the geometry.
 */

#include <gtest/gtest.h>

#include "accounting/hw_cost.hh"

namespace sst {
namespace {

TEST(HwCost, MatchesPaperNumbers)
{
    const HwCostBreakdown b = computeHwCost();
    EXPECT_EQ(b.interferenceBytesPerCore(), 952u);
    EXPECT_EQ(b.spinTableBytes(), 217u);
    EXPECT_EQ(b.totalBytesPerCore(), 1169u); // ~1.1KB
    EXPECT_EQ(b.totalBytesChip(16), 18704u); // ~18KB
}

TEST(HwCost, AtdDominatesInterferenceCost)
{
    const HwCostBreakdown b = computeHwCost();
    EXPECT_GT(b.atdBytes(), b.oraBytes());
    EXPECT_GT(b.atdBytes(), b.counterBytes());
}

TEST(HwCost, AtdBytesScaleInverselyWithSampling)
{
    for (const int factor : {32, 64}) {
        HwCostConfig a, b;
        a.atdSamplingFactor = factor;
        b.atdSamplingFactor = 2 * factor;
        EXPECT_EQ(computeHwCost(a).atdBits, 2 * computeHwCost(b).atdBits)
            << "factor " << factor;
    }
}

TEST(HwCost, LargerLlcMeansMoreMonitoredSets)
{
    HwCostConfig small, large;
    large.llcBytes = 2 * small.llcBytes;
    // Twice the sets at the same sampling factor -> near 2x ATD bits
    // (tag shrinks by one bit, so slightly less than 2x).
    EXPECT_GT(computeHwCost(large).atdBits, computeHwCost(small).atdBits);
    EXPECT_LT(computeHwCost(large).atdBits,
              2 * computeHwCost(small).atdBits);
}

TEST(HwCost, OraScalesWithBanks)
{
    HwCostConfig a, b;
    a.nbanks = 8;
    b.nbanks = 16;
    EXPECT_LT(computeHwCost(a).oraBits, computeHwCost(b).oraBits);
}

TEST(HwCost, OraRowFieldShrinksWithRowSize)
{
    // Four times the row bytes is two fewer row-number bits per bank.
    HwCostConfig a, b;
    a.dramRowBytes = 1024;
    b.dramRowBytes = 4096;
    EXPECT_EQ(computeHwCost(a).oraBits,
              computeHwCost(b).oraBits + 2 * static_cast<std::uint64_t>(
                                                 a.nbanks));
}

} // namespace
} // namespace sst
