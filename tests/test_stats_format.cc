/**
 * @file
 * Unit tests for the statistics helpers and text formatting.
 */

#include <gtest/gtest.h>

#include "util/format.hh"
#include "util/stats.hh"

namespace sst {
namespace {

TEST(RunningStat, BasicMoments)
{
    RunningStat s;
    for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), 2.138, 1e-3); // sample stddev
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, SingleSample)
{
    RunningStat s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 42.0);
    EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.setHeader({"a", "bbbb"});
    t.addRow({"xxxx", "y"});
    const std::string out = t.render();
    EXPECT_NE(out.find("a     bbbb"), std::string::npos);
    EXPECT_NE(out.find("xxxx  y"), std::string::npos);
}

TEST(TextTable, CsvOutput)
{
    TextTable t;
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.renderCsv(), "a,b\n1,2\n");
}

TEST(Format, Doubles)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtDouble(-1.0, 0), "-1");
}

TEST(Format, Percent)
{
    EXPECT_EQ(fmtPercent(0.051, 1), "5.1%");
    EXPECT_EQ(fmtPercent(-0.25, 0), "-25%");
}

TEST(Format, Bytes)
{
    EXPECT_EQ(fmtBytes(2 * 1024 * 1024), "2MB");
    EXPECT_EQ(fmtBytes(64 * 1024), "64KB");
    EXPECT_EQ(fmtBytes(952), "952B");
}

TEST(Format, Padding)
{
    EXPECT_EQ(padLeft("x", 3), "  x");
    EXPECT_EQ(padRight("x", 3), "x  ");
    EXPECT_EQ(padLeft("xyz", 2), "xyz");
}

} // namespace
} // namespace sst
