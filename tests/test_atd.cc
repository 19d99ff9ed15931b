/**
 * @file
 * Unit and property tests for the auxiliary tag directory (ATD).
 */

#include <gtest/gtest.h>

#include "cache/atd.hh"
#include "util/rng.hh"

namespace sst {
namespace {

constexpr std::uint64_t kLlcBytes = 2 * 1024 * 1024;
constexpr int kLlcWays = 16;
constexpr int kLlcSets = 2048;

TEST(Atd, FullShadowSamplesEverything)
{
    Atd atd(kLlcBytes, kLlcWays, 1);
    for (Addr line = 0; line < 100; ++line)
        EXPECT_TRUE(atd.isSampled(line));
}

TEST(Atd, SamplingSelectsEveryNthSet)
{
    const int factor = 32;
    Atd atd(kLlcBytes, kLlcWays, factor);
    int sampled = 0;
    for (Addr line = 0; line < kLlcSets; ++line) {
        if (atd.isSampled(line)) {
            ++sampled;
            EXPECT_EQ(line % factor, 0u);
        }
    }
    EXPECT_EQ(sampled, kLlcSets / factor);
}

TEST(Atd, HitAfterAccess)
{
    Atd atd(kLlcBytes, kLlcWays, 1);
    const Addr line = 123;
    EXPECT_FALSE(atd.access(line).hit);
    EXPECT_TRUE(atd.access(line).hit);
}

TEST(Atd, UnsampledAccessesAreIgnored)
{
    Atd atd(kLlcBytes, kLlcWays, 32);
    const Addr unsampled = 1; // set 1, not a multiple of 32
    const Atd::Probe p = atd.access(unsampled);
    EXPECT_FALSE(p.sampled);
    EXPECT_EQ(atd.sampledAccesses(), 0u);
}

TEST(Atd, CountsSampledAccesses)
{
    Atd atd(kLlcBytes, kLlcWays, 32);
    atd.access(0);
    atd.access(32);
    atd.access(0);
    atd.access(5); // unsampled
    EXPECT_EQ(atd.sampledAccesses(), 3u);
}

TEST(Atd, DistinctTagsSameSetDoNotAlias)
{
    Atd atd(kLlcBytes, kLlcWays, 32);
    // Two lines mapping to sampled set 0 with different tags.
    const Addr a = 0;
    const Addr b = kLlcSets; // same set index, different tag
    atd.access(a);
    EXPECT_FALSE(atd.access(b).hit);
    EXPECT_TRUE(atd.access(a).hit);
    EXPECT_TRUE(atd.access(b).hit);
}

TEST(Atd, ModelsPrivateLlcCapacity)
{
    // A full shadow ATD holds exactly sets x ways lines; a working set
    // beyond that evicts.
    Atd atd(64 * 1024, 4, 1); // 256 sets x 4 ways = 1024 lines
    for (Addr line = 0; line < 1024; ++line)
        atd.access(line);
    // All resident.
    int hits = 0;
    for (Addr line = 0; line < 1024; ++line)
        hits += atd.access(line).hit ? 1 : 0;
    EXPECT_EQ(hits, 1024);
}

/** Property: the sampled ATD behaves identically to a full shadow on
 *  the sampled subset of sets. */
class AtdEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(AtdEquivalence, SampledMatchesFullShadowOnSampledSets)
{
    const int factor = GetParam();
    Atd sampled(kLlcBytes, kLlcWays, factor);
    Atd full(kLlcBytes, kLlcWays, 1);

    Rng rng(factor);
    for (int i = 0; i < 20000; ++i) {
        const Addr line = rng.below(1 << 16);
        const Atd::Probe ps = sampled.access(line);
        const Atd::Probe pf = full.access(line);
        if (ps.sampled) {
            EXPECT_EQ(ps.hit, pf.hit) << "line " << line;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Factors, AtdEquivalence,
                         ::testing::Values(2, 8, 32, 128));

} // namespace
} // namespace sst
