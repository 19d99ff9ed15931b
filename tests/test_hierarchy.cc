/**
 * @file
 * Unit tests for the cache hierarchy: L1/LLC paths, MSI coherence,
 * coherency-miss classification, inter-thread classification, inclusion
 * and writebacks; a randomized check of the coherence invariants; and
 * the host footprint of the tag state.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>

#if defined(__GLIBC__)
#include <malloc.h>
#if __GLIBC_PREREQ(2, 33)
#define SST_HAVE_MALLINFO2 1
#endif
#endif

#include "cache/hierarchy.hh"

namespace sst {
namespace {

CacheParams
smallParams()
{
    CacheParams p;
    p.l1Bytes = 4 * 1024;
    p.l1Ways = 4;
    p.llcBytes = 64 * 1024;
    p.llcWays = 8;
    p.atdSamplingFactor = 1; // sample everything for deterministic tests
    return p;
}

TEST(Hierarchy, ColdMissThenHits)
{
    CacheHierarchy h(2, smallParams());
    const Addr addr = 0x1000;
    const AccessOutcome first = h.access(0, addr, false);
    EXPECT_FALSE(first.l1Hit);
    EXPECT_FALSE(first.llcHit);
    EXPECT_TRUE(first.dramAccess());

    const AccessOutcome second = h.access(0, addr, false);
    EXPECT_TRUE(second.l1Hit);
    EXPECT_EQ(h.stats(0).l1Hits, 1u);
    EXPECT_EQ(h.stats(0).llcMisses, 1u);
}

TEST(Hierarchy, SecondCoreHitsLlcNotL1)
{
    CacheHierarchy h(2, smallParams());
    const Addr addr = 0x2000;
    h.access(0, addr, false);
    const AccessOutcome out = h.access(1, addr, false);
    EXPECT_FALSE(out.l1Hit);
    EXPECT_TRUE(out.llcHit);
    // Core 1 never brought it privately: inter-thread hit.
    EXPECT_TRUE(out.interThreadHit);
}

TEST(Hierarchy, WriteInvalidatesOtherL1Copies)
{
    CacheHierarchy h(2, smallParams());
    const Addr addr = 0x3000;
    h.access(0, addr, false);
    h.access(1, addr, false);
    // Core 1 writes: core 0's copy must be invalidated.
    h.access(1, addr, true);
    const AccessOutcome out = h.access(0, addr, false);
    EXPECT_FALSE(out.l1Hit);
    EXPECT_TRUE(out.coherencyMiss);
    EXPECT_TRUE(out.llcHit);
    EXPECT_EQ(h.stats(0).invalidationsReceived, 1u);
    EXPECT_EQ(h.stats(0).coherencyMisses, 1u);
}

TEST(Hierarchy, DirtyInOtherL1TriggersTransfer)
{
    CacheHierarchy h(2, smallParams());
    const Addr addr = 0x4000;
    h.access(0, addr, true); // core 0 has the line modified
    const AccessOutcome out = h.access(1, addr, false);
    EXPECT_TRUE(out.llcHit);
    EXPECT_TRUE(out.dirtyInOtherL1);
}

TEST(Hierarchy, WriteHitUpgradeGainsExclusivity)
{
    CacheHierarchy h(2, smallParams());
    const Addr addr = 0x5000;
    h.access(0, addr, false);
    h.access(1, addr, false);
    // Core 0 upgrades its shared copy.
    const AccessOutcome up = h.access(0, addr, true);
    EXPECT_TRUE(up.l1Hit);
    // Core 1 re-reads: coherency miss + dirty transfer from core 0.
    const AccessOutcome re = h.access(1, addr, false);
    EXPECT_TRUE(re.coherencyMiss);
    EXPECT_TRUE(re.dirtyInOtherL1);
}

TEST(Hierarchy, InterThreadMissClassification)
{
    CacheParams params = smallParams();
    CacheHierarchy h(2, params);
    // Core 0 loads a line; core 1 thrashes the LLC set until it is
    // evicted; core 0's re-access misses the LLC but hits its ATD.
    const Addr line0 = 0;
    h.access(0, line0 * kLineBytes, false);
    const int sets = static_cast<int>(params.llcBytes / kLineBytes) /
                     params.llcWays;
    for (int w = 1; w <= params.llcWays + 2; ++w) {
        h.access(1,
                 static_cast<Addr>(w) * static_cast<Addr>(sets) *
                     kLineBytes,
                 false);
    }
    const AccessOutcome out = h.access(0, line0, false);
    EXPECT_FALSE(out.llcHit);
    EXPECT_TRUE(out.interThreadMiss)
        << "evicted by another core but resident in the private shadow";
}

TEST(Hierarchy, InclusiveBackInvalidation)
{
    CacheParams params = smallParams();
    CacheHierarchy h(2, params);
    const Addr addr = 0;
    h.access(0, addr, false);
    // Evict the line from the LLC via core 1's conflicting traffic.
    const int sets = static_cast<int>(params.llcBytes / kLineBytes) /
                     params.llcWays;
    for (int w = 1; w <= params.llcWays + 2; ++w) {
        h.access(1,
                 static_cast<Addr>(w) * static_cast<Addr>(sets) *
                     kLineBytes,
                 false);
    }
    // Core 0's L1 copy must be gone (inclusion).
    const AccessOutcome out = h.access(0, addr, false);
    EXPECT_FALSE(out.l1Hit);
    EXPECT_FALSE(out.coherencyMiss) << "capacity, not coherence";
}

TEST(Hierarchy, DirtyVictimWritesBack)
{
    CacheParams params = smallParams();
    CacheHierarchy h(1, params);
    const Addr addr = 0;
    h.access(0, addr, true); // dirty line
    const int sets = static_cast<int>(params.llcBytes / kLineBytes) /
                     params.llcWays;
    bool saw_writeback = false;
    for (int w = 1; w <= params.llcWays + 2; ++w) {
        const AccessOutcome out = h.access(
            0,
            static_cast<Addr>(w) * static_cast<Addr>(sets) * kLineBytes,
            false);
        if (out.victimWriteback && out.victimLine == lineNum(addr))
            saw_writeback = true;
    }
    EXPECT_TRUE(saw_writeback);
}

TEST(Hierarchy, L1EvictionWritesDirtyDataToLlc)
{
    CacheParams params = smallParams();
    CacheHierarchy h(2, params);
    const Addr addr = 0;
    h.access(0, addr, true); // modified in core 0's L1
    // Evict from core 0's L1 (4KB, 4 ways -> 16 sets).
    const int l1_sets = static_cast<int>(params.l1Bytes / kLineBytes) /
                        params.l1Ways;
    for (int w = 1; w <= params.l1Ways + 1; ++w) {
        h.access(0,
                 static_cast<Addr>(w) * static_cast<Addr>(l1_sets) *
                     kLineBytes,
                 false);
    }
    // Core 1 reads: data must come from the LLC without a dirty
    // transfer (the writeback already happened).
    const AccessOutcome out = h.access(1, addr, false);
    EXPECT_TRUE(out.llcHit);
    EXPECT_FALSE(out.dirtyInOtherL1);
}

TEST(Hierarchy, FlushL1DropsPrivateCopies)
{
    CacheHierarchy h(1, smallParams());
    const Addr addr = 0x7000;
    h.access(0, addr, false);
    h.flushL1(0);
    const AccessOutcome out = h.access(0, addr, false);
    EXPECT_FALSE(out.l1Hit);
    EXPECT_TRUE(out.llcHit);
}

TEST(Hierarchy, ResetStatsZeroesCounters)
{
    CacheHierarchy h(1, smallParams());
    h.access(0, 0x1000, false);
    h.resetStats();
    EXPECT_EQ(h.stats(0).l1Accesses, 0u);
    EXPECT_EQ(h.stats(0).llcMisses, 0u);
}

TEST(Hierarchy, OracleAtdsTrackEverything)
{
    CacheParams params = smallParams();
    params.atdSamplingFactor = 8;
    params.oracleAtds = true;
    CacheHierarchy h(2, params);
    h.access(0, 0x100 * kLineBytes, false);
    const AccessOutcome out = h.access(1, 0x100 * kLineBytes, false);
    EXPECT_TRUE(out.oracleInterThreadHit);
}

/**
 * Seeded random read/write streams from 2-8 cores on tiny geometries,
 * so that L1 and LLC evictions, back-invalidations, upgrades, dirty
 * transfers and flushes all happen often. The coherence invariants must
 * hold after every access.
 */
TEST(Hierarchy, InvariantsHoldUnderRandomTraffic)
{
    std::mt19937_64 rng(0xc04e7e4ceULL);
    for (int trial = 0; trial < 48; ++trial) {
        CacheParams p;
        const int llc_sets = 2 << (trial % 2);       // 2 or 4
        p.llcWays = 2 << ((trial / 2) % 2);          // 2 or 4
        p.l1Ways = 1 + (trial / 4) % 2;              // 1 or 2
        const int l1_sets = 1 + (trial / 8) % 2;     // 1 or 2
        p.llcBytes = static_cast<std::uint64_t>(llc_sets * p.llcWays) *
                     kLineBytes;
        p.l1Bytes = static_cast<std::uint64_t>(l1_sets * p.l1Ways) *
                    kLineBytes;
        p.atdSamplingFactor = 1 + (trial / 16) % 2;  // 1 or 2
        p.oracleAtds = true;
        const int ncores = 2 + trial % 7;            // 2..8
        CacheHierarchy h(ncores, p);
        // A few lines more than the LLC holds, shared by every core.
        const Addr lines =
            static_cast<Addr>(llc_sets * p.llcWays + 3);
        for (int i = 0; i < 2000; ++i) {
            const CoreId core = static_cast<CoreId>(
                rng() % static_cast<std::uint64_t>(ncores));
            if (rng() % 64 == 0) {
                h.flushL1(core);
            } else {
                const Addr line = rng() % lines;
                h.access(core, line * kLineBytes, rng() % 3 == 0);
            }
            ASSERT_EQ(h.checkInvariants(), "")
                << "trial " << trial << " access " << i;
        }
    }
}

#ifdef SST_HAVE_MALLINFO2
/** Bytes the process currently holds in malloc'd blocks. */
std::size_t
liveHeapBytes()
{
    const struct mallinfo2 m = mallinfo2();
    return m.uordblks + m.hblkhd;
}
#endif

TEST(Hierarchy, TagStateIsCompact)
{
#ifdef SST_HAVE_MALLINFO2
    // Default geometry, 64 cores: 64 x (1024 L1 ways + 1024 sampled ATD
    // ways) + 32768 LLC ways. At 64 host bytes per way that was ~10 MB;
    // the per-set blocks need 20 (L1, with its LLC link), 16 (ATD) and
    // 25 (LLC, with its directory): ~3.2 MB.
    const std::size_t base = liveHeapBytes();
    auto h = std::make_unique<CacheHierarchy>(kMaxSimCores, CacheParams{});
    const std::size_t now = liveHeapBytes();
    const std::size_t grown = now > base ? now - base : 0;
    EXPECT_LT(grown, std::size_t{7} << 19) << "bytes: " << grown;
    EXPECT_EQ(h->ncores(), kMaxSimCores);
#else
    GTEST_SKIP() << "needs glibc mallinfo2";
#endif
}

} // namespace
} // namespace sst
