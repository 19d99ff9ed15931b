/**
 * @file
 * Unit tests for the Tian et al. and Li et al. spin detectors, and a
 * differential test of the Tian line-watch table against a tracker of
 * every stored line.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <tuple>
#include <vector>

#include "sync/spin_detect.hh"

namespace sst {
namespace {

TEST(Tian, DetectsBasicSpin)
{
    TianSpinDetector tian;
    const PC pc = 0x100;
    const Addr addr = 0xF000;
    Cycles now = 1000;
    // Spin: same value repeatedly.
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(tian.observeLoad(pc, addr, 1, false, now), 0u);
        now += 20;
    }
    // Another core releases: the whole interval is spin time.
    const Cycles spin = tian.observeLoad(pc, addr, 0, true, now);
    EXPECT_EQ(spin, now - 1000);
    EXPECT_EQ(tian.detectedCycles(), spin);
}

TEST(Tian, BelowThresholdNotMarked)
{
    TianSpinDetector::Params p;
    p.markThreshold = 4;
    TianSpinDetector tian(p);
    const PC pc = 0x100;
    tian.observeLoad(pc, 0xF000, 1, false, 0);
    tian.observeLoad(pc, 0xF000, 1, false, 20);
    // Value changes before the threshold: nothing detected.
    EXPECT_EQ(tian.observeLoad(pc, 0xF000, 0, true, 40), 0u);
}

TEST(Tian, OwnWriteDoesNotCountAsSpin)
{
    TianSpinDetector tian;
    const PC pc = 0x100;
    Cycles now = 0;
    for (int i = 0; i < 10; ++i) {
        tian.observeLoad(pc, 0xF000, 1, false, now);
        now += 20;
    }
    // Value changed, but written by this core: not a spin.
    EXPECT_EQ(tian.observeLoad(pc, 0xF000, 2, false, now), 0u);
}

TEST(Tian, AddressChangeRestartsTracking)
{
    TianSpinDetector tian;
    const PC pc = 0x100;
    Cycles now = 0;
    for (int i = 0; i < 10; ++i) {
        tian.observeLoad(pc, 0xF000, 1, false, now);
        now += 20;
    }
    tian.observeLoad(pc, 0xF040, 1, false, now); // different address
    now += 20;
    // Change at the new address shortly after: interval restarted.
    EXPECT_EQ(tian.observeLoad(pc, 0xF040, 2, true, now), 0u);
}

TEST(Tian, LruReplacementKeepsHotEntries)
{
    TianSpinDetector::Params p;
    p.tableEntries = 2;
    TianSpinDetector tian(p);
    Cycles now = 0;
    // Fill with two PCs, keep PC A hot, then add a third.
    for (int i = 0; i < 6; ++i) {
        tian.observeLoad(0xA, 0x1, 1, false, now++);
        tian.observeLoad(0xB, 0x2, 1, false, now++);
    }
    tian.observeLoad(0xA, 0x1, 1, false, now++);
    tian.observeLoad(0xC, 0x3, 1, false, now++); // evicts 0xB (LRU)
    // PC A is still tracked and marked: release detects.
    const Cycles spin = tian.observeLoad(0xA, 0x1, 0, true, now);
    EXPECT_GT(spin, 0u);
}

TEST(Tian, ChangingValuesNeverDetect)
{
    TianSpinDetector tian;
    Cycles now = 0;
    // A data load whose value changes on every observation (real work).
    for (std::uint64_t v = 0; v < 100; ++v) {
        EXPECT_EQ(tian.observeLoad(0x200, 0x8000, v, true, now), 0u);
        now += 10;
    }
    EXPECT_EQ(tian.detectedCycles(), 0u);
}

TEST(Tian, HardwareBitsMatchPaper)
{
    // 8 entries x (64 PC + 64 addr + 64 data + 1 mark + 24 timestamp)
    // = 1736 bits = 217 bytes (Section 4.7).
    EXPECT_EQ(TianSpinDetector::hardwareBits(), 1736u);
    EXPECT_EQ(TianSpinDetector::hardwareBits() / 8, 217u);
}

/**
 * The per-line version tracker the watch table replaced, kept as the
 * reference: every line ever stored has a store count and a last
 * writer, and a load reads them.
 */
class ValueTracker
{
  public:
    void
    onStore(Addr line, ThreadId tid)
    {
        Line &l = lines_[line];
        ++l.version;
        l.lastWriter = tid;
    }

    std::uint64_t
    value(Addr line) const
    {
        const auto it = lines_.find(line);
        return it == lines_.end() ? 0 : it->second.version;
    }

    bool
    writtenByOther(Addr line, ThreadId tid) const
    {
        const auto it = lines_.find(line);
        return it != lines_.end() && it->second.lastWriter != kInvalidId &&
               it->second.lastWriter != tid;
    }

  private:
    struct Line
    {
        std::uint64_t version = 0;
        ThreadId lastWriter = kInvalidId;
    };
    std::map<Addr, Line> lines_;
};

TEST(ValueTracker, VersionsAndWriterAttribution)
{
    ValueTracker t;
    EXPECT_EQ(t.value(0x40), 0u);
    EXPECT_FALSE(t.writtenByOther(0x40, 0));
    t.onStore(0x40, 2);
    EXPECT_EQ(t.value(0x40), 1u);
    EXPECT_TRUE(t.writtenByOther(0x40, 0));
    EXPECT_FALSE(t.writtenByOther(0x40, 2)); // own write
    EXPECT_EQ(t.value(0x80), 0u);            // other lines untouched
}

/** Table size x mark threshold x seed. */
class TianWatchDifferential
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(TianWatchDifferential, MatchesValueTrackerModel)
{
    // Random multi-thread load/store streams over a few lines and PCs:
    // each thread's watch-fed detector must return, call for call, what
    // a detector fed the reference tracker's values returns. More PCs
    // than entries make the tables evict; lock-word loads (known
    // values) share the tables; context switches flush them.
    const auto [entries, threshold, seed] = GetParam();
    constexpr int kThreads = 4;
    constexpr int kOps = 200000;
    constexpr Addr kLines = 6;
    constexpr PC kDataPcs = 12;
    TianSpinDetector::Params params;
    params.tableEntries = entries;
    params.markThreshold = threshold;

    LineWatches watches(static_cast<std::size_t>(kThreads * entries));
    std::vector<TianSpinDetector> watched, reference;
    for (int t = 0; t < kThreads; ++t) {
        watched.emplace_back(params, &watches,
                             static_cast<std::uint32_t>(t * entries));
        reference.emplace_back(params);
    }
    ValueTracker tracker;
    std::uint64_t lockWord = 0;
    ThreadId lockWriter = kInvalidId;

    std::mt19937_64 rng(0x7ac3ULL + static_cast<unsigned>(seed));
    Cycles now = 0;
    Cycles spins = 0;
    int detections = 0;
    for (int op = 0; op < kOps; ++op) {
        now += 1 + rng() % 16;
        const ThreadId tid = static_cast<ThreadId>(rng() % kThreads);
        const auto t = static_cast<std::size_t>(tid);
        // Mostly as many PCs as the table holds, each mostly on its own
        // line, so loads repeat and get marked; the rest evict.
        const PC pc = 0x40000 + (rng() % 4 ? rng() % entries
                                           : rng() % kDataPcs) * 4;
        const Addr line = rng() % 5 ? (pc / 4) % kLines : rng() % kLines;
        const unsigned kind = static_cast<unsigned>(rng() % 100);
        if (kind < 12) {
            tracker.onStore(line, tid);
            watches.onStore(line, tid);
        } else if (kind < 15) {
            if (rng() % 2) {
                ++lockWord;
                lockWriter = tid;
            }
            const bool other = lockWriter != kInvalidId && lockWriter != tid;
            const Cycles got =
                watched[t].observeLoad(0xDEAD0000, 0xF000, lockWord, other,
                                       now);
            ASSERT_EQ(got, reference[t].observeLoad(0xDEAD0000, 0xF000,
                                                    lockWord, other, now))
                << "op " << op;
        } else if (kind < 16) {
            watched[t].reset();
            reference[t].reset();
        } else {
            const Cycles got = watched[t].observeDataLoad(pc, line, tid, now);
            const Cycles want = reference[t].observeLoad(
                pc, line, tracker.value(line),
                tracker.writtenByOther(line, tid), now);
            ASSERT_EQ(got, want) << "op " << op << " tid " << tid
                                 << " pc " << pc << " line " << line;
            spins += got;
            detections += got > 0;
        }
    }
    // The streams must exercise detection, not only agree on zeros.
    EXPECT_GT(detections, 100) << "spins " << spins;
    EXPECT_GT(spins, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Tables, TianWatchDifferential,
    ::testing::Combine(::testing::Values(1, 2, 8),
                       ::testing::Values(2, 4), ::testing::Values(0, 1)));

TEST(Li, DetectsUnchangedState)
{
    LiSpinDetector li;
    const PC pc = 0x300;
    Cycles now = 0;
    li.observeBackwardBranch(pc, 42, now);
    Cycles total = 0;
    for (int i = 0; i < 5; ++i) {
        now += 20;
        total += li.observeBackwardBranch(pc, 42, now);
    }
    EXPECT_EQ(total, 100u);
    EXPECT_EQ(li.detectedCycles(), 100u);
}

TEST(Li, ChangedStateNotSpin)
{
    LiSpinDetector li;
    const PC pc = 0x300;
    Cycles now = 0;
    std::uint64_t state = 0;
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(li.observeBackwardBranch(pc, ++state, now), 0u);
        now += 20;
    }
}

TEST(Li, SeparateBranchesTrackedIndependently)
{
    LiSpinDetector li;
    Cycles now = 0;
    li.observeBackwardBranch(0x10, 1, now);
    li.observeBackwardBranch(0x20, 2, now);
    now += 50;
    EXPECT_EQ(li.observeBackwardBranch(0x10, 1, now), 50u);
    EXPECT_EQ(li.observeBackwardBranch(0x20, 3, now), 0u);
}

} // namespace
} // namespace sst
