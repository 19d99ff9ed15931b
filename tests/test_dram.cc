/**
 * @file
 * Unit and property tests for the DRAM model: bank/row mapping,
 * open-page timing, bus arbitration, interference attribution, ORA page
 * conflicts and the bus allocator, with a differential test of the bus
 * allocator against the sorted-interval list it replaced.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "mem/dram.hh"

namespace sst {
namespace {

DramParams
params()
{
    return DramParams{};
}

TEST(BusTimeline, NoWaitOnIdleBus)
{
    BusTimeline bus;
    CoreId blocker = kInvalidId;
    EXPECT_EQ(bus.reserve(100, 4, 0, blocker), 100u);
    EXPECT_EQ(blocker, kInvalidId);
}

TEST(BusTimeline, WaitsBehindReservation)
{
    BusTimeline bus;
    CoreId blocker;
    bus.reserve(100, 10, 0, blocker);
    EXPECT_EQ(bus.reserve(105, 4, 1, blocker), 110u);
    EXPECT_EQ(blocker, 0);
}

TEST(BusTimeline, FillsGapBetweenReservations)
{
    BusTimeline bus;
    CoreId blocker;
    bus.reserve(100, 4, 0, blocker);  // [100,104)
    bus.reserve(120, 4, 0, blocker);  // [120,124)
    // A 4-cycle request at 106 fits in the gap.
    EXPECT_EQ(bus.reserve(106, 4, 1, blocker), 106u);
}

TEST(BusTimeline, SkipsTooSmallGap)
{
    BusTimeline bus;
    CoreId blocker;
    bus.reserve(100, 4, 0, blocker);  // [100,104)
    bus.reserve(106, 4, 0, blocker);  // [106,110)
    // 4 cycles at 103: gap [104,106) too small -> goes after 110.
    EXPECT_EQ(bus.reserve(103, 4, 1, blocker), 110u);
}

TEST(BusTimeline, PruneDropsExpired)
{
    BusTimeline bus;
    CoreId blocker;
    bus.reserve(100, 4, 0, blocker);
    bus.reserve(104, 4, 0, blocker);
    EXPECT_EQ(bus.liveReservations(), 2u);
    bus.pruneFront(106); // [100,104) has ended, [104,108) has not
    EXPECT_EQ(bus.liveReservations(), 1u);
    bus.pruneFront(108);
    EXPECT_EQ(bus.liveReservations(), 0u);
    // A dropped reservation no longer blocks or names a blocker.
    EXPECT_EQ(bus.reserve(108, 4, 1, blocker), 108u);
    EXPECT_EQ(blocker, kInvalidId);
}

TEST(BusTimeline, ZeroLengthWaitsOnlyInsideAReservation)
{
    BusTimeline bus;
    CoreId blocker;
    bus.reserve(100, 4, 0, blocker); // [100,104)
    EXPECT_EQ(bus.reserve(100, 0, 1, blocker), 100u);
    EXPECT_EQ(blocker, kInvalidId);
    EXPECT_EQ(bus.reserve(104, 0, 1, blocker), 104u);
    EXPECT_EQ(bus.reserve(102, 0, 1, blocker), 104u);
    EXPECT_EQ(blocker, 0);
    // Also once the watermark has passed the reservation's start.
    bus.pruneFront(103);
    EXPECT_EQ(bus.reserve(103, 0, 1, blocker), 104u);
    EXPECT_EQ(blocker, 0);
}

TEST(BusTimeline, ReservationDoesNotStraddleAPoint)
{
    BusTimeline bus;
    CoreId blocker;
    bus.reserve(110, 0, 2, blocker);
    // [108,112) would straddle the point at 110; [107,110) ends at it.
    EXPECT_EQ(bus.reserve(108, 4, 1, blocker), 110u);
    EXPECT_EQ(blocker, 2);
    EXPECT_EQ(bus.reserve(107, 3, 1, blocker), 107u);
    EXPECT_EQ(blocker, kInvalidId);
}

/**
 * Reference bus allocator: the sorted interval list with a first-fit
 * scan that BusTimeline replaced, kept verbatim apart from its names. It
 * scans every live reservation and shifts the tail on every insert.
 */
class IntervalListBus
{
  public:
    Cycles
    reserve(Cycles t, Cycles len, CoreId who, CoreId &blocker)
    {
        blocker = kInvalidId;
        Cycles cur = t;
        std::size_t pos = head_;
        for (; pos < busy_.size(); ++pos) {
            const Interval &iv = busy_[pos];
            if (iv.end <= cur)
                continue;
            if (iv.start >= cur + len)
                break;
            if (iv.end > cur) {
                cur = iv.end;
                blocker = iv.owner;
            }
        }
        if (cur == t)
            blocker = kInvalidId;
        Interval mine{cur, cur + len, who};
        auto it = busy_.begin() + static_cast<std::ptrdiff_t>(head_);
        while (it != busy_.end() && it->start < mine.start)
            ++it;
        busy_.insert(it, mine);
        return cur;
    }

    void
    pruneFront(Cycles t)
    {
        while (head_ < busy_.size() && busy_[head_].end <= t)
            ++head_;
        if (head_ >= 64 && head_ * 2 >= busy_.size()) {
            busy_.erase(busy_.begin(),
                        busy_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    std::size_t liveReservations() const { return busy_.size() - head_; }

  private:
    struct Interval
    {
        Cycles start;
        Cycles end;
        CoreId owner;
    };
    std::vector<Interval> busy_;
    std::size_t head_ = 0;
};

/** One random request stream's shape. */
struct BusStream
{
    unsigned seed;
    Cycles maxGap;      ///< issue times advance by 0 .. maxGap
    Cycles maxBankWait; ///< data bursts start up to this far ahead
    Cycles maxLen;      ///< also draw lengths 1 .. maxLen, not just 2/4
    bool zeros;         ///< also draw zero-length requests
};

class BusTimelineDifferential : public ::testing::TestWithParam<BusStream>
{
};

TEST_P(BusTimelineDifferential, MatchesIntervalList)
{
    const BusStream p = GetParam();
    std::mt19937_64 rng(p.seed);
    BusTimeline bus;
    IntervalListBus ref;
    Cycles now = 0;
    int waits = 0; // requests that could not start when asked
    for (int op = 0; op < 20000; ++op) {
        // A request as DramModel issues it: prune at the monotone issue
        // time, a command at it, then a data burst behind the bank.
        now += rng() % (p.maxGap + 1);
        bus.pruneFront(now);
        ref.pruneFront(now);
        const CoreId who = static_cast<CoreId>(rng() % 8);
        Cycles cmd_len =
            p.maxLen > 0 && rng() % 4 == 0 ? 1 + rng() % p.maxLen : 2;
        if (p.zeros && rng() % 3 == 0)
            cmd_len = 0;
        CoreId got_blocker = 0, want_blocker = 0;
        const Cycles cmd = bus.reserve(now, cmd_len, who, got_blocker);
        ASSERT_EQ(cmd, ref.reserve(now, cmd_len, who, want_blocker))
            << "op " << op;
        ASSERT_EQ(got_blocker, want_blocker) << "op " << op;
        waits += cmd > now;

        const Cycles bank_done = cmd + cmd_len + rng() % (p.maxBankWait + 1);
        Cycles data_len =
            p.maxLen > 0 && rng() % 4 == 0 ? 1 + rng() % p.maxLen : 4;
        if (p.zeros && rng() % 3 == 0)
            data_len = 0;
        const Cycles data =
            bus.reserve(bank_done, data_len, who, got_blocker);
        ASSERT_EQ(data, ref.reserve(bank_done, data_len, who, want_blocker))
            << "op " << op;
        ASSERT_EQ(got_blocker, want_blocker) << "op " << op;
        waits += data > bank_done;
        // The list keeps a zero-length entry behind a live one, so only
        // streams without them have comparable counts.
        if (!p.zeros && op % 64 == 0) {
            ASSERT_EQ(bus.liveReservations(), ref.liveReservations())
                << "op " << op;
        }
    }
    EXPECT_GT(waits, 0) << "the stream never contended for the bus";
}

INSTANTIATE_TEST_SUITE_P(
    Streams, BusTimelineDifferential,
    ::testing::Values(
        // A nearly saturated bus: short gaps, short bank waits.
        BusStream{1, 14, 40, 0, false},
        // The DRAM model's shape: 30-70 cycle banks behind a queue.
        BusStream{2, 12, 400, 0, false},
        // Far-future data bursts that grow the ring many times.
        BusStream{3, 30, 5000, 0, false},
        // Idle stretches longer than the ring between requests.
        BusStream{4, 5000, 3000, 0, false},
        // Other lengths, including runs longer than one word.
        BusStream{5, 64, 300, 100, false},
        // Zero-cycle transfers: points that later requests must not
        // straddle, on a busy bus and with long transfers.
        BusStream{6, 8, 40, 0, true},
        BusStream{7, 64, 300, 100, true},
        BusStream{8, 30, 5000, 0, true}));

TEST(Dram, BankAndRowMapping)
{
    DramModel dram(2, params());
    EXPECT_EQ(dram.bankOf(0), 0);
    EXPECT_EQ(dram.bankOf(kLineBytes), 1);
    EXPECT_EQ(dram.bankOf(7 * kLineBytes), 7);
    EXPECT_EQ(dram.bankOf(8 * kLineBytes), 0);
    EXPECT_EQ(dram.rowOf(0), 0u);
    // 8 banks x 2048-byte rows: row increments every 8*32 lines.
    EXPECT_EQ(dram.rowOf(8 * 32 * kLineBytes), 1u);
}

TEST(Dram, RowHitFasterThanConflict)
{
    DramModel dram(1, params());
    const DramResult first = dram.access(0, 0, 0);
    // Same row again, long after: row hit.
    const DramResult hit = dram.access(0, 8 * kLineBytes, 1000);
    // Different row, same bank: conflict.
    const DramResult conflict =
        dram.access(0, 8 * 32 * kLineBytes, 2000);
    EXPECT_FALSE(hit.rowConflict);
    EXPECT_TRUE(conflict.rowConflict);
    EXPECT_LT(hit.serviceCycles, conflict.serviceCycles);
    EXPECT_GT(first.serviceCycles, 0u);
}

TEST(Dram, UncontendedLatencyComposition)
{
    const DramParams p = params();
    DramModel dram(1, p);
    dram.access(0, 0, 0); // open the row
    const DramResult hit = dram.access(0, 8 * kLineBytes, 1000);
    EXPECT_EQ(hit.serviceCycles,
              p.busCycles + p.rowHitCycles + p.dataCycles);
}

TEST(Dram, BusContentionAttributedToOtherCore)
{
    DramModel dram(2, params());
    dram.access(0, 0, 100);
    // Core 1 issues while core 0's request occupies the bus.
    const DramResult r = dram.access(1, kLineBytes, 101);
    EXPECT_GT(r.busWait, 0u);
    EXPECT_EQ(r.busWaitOther, r.busWait);
}

TEST(Dram, BankContentionAttributed)
{
    DramModel dram(2, params());
    dram.access(0, 0, 100);
    // Same bank (bank 0), issued right after: waits for the bank.
    const DramResult r = dram.access(1, 8 * kLineBytes, 100);
    EXPECT_GT(r.bankWaitOther, 0u);
}

TEST(Dram, OraAttributesPageConflictToOtherCore)
{
    DramModel dram(2, params());
    // Core 0 opens row 0 of bank 0.
    dram.access(0, 0, 0);
    // Core 1 opens a different row of bank 0.
    dram.access(1, 8 * 32 * kLineBytes, 1000);
    // Core 0 returns to its row: conflict caused by core 1.
    const DramResult r = dram.access(0, 0, 2000);
    EXPECT_TRUE(r.rowConflict);
    EXPECT_TRUE(r.pageConflictByOther);
    EXPECT_GT(r.pageConflictPenalty, 0u);
}

TEST(Dram, OwnPageConflictNotAttributed)
{
    DramModel dram(2, params());
    dram.access(0, 0, 0);
    // Core 0 itself opens another row in bank 0.
    dram.access(0, 8 * 32 * kLineBytes, 1000);
    // Returning to row 0: conflict, but caused by core 0 itself.
    const DramResult r = dram.access(0, 0, 2000);
    EXPECT_TRUE(r.rowConflict);
    EXPECT_FALSE(r.pageConflictByOther);
}

TEST(Dram, ResetStatsZeroes)
{
    DramModel dram(1, params());
    dram.access(0, 0, 0);
    dram.resetStats();
    EXPECT_EQ(dram.stats(0).accesses, 0u);
}

/** Property sweep: completion times are self-consistent (completeAt =
 *  now + serviceCycles, monotone bus reservations never overlap). */
class DramStream : public ::testing::TestWithParam<int>
{
};

TEST_P(DramStream, ScheduleIsConsistent)
{
    const int ncores = GetParam();
    DramModel dram(ncores, params());
    Cycles now = 0;
    std::uint64_t last_complete = 0;
    for (int i = 0; i < 2000; ++i) {
        now += (i * 7) % 23;
        const CoreId core = i % ncores;
        const Addr addr = static_cast<Addr>((i * 2654435761u) % (1 << 26));
        const DramResult r = dram.access(core, addr, now);
        EXPECT_EQ(r.completeAt, now + r.serviceCycles);
        EXPECT_GE(r.completeAt, now + params().busCycles +
                                    params().rowHitCycles +
                                    params().dataCycles);
        EXPECT_LE(r.busWaitOther, r.busWait);
        last_complete = std::max<std::uint64_t>(last_complete,
                                                r.completeAt);
    }
    EXPECT_GT(last_complete, now);
}

INSTANTIATE_TEST_SUITE_P(Cores, DramStream, ::testing::Values(1, 2, 8, 16));

} // namespace
} // namespace sst
