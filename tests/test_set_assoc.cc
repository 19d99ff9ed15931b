/**
 * @file
 * Unit and property tests for the set-associative tag array: LRU
 * behaviour, invalidation semantics, geometry sweeps and a differential
 * test against a recency-list reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>
#include <vector>

#include "cache/set_assoc.hh"

namespace sst {
namespace {

TEST(SetAssoc, HitAfterInsert)
{
    SetAssocArray a(64 * 1024, 8);
    EXPECT_EQ(a.findValid(100), kNoSlot);
    a.insert(100);
    const Slot s = a.findValid(100);
    ASSERT_NE(s, kNoSlot);
    EXPECT_TRUE(a.valid(s));
    EXPECT_EQ(a.line(s), 100u);
}

TEST(SetAssoc, LruEvictsOldest)
{
    // 2 sets x 2 ways; fill one set and overflow it.
    SetAssocArray a = SetAssocArray::fromSets(2, 2);
    const Addr s0_a = 0, s0_b = 2, s0_c = 4; // all map to set 0
    a.insert(s0_a);
    a.insert(s0_b);
    // Touch a so b becomes LRU.
    a.touch(a.findValid(s0_a));
    SetAssocArray::Victim victim;
    a.insert(s0_c, &victim);
    EXPECT_TRUE(victim.valid);
    EXPECT_EQ(victim.line, s0_b);
    EXPECT_NE(a.findValid(s0_a), kNoSlot);
    EXPECT_EQ(a.findValid(s0_b), kNoSlot);
    EXPECT_NE(a.findValid(s0_c), kNoSlot);
}

TEST(SetAssoc, InsertPrefersFreeWay)
{
    SetAssocArray a = SetAssocArray::fromSets(2, 2);
    a.insert(0);
    SetAssocArray::Victim victim;
    a.insert(2, &victim); // same set, free way available
    EXPECT_FALSE(victim.valid);
}

TEST(SetAssoc, InvalidateKeepTagMarksCoherence)
{
    SetAssocArray a(4 * 1024, 4);
    a.insert(42);
    EXPECT_TRUE(a.invalidate(42, /*keep_tag=*/true));
    EXPECT_EQ(a.findValid(42), kNoSlot);
    const Slot stale = a.findAny(42);
    ASSERT_NE(stale, kNoSlot);
    EXPECT_TRUE(a.coherenceInvalidated(stale));
    EXPECT_FALSE(a.valid(stale));
}

TEST(SetAssoc, InvalidateDropRemovesEntry)
{
    SetAssocArray a(4 * 1024, 4);
    a.insert(42);
    EXPECT_TRUE(a.invalidate(42, /*keep_tag=*/false));
    EXPECT_EQ(a.findAny(42), kNoSlot);
}

TEST(SetAssoc, InvalidateMissingReturnsFalse)
{
    SetAssocArray a(4 * 1024, 4);
    EXPECT_FALSE(a.invalidate(7));
}

TEST(SetAssoc, ReinsertReusesCoherenceInvalidatedEntry)
{
    SetAssocArray a = SetAssocArray::fromSets(2, 2);
    a.insert(0);
    a.invalidate(0, /*keep_tag=*/true);
    const Slot stale = a.findAny(0);
    SetAssocArray::Victim victim;
    const Slot e = a.insert(0, &victim);
    EXPECT_FALSE(victim.valid); // no live line displaced
    EXPECT_EQ(e, stale);
    EXPECT_TRUE(a.valid(e));
    EXPECT_FALSE(a.coherenceInvalidated(e));
}

TEST(SetAssoc, ValidCount)
{
    SetAssocArray a(4 * 1024, 4);
    EXPECT_EQ(a.validCount(), 0u);
    a.insert(1);
    a.insert(2);
    EXPECT_EQ(a.validCount(), 2u);
    a.invalidate(1);
    EXPECT_EQ(a.validCount(), 1u);
}

/**
 * Reference model: per set, the resident lines in recency order (most
 * recent first), each with its status bits. Kept deliberately naive —
 * no stamps, no way positions — so it checks the array's replacement
 * decisions rather than re-implementing them.
 */
class LruModel
{
  public:
    struct Line
    {
        Addr line;
        bool valid;
        bool dirty;
        bool coherenceInvalidated;
    };

    LruModel(int sets, int ways)
        : sets_(static_cast<Addr>(sets)), ways_(static_cast<std::size_t>(ways)),
          recency_(static_cast<std::size_t>(sets))
    {
    }

    /** Resident entry for @p line, or nullptr. */
    Line *
    find(Addr line)
    {
        auto &set = recency_[line % sets_];
        auto it = std::find_if(set.begin(), set.end(),
                               [&](const Line &l) { return l.line == line; });
        return it == set.end() ? nullptr : &*it;
    }

    SetAssocArray::Victim
    insert(Addr line)
    {
        auto &set = recency_[line % sets_];
        SetAssocArray::Victim victim;
        auto it = std::find_if(set.begin(), set.end(),
                               [&](const Line &l) { return l.line == line; });
        if (it == set.end() && set.size() == ways_)
            it = set.end() - 1; // least recently used
        if (it != set.end()) {
            victim = {it->line, it->valid, it->dirty};
            set.erase(it);
        }
        set.insert(set.begin(), Line{line, true, false, false});
        return victim;
    }

    void
    touch(Addr line)
    {
        auto &set = recency_[line % sets_];
        auto it = std::find_if(set.begin(), set.end(),
                               [&](const Line &l) { return l.line == line; });
        const Line l = *it;
        set.erase(it);
        set.insert(set.begin(), l);
    }

    bool
    invalidate(Addr line, bool keep_tag)
    {
        auto &set = recency_[line % sets_];
        auto it = std::find_if(set.begin(), set.end(),
                               [&](const Line &l) { return l.line == line; });
        if (it == set.end() || !it->valid)
            return false;
        if (keep_tag)
            *it = Line{line, false, false, true}; // keeps its recency
        else
            set.erase(it);
        return true;
    }

    const std::vector<Line> &
    set(Addr line) const
    {
        return recency_[line % sets_];
    }

  private:
    Addr sets_;
    std::size_t ways_;
    std::vector<std::vector<Line>> recency_;
};

/** Differential test: random insert / touch / setDirty / invalidate
 *  streams must agree with LruModel op by op, for every line of the
 *  touched set. */
class SetAssocDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(SetAssocDifferential, MatchesRecencyListModel)
{
    const int ways = GetParam();
    constexpr int kSets = 4;
    constexpr int kOps = 100000;
    SetAssocArray a = SetAssocArray::fromSets(kSets, ways);
    LruModel model(kSets, ways);
    // Each set sees more distinct lines than it has ways, so fills
    // evict.
    const Addr pool = static_cast<Addr>(kSets) *
                      static_cast<Addr>(ways + ways / 2 + 2);
    std::mt19937_64 rng(0x5e7a550cULL + static_cast<unsigned>(ways));

    for (int op = 0; op < kOps; ++op) {
        const Addr line = rng() % pool;
        const unsigned kind = static_cast<unsigned>(rng() % 10);
        LruModel::Line *ref = model.find(line);
        const Slot found = a.findValid(line);
        ASSERT_EQ(found != kNoSlot, ref && ref->valid)
            << "op " << op << " line " << line;

        if (kind < 4) {
            SetAssocArray::Victim got;
            a.insert(line, &got);
            const SetAssocArray::Victim want = model.insert(line);
            ASSERT_EQ(got.valid, want.valid) << "op " << op;
            if (want.valid) {
                ASSERT_EQ(got.line, want.line) << "op " << op;
                ASSERT_EQ(got.dirty, want.dirty) << "op " << op;
            }
        } else if (kind < 7) {
            if (found != kNoSlot) {
                a.touch(found);
                model.touch(line);
            }
        } else if (kind < 8) {
            if (found != kNoSlot) {
                a.setDirty(found, true);
                ref->dirty = true;
            }
        } else {
            const bool keep_tag = (rng() & 1) != 0;
            ASSERT_EQ(a.invalidate(line, keep_tag),
                      model.invalidate(line, keep_tag))
                << "op " << op;
        }

        // Every resident line of the touched set agrees bit for bit,
        // and nothing else is resident there.
        const auto &set = model.set(line);
        for (const LruModel::Line &l : set) {
            const Slot s = a.findAny(l.line);
            ASSERT_NE(s, kNoSlot) << "op " << op << " line " << l.line;
            ASSERT_EQ(a.valid(s), l.valid) << "op " << op;
            ASSERT_EQ(a.dirty(s), l.dirty) << "op " << op;
            ASSERT_EQ(a.coherenceInvalidated(s), l.coherenceInvalidated)
                << "op " << op;
        }
        const Slot base = static_cast<Slot>(a.setIndex(line)) *
                          static_cast<Slot>(ways);
        std::size_t resident = 0;
        for (Slot s = base; s < base + static_cast<Slot>(ways); ++s)
            resident += a.valid(s) || a.coherenceInvalidated(s);
        ASSERT_EQ(resident, set.size()) << "op " << op;
    }
}

INSTANTIATE_TEST_SUITE_P(Ways, SetAssocDifferential,
                         ::testing::Values(1, 2, 4, 8, 16, 64));

/** Property sweep over geometries: capacity is respected and a working
 *  set no larger than one set's ways never evicts. */
class SetAssocGeometry
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(SetAssocGeometry, WorkingSetWithinWaysNeverEvicts)
{
    const auto [sets, ways] = GetParam();
    SetAssocArray a = SetAssocArray::fromSets(sets, ways);

    // `ways` lines in the same set, accessed round-robin: no evictions.
    for (int round = 0; round < 4; ++round) {
        for (int w = 0; w < ways; ++w) {
            const Addr line = static_cast<Addr>(w) *
                              static_cast<Addr>(sets);
            SetAssocArray::Victim victim;
            if (const Slot s = a.findValid(line); s != kNoSlot) {
                a.touch(s);
            } else {
                a.insert(line, &victim);
                EXPECT_FALSE(victim.valid);
            }
        }
    }
    EXPECT_EQ(a.validCount(), static_cast<std::uint64_t>(ways));
}

TEST_P(SetAssocGeometry, CapacityBound)
{
    const auto [sets, ways] = GetParam();
    SetAssocArray a = SetAssocArray::fromSets(sets, ways);
    for (Addr line = 0; line < static_cast<Addr>(4 * sets * ways); ++line)
        a.insert(line);
    EXPECT_LE(a.validCount(),
              static_cast<std::uint64_t>(sets) *
                  static_cast<std::uint64_t>(ways));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocGeometry,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(2, 4),
                      std::make_tuple(16, 8), std::make_tuple(64, 16),
                      std::make_tuple(2048, 16)));

} // namespace
} // namespace sst
