/**
 * @file
 * Generic set-associative tag array with true-LRU replacement. Used for
 * the private L1 caches, the shared LLC and the per-core auxiliary tag
 * directories (ATDs). Tracks tags only — the toolkit never models data
 * values, just presence and status bits, like a simulator tag pipeline.
 */

#ifndef SST_CACHE_SET_ASSOC_HH
#define SST_CACHE_SET_ASSOC_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace sst {

/** Index of one way in a SetAssocArray (set * ways + way). A slot keeps
 *  its line until that line is evicted or invalidated, so owners may
 *  key side arrays by it. */
using Slot = std::uint32_t;

/** "No slot": the line is not resident. */
inline constexpr Slot kNoSlot = ~Slot(0);

/**
 * Set-associative tag array. Geometry is (sets x ways); lines are mapped
 * by line number modulo the set count. LRU uses a global access stamp.
 *
 * Storage is one value per way in parallel arrays: the resident line
 * number (8 bytes), its LRU stamp (8 bytes) and a status byte — 17 host
 * bytes per way. Lookups scan only the line numbers, so a 16-way probe
 * touches two host cache lines. Per-line data that only some users need
 * (the LLC directory, the L1's link to the LLC) lives with those users,
 * indexed by Slot.
 *
 * A resident line is either valid or coherence-invalidated: its tag was
 * invalidated by a coherence upgrade and stays in the array, so that a
 * re-reference is classified as a coherency miss (Section 4.5 of the
 * paper).
 */
class SetAssocArray
{
  public:
    /** The line a fill displaced. */
    struct Victim
    {
        Addr line = 0;
        bool valid = false; ///< a live (valid) line was displaced
        bool dirty = false;
    };

    /**
     * @param size_bytes total capacity in bytes
     * @param ways associativity
     */
    SetAssocArray(std::uint64_t size_bytes, int ways);

    /** Construct directly from a set count and associativity. */
    static SetAssocArray fromSets(int sets, int ways);

    /** Set index of a line number. */
    std::uint64_t
    setIndex(Addr line) const
    {
        return line & (static_cast<std::uint64_t>(sets_) - 1);
    }

    /** Slot holding a valid copy of @p line; kNoSlot on miss. */
    Slot
    findValid(Addr line) const
    {
        const Slot s = findAny(line);
        return s != kNoSlot && valid(s) ? s : kNoSlot;
    }

    /** Slot where @p line is resident (valid or coherence-invalidated);
     *  kNoSlot if it is not. */
    Slot
    findAny(Addr line) const
    {
        const Slot base = static_cast<Slot>(setIndex(line)) * ways_;
        for (Slot s = base; s < base + ways_; ++s) {
            // insert() never duplicates a line within a set, so the
            // first tag match is the only one.
            if (tags_[s] == line)
                return s;
        }
        return kNoSlot;
    }

    /** Make @p slot the most recently used way (call on every hit). */
    void touch(Slot slot) { stamps_[slot] = ++stamp_; }

    /**
     * Insert @p line as a valid, clean, most recently used line. It
     * reuses the way where @p line is already resident, else the first
     * free way of its set, else the LRU way.
     * @param[out] victim the displaced line (valid only if a live line
     *             was displaced)
     * @return the slot now holding @p line
     */
    Slot insert(Addr line, Victim *victim = nullptr);

    /**
     * Invalidate @p line if present.
     * @param keep_tag keep the tag resident and mark it
     *        coherence-invalidated (used by the L1s for coherency-miss
     *        detection); otherwise the way is freed
     * @return true if the line was valid
     */
    bool invalidate(Addr line, bool keep_tag = false);

    Addr line(Slot s) const { return tags_[s]; }
    bool valid(Slot s) const { return state_[s] & kValid; }
    bool dirty(Slot s) const { return state_[s] & kDirty; }
    bool coherenceInvalidated(Slot s) const { return state_[s] & kCohInv; }

    void
    setDirty(Slot s, bool dirty)
    {
        state_[s] = static_cast<std::uint8_t>((state_[s] & ~kDirty) |
                                              (dirty ? kDirty : 0));
    }

    int sets() const { return static_cast<int>(sets_); }
    int ways() const { return static_cast<int>(ways_); }

    /** Total number of ways; slots are 0 .. slots() - 1. */
    Slot slots() const { return static_cast<Slot>(tags_.size()); }

    /** Number of currently valid lines (test/diagnostic helper). */
    std::uint64_t validCount() const;

    /** Clear every way (flush). */
    void reset();

  private:
    /** No line resident in this way. */
    static constexpr Addr kNoTag = ~Addr(0);

    /** Bits of state_. */
    static constexpr std::uint8_t kValid = 1;
    static constexpr std::uint8_t kDirty = 2;
    static constexpr std::uint8_t kCohInv = 4; ///< coherence-invalidated

    Slot sets_ = 0;
    Slot ways_ = 0;
    /** Resident line number per way (kNoTag when empty); the probe
     *  array all lookups scan. */
    std::vector<Addr> tags_;
    /** LRU stamp per way: the global stamp at its last fill or touch. */
    std::vector<std::uint64_t> stamps_;
    /** kValid | kDirty | kCohInv per way. */
    std::vector<std::uint8_t> state_;
    std::uint64_t stamp_ = 0;
};

} // namespace sst

#endif // SST_CACHE_SET_ASSOC_HH
