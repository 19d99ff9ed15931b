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
#include <cstring>
#include <vector>

#include "util/types.hh"

namespace sst {

/** Index of one way in a SetAssocArray (set << wayBits | way). A slot
 *  keeps its line until that line is evicted or invalidated, so owners
 *  may key side arrays by it. */
using Slot = std::uint32_t;

/** "No slot": the line is not resident. */
inline constexpr Slot kNoSlot = ~Slot(0);

/**
 * Set-associative tag array. Geometry is (sets x ways); lines are mapped
 * by line number modulo the set count.
 *
 * Each set's metadata is one 64-byte-aligned block: a free-way mask,
 * the heads of a recency list, one check byte, one status byte and two
 * list links per way, then the resident line numbers (8 bytes per way).
 * The default 8- and 16-way geometries take 128 and 256 bytes per set,
 * 16 host bytes per way. A probe compares the check bytes of eight ways
 * per 64-bit word and verifies the full line number of a matching way
 * only, so it has no branch per way. The recency list keeps exact LRU:
 * a touch moves a way to its head, and the victim is its tail, both in
 * O(1). Per-line data that only some users need (the LLC directory, the
 * L1's link to the LLC) lives with those users, indexed by Slot.
 *
 * A resident line is either valid or coherence-invalidated: its tag was
 * invalidated by a coherence upgrade and stays in the array, keeping
 * its recency, so that a re-reference is classified as a coherency miss
 * (Section 4.5 of the paper).
 */
class SetAssocArray
{
  public:
    /** Largest associativity: a set's ways fit one 64-bit mask. */
    static constexpr int kMaxWays = 64;

    /** The line a fill displaced. */
    struct Victim
    {
        Addr line = 0;
        bool valid = false; ///< a live (valid) line was displaced
        bool dirty = false;
    };

    /**
     * @param size_bytes total capacity in bytes
     * @param ways associativity, 1 .. kMaxWays
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
        const Slot set = static_cast<Slot>(setIndex(line));
        const unsigned char *b = block(set);
        // fill() never duplicates a line within a set, so the first
        // verified match is the only one.
        for (std::uint64_t m = checkMatches(b, line) & occupied(b); m != 0;
             m &= m - 1) {
            const unsigned w = static_cast<unsigned>(__builtin_ctzll(m));
            if (tagAt(b, w) == line)
                return (set << wayBits_) | w;
        }
        return kNoSlot;
    }

    /** Make @p slot the most recently used way (call on every hit). */
    void
    touch(Slot slot)
    {
        unsigned char *b = block(slot >> wayBits_);
        const unsigned char w = wayOf(slot);
        if (b[kMruOff] != w) {
            unlink(b, w);
            pushFront(b, w);
        }
    }

    /**
     * Fill @p line as a valid, clean, most recently used line. It reuses
     * the way where @p line is already resident, else the first free
     * way of its set, else the LRU way.
     * @param resident findAny(line); the probe may be older than
     *        changes to the set's other ways, not to @p line's
     * @param[out] victim the displaced line (valid only if a live line
     *             was displaced)
     * @return the slot now holding @p line
     */
    Slot fill(Addr line, Slot resident, Victim *victim = nullptr);

    /** fill() with its own probe. */
    Slot
    insert(Addr line, Victim *victim = nullptr)
    {
        return fill(line, findAny(line), victim);
    }

    /**
     * Invalidate @p line if present.
     * @param keep_tag keep the tag resident and mark it
     *        coherence-invalidated (used by the L1s for coherency-miss
     *        detection); otherwise the way is freed
     * @return true if the line was valid
     */
    bool invalidate(Addr line, bool keep_tag = false);

    Addr line(Slot s) const { return tagAt(block(s >> wayBits_), wayOf(s)); }
    bool valid(Slot s) const { return state(s) & kValid; }
    bool dirty(Slot s) const { return state(s) & kDirty; }
    bool coherenceInvalidated(Slot s) const { return state(s) & kCohInv; }

    void
    setDirty(Slot s, bool dirty)
    {
        unsigned char &st = block(s >> wayBits_)[stateOff_ + wayOf(s)];
        st = static_cast<unsigned char>((st & ~kDirty) | (dirty ? kDirty : 0));
    }

    int sets() const { return static_cast<int>(sets_); }
    int ways() const { return static_cast<int>(ways_); }

    /** Slots are 0 .. slots() - 1. With a way count that is not a power
     *  of two, some slots name no way and are never valid. */
    Slot slots() const { return sets_ << wayBits_; }

    /** Number of currently valid lines (test/diagnostic helper). */
    std::uint64_t validCount() const;

    /** Clear every way (flush). */
    void reset();

  private:
    /** No line resident in this way. */
    static constexpr Addr kNoTag = ~Addr(0);
    /** End of a recency list. */
    static constexpr unsigned char kNil = 0xff;

    /** Bits of a way's status byte. */
    static constexpr unsigned char kValid = 1;
    static constexpr unsigned char kDirty = 2;
    static constexpr unsigned char kCohInv = 4; ///< coherence-invalidated

    /** Block layout: the free-way mask, then the most and least
     *  recently used ways, then the per-way arrays at the offsets
     *  below. */
    static constexpr std::size_t kFreeOff = 0;
    static constexpr std::size_t kMruOff = 8;
    static constexpr std::size_t kLruOff = 9;
    static constexpr std::size_t kCheckOff = 16;

    /** 64 bytes of set blocks; the storage unit keeps blocks aligned. */
    struct alignas(64) Chunk
    {
        unsigned char bytes[64];
    };

    static std::uint64_t
    load64(const unsigned char *p)
    {
        std::uint64_t v;
        std::memcpy(&v, p, sizeof v);
        return v;
    }

    static void
    store64(unsigned char *p, std::uint64_t v)
    {
        std::memcpy(p, &v, sizeof v);
    }

    const unsigned char *
    block(Slot set) const
    {
        return blocks_.front().bytes + std::size_t{set} * stride_;
    }
    unsigned char *
    block(Slot set)
    {
        return blocks_.front().bytes + std::size_t{set} * stride_;
    }

    unsigned char
    wayOf(Slot s) const
    {
        return static_cast<unsigned char>(s & ((Slot(1) << wayBits_) - 1));
    }

    unsigned char
    state(Slot s) const
    {
        return block(s >> wayBits_)[stateOff_ + wayOf(s)];
    }

    Addr
    tagAt(const unsigned char *b, unsigned w) const
    {
        return load64(b + tagOff_ + 8 * std::size_t{w});
    }

    /** Ways holding a line (valid or coherence-invalidated). */
    std::uint64_t
    occupied(const unsigned char *b) const
    {
        return ~load64(b + kFreeOff) & waysMask_;
    }

    unsigned char
    checkByte(Addr line) const
    {
        const std::uint64_t tag = line >> setBits_;
        return static_cast<unsigned char>(tag ^ (tag >> 8));
    }

    /** Bit w set where way w's check byte equals @p line's: a superset
     *  of the ways holding @p line. */
    std::uint64_t
    checkMatches(const unsigned char *b, Addr line) const
    {
        constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
        const std::uint64_t splat = 0x0101010101010101ULL * checkByte(line);
        std::uint64_t m = 0;
        for (unsigned g = 0; g < groups_; ++g) {
            const std::uint64_t x = load64(b + kCheckOff + 8 * g) ^ splat;
            // 0x80 in exactly the bytes of x that are zero.
            const std::uint64_t z = ~(((x & kLow7) + kLow7) | x | kLow7);
            // Gather the eight 0x80 bits into the low byte.
            m |= (((z >> 7) * 0x0102040810204080ULL) >> 56) << (8 * g);
        }
        return m;
    }

    void
    unlink(unsigned char *b, unsigned char w)
    {
        const unsigned char p = b[prevOff_ + w];
        const unsigned char n = b[nextOff_ + w];
        (p == kNil ? b[kMruOff] : b[nextOff_ + p]) = n;
        (n == kNil ? b[kLruOff] : b[prevOff_ + n]) = p;
    }

    void
    pushFront(unsigned char *b, unsigned char w)
    {
        const unsigned char head = b[kMruOff];
        b[prevOff_ + w] = kNil;
        b[nextOff_ + w] = head;
        (head == kNil ? b[kLruOff] : b[prevOff_ + head]) = w;
        b[kMruOff] = w;
    }

    Slot sets_ = 0;
    Slot ways_ = 0;
    int setBits_ = 0;
    int wayBits_ = 0;            ///< log2 of the ways rounded up
    unsigned groups_ = 0;        ///< 64-bit words of check bytes
    std::uint64_t waysMask_ = 0; ///< one bit per way
    std::size_t stateOff_ = 0;
    std::size_t prevOff_ = 0; ///< per way: the next more recent way
    std::size_t nextOff_ = 0; ///< per way: the next less recent way
    std::size_t tagOff_ = 0;
    std::size_t stride_ = 0; ///< bytes per set block, a multiple of 64
    std::vector<Chunk> blocks_;
};

inline Slot
SetAssocArray::fill(Addr line, Slot resident, Victim *victim)
{
    const Slot set = static_cast<Slot>(setIndex(line));
    unsigned char *b = block(set);
    const std::uint64_t free_ways = load64(b + kFreeOff);
    unsigned char w;
    if (resident != kNoSlot) {
        w = wayOf(resident);
        touch(resident);
    } else if (free_ways != 0) {
        w = static_cast<unsigned char>(__builtin_ctzll(free_ways));
        store64(b + kFreeOff, free_ways & (free_ways - 1));
        pushFront(b, w);
    } else {
        w = b[kLruOff];
        unlink(b, w);
        pushFront(b, w);
    }

    unsigned char &st = b[stateOff_ + w];
    if (victim) {
        // A coherence-invalidated resident tag is not a live victim.
        victim->line = tagAt(b, w);
        victim->valid = st & kValid;
        victim->dirty = st & kDirty;
    }
    store64(b + tagOff_ + 8 * std::size_t{w}, line);
    b[kCheckOff + w] = checkByte(line);
    st = kValid;
    return (set << wayBits_) | w;
}

} // namespace sst

#endif // SST_CACHE_SET_ASSOC_HH
