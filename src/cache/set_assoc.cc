#include "set_assoc.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace sst {

SetAssocArray::SetAssocArray(std::uint64_t size_bytes, int ways)
{
    sstAssert(ways > 0, "cache needs at least one way");
    const std::uint64_t w = static_cast<std::uint64_t>(ways);
    const std::uint64_t sets = size_bytes / kLineBytes / w;
    sstAssert(sets > 0, "cache needs at least one set");
    sstAssert(isPow2(sets), "cache set count must be a power of two");
    sstAssert(sets * w < kNoSlot, "cache has too many ways to index");
    sets_ = static_cast<Slot>(sets);
    ways_ = static_cast<Slot>(w);
    const std::size_t n = static_cast<std::size_t>(sets * w);
    tags_.assign(n, kNoTag);
    stamps_.assign(n, 0);
    state_.assign(n, 0);
}

SetAssocArray
SetAssocArray::fromSets(int sets, int ways)
{
    sstAssert(sets > 0, "cache needs at least one set");
    return SetAssocArray(static_cast<std::uint64_t>(sets) *
                             static_cast<std::uint64_t>(ways) * kLineBytes,
                         ways);
}

Slot
SetAssocArray::insert(Addr line, Victim *victim)
{
    // Prefer the way where the line is already resident (a
    // coherence-invalidated tag), then the first free way, then the LRU
    // way — selected in one pass over the tag and stamp arrays. The LRU
    // candidate is the first minimum stamp in way order among occupied
    // ways.
    const Slot base = static_cast<Slot>(setIndex(line)) * ways_;
    const Slot end = base + ways_;
    Slot match = end;
    Slot free_way = end;
    Slot lru = end;
    for (Slot s = base; s < end; ++s) {
        const Addr tag = tags_[s];
        if (tag == line) {
            match = s;
            break;
        }
        if (tag == kNoTag) {
            if (free_way == end)
                free_way = s;
        } else if (lru == end || stamps_[s] < stamps_[lru]) {
            lru = s;
        }
    }
    const Slot target = match != end ? match : free_way != end ? free_way
                                                                : lru;

    if (victim) {
        // A coherence-invalidated resident tag is not a live victim.
        victim->line = tags_[target];
        victim->valid = valid(target);
        victim->dirty = dirty(target);
    }

    tags_[target] = line;
    stamps_[target] = ++stamp_;
    state_[target] = kValid;
    return target;
}

bool
SetAssocArray::invalidate(Addr line, bool keep_tag)
{
    const Slot s = findValid(line);
    if (s == kNoSlot)
        return false;
    if (keep_tag) {
        // Still resident: the tag stays in the probe array.
        state_[s] = kCohInv;
    } else {
        tags_[s] = kNoTag;
        stamps_[s] = 0;
        state_[s] = 0;
    }
    return true;
}

void
SetAssocArray::reset()
{
    tags_.assign(tags_.size(), kNoTag);
    stamps_.assign(stamps_.size(), 0);
    state_.assign(state_.size(), 0);
}

std::uint64_t
SetAssocArray::validCount() const
{
    std::uint64_t n = 0;
    for (const std::uint8_t st : state_)
        n += (st & kValid) != 0;
    return n;
}

} // namespace sst
