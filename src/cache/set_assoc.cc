#include "set_assoc.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace sst {

namespace {

constexpr std::size_t
roundUp(std::size_t n, std::size_t to)
{
    return (n + to - 1) / to * to;
}

} // namespace

SetAssocArray::SetAssocArray(std::uint64_t size_bytes, int ways)
{
    sstAssert(ways > 0, "cache needs at least one way");
    sstAssert(ways <= kMaxWays, "cache has more than 64 ways");
    const std::uint64_t w = static_cast<std::uint64_t>(ways);
    const std::uint64_t sets = size_bytes / kLineBytes / w;
    sstAssert(sets > 0, "cache needs at least one set");
    sstAssert(isPow2(sets), "cache set count must be a power of two");
    wayBits_ = log2i(w);
    sstAssert(sets << wayBits_ < kNoSlot, "cache has too many ways to index");
    sets_ = static_cast<Slot>(sets);
    ways_ = static_cast<Slot>(w);
    setBits_ = log2i(sets);
    waysMask_ = ways == 64 ? ~std::uint64_t(0)
                           : (std::uint64_t(1) << ways) - 1;

    // The per-way arrays are sized for the way count rounded up to a
    // power of two, so a slot's way bits index them directly.
    const std::size_t n = std::size_t{1} << wayBits_;
    groups_ = static_cast<unsigned>((n + 7) / 8);
    stateOff_ = kCheckOff + 8 * groups_;
    prevOff_ = stateOff_ + n;
    nextOff_ = prevOff_ + n;
    tagOff_ = roundUp(nextOff_ + n, 8);
    stride_ = roundUp(tagOff_ + 8 * n, sizeof(Chunk));
    blocks_.resize(sets * stride_ / sizeof(Chunk));
    reset();
}

SetAssocArray
SetAssocArray::fromSets(int sets, int ways)
{
    sstAssert(sets > 0, "cache needs at least one set");
    return SetAssocArray(static_cast<std::uint64_t>(sets) *
                             static_cast<std::uint64_t>(ways) * kLineBytes,
                         ways);
}

bool
SetAssocArray::invalidate(Addr line, bool keep_tag)
{
    const Slot s = findValid(line);
    if (s == kNoSlot)
        return false;
    unsigned char *b = block(s >> wayBits_);
    const unsigned char w = wayOf(s);
    if (keep_tag) {
        // Still resident, in its place in the recency list.
        b[stateOff_ + w] = kCohInv;
    } else {
        unlink(b, w);
        store64(b + kFreeOff,
                load64(b + kFreeOff) | (std::uint64_t(1) << w));
        store64(b + tagOff_ + 8 * std::size_t{w}, kNoTag);
        b[stateOff_ + w] = 0;
    }
    return true;
}

void
SetAssocArray::reset()
{
    unsigned char *first = blocks_.front().bytes;
    std::memset(first, 0, stride_);
    store64(first + kFreeOff, waysMask_);
    first[kMruOff] = kNil;
    first[kLruOff] = kNil;
    for (std::size_t w = 0; w < (std::size_t{1} << wayBits_); ++w)
        store64(first + tagOff_ + 8 * w, kNoTag);
    for (Slot set = 1; set < sets_; ++set)
        std::memcpy(block(set), first, stride_);
}

std::uint64_t
SetAssocArray::validCount() const
{
    std::uint64_t n = 0;
    for (Slot s = 0; s < slots(); ++s)
        n += valid(s);
    return n;
}

} // namespace sst
