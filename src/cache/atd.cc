#include "atd.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace sst {

Atd::Atd(std::uint64_t llc_size_bytes, int llc_ways, int sampling_factor)
    : llcSets_(static_cast<int>(llc_size_bytes / kLineBytes /
                                static_cast<std::uint64_t>(llc_ways))),
      sampling_(sampling_factor),
      atdSets_(llcSets_ / sampling_factor),
      samplingMask_(static_cast<std::uint64_t>(sampling_factor) - 1),
      array_(SetAssocArray::fromSets(atdSets_, llc_ways))
{
    sstAssert(sampling_ >= 1 &&
                  isPow2(static_cast<std::uint64_t>(sampling_)),
              "ATD sampling factor must be a power of two");
    sstAssert(llcSets_ % sampling_ == 0,
              "ATD sampling factor must divide the LLC set count");
    llcSetBits_ = log2i(static_cast<std::uint64_t>(llcSets_));
    atdSetBits_ = log2i(static_cast<std::uint64_t>(array_.sets()));
}

bool
Atd::isSampled(Addr line) const
{
    // The factor divides the power-of-two set count, so the set index's
    // low bits are the line's.
    return (line & samplingMask_) == 0;
}

Atd::Probe
Atd::access(Addr line)
{
    Probe probe;
    if (!isSampled(line))
        return probe;
    probe.sampled = true;
    ++sampledAccesses_;

    // Remap to a dense pseudo line number so the backing array indexes
    // monitored sets contiguously: atd_set = llc_set / sampling, tag kept
    // in the upper bits.
    const std::uint64_t llc_set =
        line & (static_cast<std::uint64_t>(llcSets_) - 1);
    const std::uint64_t tag = line >> llcSetBits_;
    const std::uint64_t atd_set =
        llc_set / static_cast<std::uint64_t>(sampling_);
    const Addr pseudo = (tag << atdSetBits_) | atd_set;

    const Slot s = array_.findAny(pseudo);
    if (s != kNoSlot && array_.valid(s)) {
        probe.hit = true;
        array_.touch(s);
    } else {
        array_.fill(pseudo, s);
    }
    return probe;
}

} // namespace sst
