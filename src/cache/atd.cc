#include "atd.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace sst {

Atd::Atd(std::uint64_t llc_size_bytes, int llc_ways, int sampling_factor)
    : llcSets_(static_cast<int>(llc_size_bytes / kLineBytes /
                                static_cast<std::uint64_t>(llc_ways))),
      sampling_(sampling_factor),
      atdSets_(llcSets_ / sampling_factor),
      array_(SetAssocArray::fromSets(atdSets_ > 0 ? atdSets_ : 1,
                                     llc_ways))
{
    sstAssert(sampling_ >= 1, "ATD sampling factor must be >= 1");
    sstAssert(llcSets_ % sampling_ == 0,
              "ATD sampling factor must divide the LLC set count");
    llcSetBits_ = log2i(static_cast<std::uint64_t>(llcSets_));
    atdSetBits_ = log2i(static_cast<std::uint64_t>(array_.sets()));
    const std::uint64_t f = static_cast<std::uint64_t>(sampling_);
    if (isPow2(f))
        samplingMask_ = f - 1;
}

bool
Atd::isSampled(Addr line) const
{
    const std::uint64_t llc_set =
        line & (static_cast<std::uint64_t>(llcSets_) - 1);
    if (samplingMask_ != 0 || sampling_ == 1)
        return (llc_set & samplingMask_) == 0;
    return llc_set % static_cast<std::uint64_t>(sampling_) == 0;
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

std::uint64_t
Atd::hardwareBits() const
{
    // Per entry: tag bits for a 48-bit physical address plus 2 status
    // bits (valid + dirty), matching the cost accounting in [7].
    const int addr_bits = 48;
    const int line_off_bits = log2i(kLineBytes);
    const int set_bits = log2i(static_cast<std::uint64_t>(llcSets_));
    const int tag_bits = addr_bits - line_off_bits - set_bits;
    const int entry_bits = tag_bits + 2;
    return static_cast<std::uint64_t>(array_.sets()) *
           static_cast<std::uint64_t>(array_.ways()) *
           static_cast<std::uint64_t>(entry_bits);
}

} // namespace sst
