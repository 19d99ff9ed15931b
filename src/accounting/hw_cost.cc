#include "hw_cost.hh"

#include "util/bits.hh"

#include "util/logging.hh"
#include "util/types.hh"

namespace sst {

HwCostBreakdown
computeHwCost(const HwCostConfig &config)
{
    HwCostBreakdown b;

    const std::uint64_t llc_sets =
        config.llcBytes / kLineBytes /
        static_cast<std::uint64_t>(config.llcWays);
    sstAssert(llc_sets % static_cast<std::uint64_t>(
                             config.atdSamplingFactor) ==
                  0,
              "sampling factor must divide the LLC set count");
    const std::uint64_t monitored_sets =
        llc_sets / static_cast<std::uint64_t>(config.atdSamplingFactor);

    // ATD entry: tag + valid + dirty. Tags cover the physical address
    // minus line offset and set index bits.
    const int tag_bits = config.physAddrBits - log2i(kLineBytes) -
                         log2i(llc_sets);
    b.atdBits = monitored_sets *
                static_cast<std::uint64_t>(config.llcWays) *
                static_cast<std::uint64_t>(tag_bits + 2);

    // ORA: one open-row record per bank (row number + valid bit).
    const int row_bits = config.physAddrBits - log2i(kLineBytes) -
                         log2i(static_cast<std::uint64_t>(config.nbanks)) -
                         log2i(config.dramRowBytes / kLineBytes);
    b.oraBits = static_cast<std::uint64_t>(config.nbanks) *
                static_cast<std::uint64_t>(row_bits + 1);

    // Raw event counter file (stall cycles, miss counts, wait cycles...).
    b.counterBits = static_cast<std::uint64_t>(config.eventCounters) *
                    static_cast<std::uint64_t>(config.counterBits);

    // Tian et al. load table: 217 bytes with the default 8 entries.
    b.spinTableBits = TianSpinDetector::hardwareBits(config.tian);

    return b;
}

} // namespace sst
