/**
 * @file
 * Hardware cost model of the cycle accounting architecture (Section 4.7
 * of the paper). The paper quotes 952 bytes per core for the
 * interference accounting (ATD + ORA + event counters, from [7]) plus
 * 217 bytes per core for the Tian et al. load table — about 1.1 KB per
 * core, 18 KB for a 16-core CMP. This model derives those numbers from
 * structure geometry so design-space sweeps (e.g. the ATD sampling
 * ablation) report cost alongside accuracy.
 */

#ifndef SST_ACCOUNTING_HW_COST_HH
#define SST_ACCOUNTING_HW_COST_HH

#include <cstdint>

#include "sync/spin_detect.hh"

namespace sst {

/** Geometry inputs of the cost model. */
struct HwCostConfig
{
    std::uint64_t llcBytes = 2 * 1024 * 1024;
    int llcWays = 16;
    int atdSamplingFactor = 128; ///< the hardware-proposal operating point
    int physAddrBits = 42;
    int nbanks = 8;
    std::uint64_t dramRowBytes = 2048; ///< DRAM row (open page) size
    int eventCounters = 8;   ///< raw event counter file per core
    int counterBits = 59;    ///< width of each event counter
    TianSpinDetector::Params tian;
};

/** Byte-level breakdown of the accounting hardware for one core. */
struct HwCostBreakdown
{
    std::uint64_t atdBits = 0;
    std::uint64_t oraBits = 0;
    std::uint64_t counterBits = 0;
    std::uint64_t spinTableBits = 0;

    std::uint64_t atdBytes() const { return (atdBits + 7) / 8; }
    std::uint64_t oraBytes() const { return (oraBits + 7) / 8; }
    std::uint64_t counterBytes() const { return (counterBits + 7) / 8; }
    std::uint64_t spinTableBytes() const { return (spinTableBits + 7) / 8; }

    /** Interference accounting bytes per core (the paper's 952 B). */
    std::uint64_t
    interferenceBytesPerCore() const
    {
        return atdBytes() + oraBytes() + counterBytes();
    }

    /** Total accounting bytes per core (the paper's ~1.1 KB). */
    std::uint64_t
    totalBytesPerCore() const
    {
        return interferenceBytesPerCore() + spinTableBytes();
    }

    /** Chip-level total for @p ncores cores (the paper's ~18 KB @ 16). */
    std::uint64_t
    totalBytesChip(int ncores) const
    {
        return totalBytesPerCore() * static_cast<std::uint64_t>(ncores);
    }
};

/** Compute the per-core hardware cost for @p config. */
HwCostBreakdown computeHwCost(const HwCostConfig &config = HwCostConfig());

} // namespace sst

#endif // SST_ACCOUNTING_HW_COST_HH
