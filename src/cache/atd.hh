/**
 * @file
 * Auxiliary tag directory (ATD). One ATD per core models a *private* LLC
 * of the same geometry as the shared LLC, fed by that core's L1-miss
 * stream. Comparing shared-LLC outcomes with ATD outcomes classifies
 * interference (Sections 4.1 and 4.2 of the paper):
 *
 *   - shared-LLC miss + ATD hit  -> inter-thread miss (negative
 *     interference: another thread evicted this core's data),
 *   - shared-LLC hit + ATD miss  -> inter-thread hit (positive
 *     interference: another thread prefetched shared data).
 *
 * To bound hardware cost only every sampling-factor-th LLC set is
 * monitored; the accounting software extrapolates sampled penalties by
 * the measured ratio of LLC accesses to sampled ATD accesses.
 */

#ifndef SST_CACHE_ATD_HH
#define SST_CACHE_ATD_HH

#include <cstdint>

#include "cache/set_assoc.hh"
#include "util/types.hh"

namespace sst {

/** Per-core sampled auxiliary tag directory. */
class Atd
{
  public:
    /**
     * @param llc_size_bytes size of the shared LLC being shadowed
     * @param llc_ways associativity of the shared LLC
     * @param sampling_factor monitor every sampling_factor-th set
     *        (1 = full shadow ATD, used as the oracle in tests)
     */
    Atd(std::uint64_t llc_size_bytes, int llc_ways, int sampling_factor);

    /** Outcome of one ATD probe. */
    struct Probe
    {
        bool sampled = false; ///< the access mapped to a monitored set
        bool hit = false;     ///< valid only when sampled
    };

    /**
     * Probe and update the ATD with an LLC access to @p line (the line is
     * inserted/promoted exactly as the private LLC would).
     */
    Probe access(Addr line);

    /** True if @p line maps to a monitored set. */
    bool isSampled(Addr line) const;

    /** Number of sampled accesses observed (denominator of the measured
     *  extrapolation factor). */
    std::uint64_t sampledAccesses() const { return sampledAccesses_; }

    /**
     * Hardware cost of this ATD in bits: monitored sets x ways x
     * (tag + status). Used by the hardware cost model (Section 4.7).
     */
    std::uint64_t hardwareBits() const;

  private:
    int llcSets_;
    int sampling_;
    int atdSets_;
    int llcSetBits_ = 0;  ///< log2(llcSets_), cached off the hot path
    int atdSetBits_ = 0;  ///< log2(array_.sets()), cached likewise
    /** sampling_ - 1 when sampling_ is a power of two, else 0 (slow
     *  modulo path); the sampled-set test runs on every LLC access. */
    std::uint64_t samplingMask_ = 0;
    SetAssocArray array_;
    std::uint64_t sampledAccesses_ = 0;
};

} // namespace sst

#endif // SST_CACHE_ATD_HH
