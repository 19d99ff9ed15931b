/**
 * @file
 * The shared memory subsystem: one command/data bus feeding a multi-bank
 * DRAM with an open-page (open-row) policy. All cores share the bus and
 * the banks, which creates the three negative memory interference effects
 * of Section 3.1 of the paper:
 *
 *   1. bus conflicts   — a request waits while the bus carries another
 *                        core's command or data,
 *   2. bank conflicts  — a request waits while its bank services another
 *                        core's access,
 *   3. page conflicts  — a core's open row was closed by another core's
 *                        access, forcing a precharge + activate that the
 *                        core would not have paid with the memory to
 *                        itself. Attribution uses the per-core open row
 *                        array (ORA) exactly as in Section 4.1.
 *
 * Timing is computed at issue: the model keeps per-resource free
 * timestamps and schedules each request FCFS, which is exact as long as
 * requests are issued in nondecreasing time order (the event loop
 * guarantees this).
 */

#ifndef SST_MEM_DRAM_HH
#define SST_MEM_DRAM_HH

#include <cstdint>
#include <map>
#include <vector>

#include "util/types.hh"

namespace sst {

/** DRAM and bus timing parameters; defaults follow the paper's setup. */
struct DramParams
{
    int nbanks = 8;            ///< shared memory banks
    Cycles busCycles = 2;      ///< bus occupancy per command transfer
    Cycles dataCycles = 4;     ///< bus occupancy for the data burst
    Cycles rowHitCycles = 30;  ///< CAS only (open-page hit)
    Cycles rowEmptyCycles = 50;  ///< activate + CAS (bank idle)
    Cycles rowConflictCycles = 70; ///< precharge + activate + CAS
    std::uint64_t rowBytes = 2048; ///< open page size
};

/** Complete timing/attribution breakdown of one DRAM access. */
struct DramResult
{
    Cycles completeAt = 0;     ///< cycle the data burst finishes
    Cycles serviceCycles = 0;  ///< completeAt - issue time
    Cycles busWait = 0;        ///< cycles waiting for the bus
    Cycles busWaitOther = 0;   ///< ... while held by another core
    Cycles bankWait = 0;       ///< cycles waiting for the bank
    Cycles bankWaitOther = 0;  ///< ... while held by another core
    bool rowConflict = false;  ///< access needed precharge + activate
    Cycles pageConflictPenalty = 0; ///< extra cycles vs an open-row hit
    bool pageConflictByOther = false; ///< ORA: another core closed our row
    int bank = 0;
    std::uint64_t row = 0;
};

/** Per-core ground-truth counters. */
struct DramStats
{
    std::uint64_t accesses = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowConflicts = 0;
    std::uint64_t busWaitOther = 0;
    std::uint64_t bankWaitOther = 0;
    std::uint64_t pageConflictOtherCycles = 0;
};

/**
 * Busy-cycle allocator for the shared bus. The command and the data
 * burst of a request occupy the bus separately, and the bank access in
 * between leaves the bus free for other cores — so the allocator must be
 * able to fill gaps between existing reservations.
 *
 * Reservations never overlap, so they are ordered by start and end
 * alike, and the ones that ended before the current issue time are
 * always a prefix. The timeline keeps a ring of per-cycle bits from the
 * watermark (no later call reserves before it) to the end of the
 * latest reservation: one bit marks a busy cycle, one marks the last
 * cycle of a reservation, whose owner (one byte) is stored beside it.
 * A search skips busy and free runs a 64-bit word at a time, so its
 * cost grows with the cycles it passes, not with the number of live
 * reservations, and an insert shifts nothing. The ring doubles when a
 * reservation lies past it, so it holds about 1.25 host bytes per cycle
 * of the span; validateMachine bounds the DRAM latencies and transfer
 * lengths that set the span.
 *
 * A zero-length reservation (a bus or data transfer of no cycles)
 * starts at @p t unless @p t lies strictly inside a reservation, in
 * which case it starts where that one ends. It is kept as a point that
 * no later reservation may straddle: one with the point strictly
 * between its first cycle and its end starts at the point instead.
 * Points are kept apart from the ring; only a zero-cycle bus key makes
 * any.
 */
class BusTimeline
{
  public:
    BusTimeline();

    /**
     * Reserve @p len bus cycles at the earliest point >= @p t where they
     * are all free. @p t must not precede the watermark.
     * @param len cycles (0 for a point, see above)
     * @param who owner, 0 .. 255
     * @param[out] blocker owner of the reservation that ends where this
     *             one starts, when it could not start at @p t
     *             (kInvalidId otherwise)
     * @return the reservation's start cycle
     */
    Cycles reserve(Cycles t, Cycles len, CoreId who, CoreId &blocker);

    /**
     * Raise the watermark to @p t, dropping the reservations that ended
     * by then. Callers must pass a watermark no later than any future
     * reserve() time (the monotone request issue time qualifies).
     */
    void pruneFront(Cycles t);

    /** Number of reservations and points ending after the watermark
     *  (test/diagnostic helper). */
    std::size_t liveReservations() const;

  private:
    /** Bit i set when cycle @p c + i is set in @p ring, for i in
     *  0 .. 63; cycles from the horizon on read as clear. */
    std::uint64_t bitsFrom(const std::vector<std::uint64_t> &ring,
                           Cycles c) const;
    /** Bit i set when cycle @p c + i is free, for i in 0 .. 63. */
    std::uint64_t freeFrom(Cycles c) const { return ~bitsFrom(busy_, c); }
    /** Earliest start >= @p t of @p len >= 1 free cycles that straddle
     *  no point (the search when they do not start at @p t). */
    Cycles firstFit(Cycles t, Cycles len) const;
    /** Owner of the reservation or point that ends at @p c. */
    CoreId ownerEndingAt(Cycles c) const;
    /** Set (@p on) or clear the bits of cycles [from, to) in @p ring. */
    void markRange(std::vector<std::uint64_t> &ring, Cycles from, Cycles to,
                   bool on);
    /** Make the ring span at least @p cycles from the watermark. */
    void grow(Cycles cycles);

    bool
    bitAt(const std::vector<std::uint64_t> &ring, Cycles c) const
    {
        return bitsFrom(ring, c) & 1;
    }

    std::vector<std::uint64_t> busy_; ///< per cycle: on the bus
    std::vector<std::uint64_t> ends_; ///< per cycle: a reservation's last
    std::vector<std::uint8_t> owner_; ///< per last cycle: who reserved
    Cycles mask_ = 0;    ///< ring cycles - 1 (a power of two, >= 63)
    Cycles base_ = 0;    ///< watermark
    Cycles horizon_ = 0; ///< every reservation ends by this cycle
    /** The watermark lies strictly inside a reservation (whose cycles
     *  before it the ring no longer holds). */
    bool baseInside_ = false;
    /** Zero-length reservations after the watermark: cycle -> owner of
     *  the latest one there. */
    std::map<Cycles, CoreId> points_;
};

/** Shared bus + banked open-page DRAM + per-core ORAs. */
class DramModel
{
  public:
    DramModel(int ncores, const DramParams &params);

    /**
     * Issue an access and compute its full schedule.
     * @param now issue cycle; must be >= every earlier call's @p now
     */
    DramResult access(CoreId core, Addr addr, Cycles now);

    /** Zero all per-core counters (region-of-interest start). */
    void resetStats();

    const DramStats &stats(CoreId core) const
    {
        return stats_[static_cast<std::size_t>(core)];
    }

    const DramParams &params() const { return params_; }

    /** Bank index for @p addr (exposed for tests). */
    int bankOf(Addr addr) const;

    /** Row number within its bank for @p addr (exposed for tests). */
    std::uint64_t rowOf(Addr addr) const;

  private:
    int ncores_;
    DramParams params_;

    /** nbanks - 1 when nbanks is a power of two, else 0 (slow modulo
     *  path); bankOf/rowOf run on every DRAM access. */
    std::uint64_t bankMask_ = 0;
    int bankBits_ = 0;
    int rowShift_ = 0; ///< log2(lines per row), 0 when not a power of two

    BusTimeline bus_;

    struct Bank
    {
        Cycles freeAt = 0;
        CoreId holder = kInvalidId;
        std::uint64_t openRow = 0;
        bool anyOpen = false;
        CoreId lastOpener = kInvalidId;
    };
    std::vector<Bank> banks_;

    /** ORA: per core x bank (core * nbanks + bank), the row this core
     *  opened most recently. */
    struct OraEntry
    {
        std::uint64_t row = 0;
        bool valid = false;
    };
    std::vector<OraEntry> ora_;

    std::vector<DramStats> stats_;
};

} // namespace sst

#endif // SST_MEM_DRAM_HH
