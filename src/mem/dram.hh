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
 * Busy-interval allocator for the shared bus. The command and the data
 * burst of a request occupy the bus separately, and the bank access in
 * between leaves the bus free for other cores — so the allocator must be
 * able to fill gaps between existing reservations. Requests are issued
 * in nondecreasing time order, which lets reserve() prune intervals that
 * ended before the current issue time.
 */
class BusTimeline
{
  public:
    /**
     * Reserve @p len bus cycles at the earliest point >= @p t.
     * @param[out] blocker core whose reservation forced the final wait
     *             (kInvalidId if none)
     * @return the reservation's start cycle
     */
    Cycles reserve(Cycles t, Cycles len, CoreId who, CoreId &blocker);

    /**
     * Drop reservations that ended before @p t. Callers must pass a
     * watermark no later than any future reserve() time (the monotone
     * request issue time qualifies).
     */
    void pruneBefore(Cycles t);

    /**
     * Amortized-O(1) variant for the per-access hot path: drop only the
     * leading run of expired reservations by advancing a head index
     * (compacting the backing vector when the dead prefix grows).
     * Interior expired intervals are left in place — reserve() skips
     * them anyway, so the computed schedule is identical to pruning
     * fully on every access.
     */
    void pruneFront(Cycles t);

    /** Number of retained reservations (test/diagnostic helper). */
    std::size_t liveReservations() const { return busy_.size() - head_; }

  private:
    struct Interval
    {
        Cycles start;
        Cycles end;
        CoreId owner;
    };
    std::vector<Interval> busy_; ///< busy_[head_..]: sorted by start
    std::size_t head_ = 0;       ///< first live slot in busy_
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

    /** ORA: per core x bank, the row this core opened most recently. */
    struct OraEntry
    {
        std::uint64_t row = 0;
        bool valid = false;
    };
    std::vector<std::vector<OraEntry>> ora_;

    std::vector<DramStats> stats_;
};

} // namespace sst

#endif // SST_MEM_DRAM_HH
