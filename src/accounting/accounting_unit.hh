/**
 * @file
 * The per-thread cycle accounting architecture (Section 4). One
 * AccountingUnit instance models the accounting hardware of the whole
 * CMP: per-thread raw counters plus per-thread spin detectors. The
 * simulator calls the on*() hooks at the architectural events a real
 * implementation would observe; no simulator-internal knowledge flows
 * into the hardware-visible counters.
 */

#ifndef SST_ACCOUNTING_ACCOUNTING_UNIT_HH
#define SST_ACCOUNTING_ACCOUNTING_UNIT_HH

#include <cstdint>
#include <vector>

#include "accounting/counters.hh"
#include "sync/spin_detect.hh"
#include "util/types.hh"

namespace sst {

/** Configuration of the accounting hardware. */
struct AccountingParams
{
    TianSpinDetector::Params tian;
    LiSpinDetector::Params li;
    /**
     * Which spin detector feeds the speedup stack. The paper uses the
     * Tian et al. mechanism because it is the simpler hardware;
     * `machine.stack-detector = li` builds the stack from the Li
     * detector instead (defaultReportOptions()).
     */
    enum class Detector { kTian, kLi } stackDetector = Detector::kTian;
};

/** Accounting hardware for all threads of a run. */
class AccountingUnit
{
  public:
    AccountingUnit(int nthreads, const AccountingParams &params);

    /** The Tian detectors point into this unit's watch table. */
    AccountingUnit(const AccountingUnit &) = delete;
    AccountingUnit &operator=(const AccountingUnit &) = delete;

    // ---- event hooks, called by the simulator ----------------------------

    /** @p n program instructions committed by @p tid. */
    void onInstructions(ThreadId tid, std::uint64_t n);

    /** @p n spin-loop instructions executed by @p tid. */
    void onSpinInstructions(ThreadId tid, std::uint64_t n);

    /**
     * A committed load of a value the simulator knows (a lock or barrier
     * word): feeds the Tian detector.
     * @param value version value at the loaded address
     * @param written_by_other last writer differs from @p tid
     */
    void onLoad(ThreadId tid, PC pc, Addr addr, std::uint64_t value,
                bool written_by_other, Cycles now);

    /**
     * A committed data load of line @p line: the Tian detector compares
     * the line's store count, kept while one of its entries watches it.
     */
    void onDataLoad(ThreadId tid, PC pc, Addr line, Cycles now);

    /** A committed data store by @p tid to line @p line. */
    void onStore(ThreadId tid, Addr line);

    /**
     * A backward branch with compact state hash @p state_hash (Li
     * detector input).
     */
    void onBackwardBranch(ThreadId tid, PC pc, std::uint64_t state_hash,
                          Cycles now);

    /** An LLC access by @p tid; @p sampled if it mapped to an ATD set. */
    void onLlcAccess(ThreadId tid, bool sampled);

    /**
     * An LLC load miss completed after stalling the core for
     * @p visible_stall cycles (the portion blocking the ROB head).
     * Memory-interference attributions are clamped to the visible stall
     * (waits hidden by out-of-order overlap cost nothing, Section 4.1)
     * and recorded only for sampled, intra-thread misses so that the
     * cache and memory components never double-count the same cycles.
     */
    void onLlcLoadMissComplete(ThreadId tid, Cycles visible_stall,
                               bool sampled, bool inter_thread,
                               Cycles bus_wait_other,
                               Cycles bank_wait_other,
                               Cycles page_conflict_other);

    /** A sampled inter-thread LLC hit (positive interference event). */
    void onInterThreadHit(ThreadId tid);

    /** OS hook: @p tid was descheduled for @p cycles on a sync wait. */
    void onYield(ThreadId tid, Cycles cycles);

    /** A coherency miss (L1 invalid-tag re-reference). */
    void onCoherencyMiss(ThreadId tid);

    /**
     * OS hook: @p tid was descheduled. The per-core spin-detector tables
     * belong to the core, so a context switch flushes the thread's
     * tracked state (a real implementation would either flush or tag
     * entries; flushing is the conservative choice and a documented
     * source of spin-time underestimation).
     */
    void onDescheduled(ThreadId tid);

    /**
     * Region-of-interest start: zero @p tid's counters (the spin
     * detector state is hardware and persists).
     */
    void resetThread(ThreadId tid);

    // ---- ground-truth hooks (validation only) -----------------------------
    void gtLockSpin(ThreadId tid, Cycles cycles);
    void gtBarrierSpin(ThreadId tid, Cycles cycles);
    void gtLockYield(ThreadId tid, Cycles cycles);
    void gtBarrierYield(ThreadId tid, Cycles cycles);
    void gtPreemptYield(ThreadId tid, Cycles cycles);
    void gtMemWaitOther(ThreadId tid, Cycles cycles);
    void setFinishTime(ThreadId tid, Cycles when);

    // ---- access -----------------------------------------------------------
    const ThreadCounters &counters(ThreadId tid) const;
    int nthreads() const { return static_cast<int>(threads_.size()); }
    const AccountingParams &params() const { return params_; }

  private:
    AccountingParams params_;
    std::vector<ThreadCounters> threads_;
    LineWatches watches_; ///< one watcher per Tian entry, all threads
    std::vector<TianSpinDetector> tian_;
    std::vector<LiSpinDetector> li_;
};

} // namespace sst

#endif // SST_ACCOUNTING_ACCOUNTING_UNIT_HH
