/**
 * @file
 * The CMP system simulator. Executes one multi-threaded workload on N
 * cores with private L1s, a shared LLC, a shared memory bus + banked
 * DRAM, an OS scheduler with spin-then-yield synchronization, and the
 * per-thread cycle accounting architecture observing it all.
 *
 * Simulation is event-driven: cores run ahead locally through compute
 * ops and stop at every globally visible action (memory reference, lock,
 * barrier). The event engine (EventQueue, one indexed min-heap over core
 * and wake events) always advances the earliest pending action, so
 * shared structures (LLC tags, DRAM bus/banks, locks) observe accesses
 * in global time order, which keeps the computed-at-issue DRAM schedule
 * exact — at O(log ncores) per event instead of a per-event core scan.
 *
 * OS policy decisions (which thread a freed core runs, wake placement,
 * time slicing) are delegated to the pluggable Scheduler subsystem
 * (src/sched/, selected by SimParams::schedPolicy); the system keeps the
 * mechanism: thread states, switch/wake costs, accounting hooks.
 *
 * Synchronization protocol: a failed lock acquire (or non-final barrier
 * arrival) enters a spin loop that polls the lock/barrier word through
 * the cache hierarchy every spinCheckCycles; after spinYieldThreshold
 * cycles the thread yields, is parked on the primitive's wait list, and
 * is woken by the releaser (futex-style), paying wake + context-switch
 * costs. Short waits therefore register as spinning and long waits as
 * yielding, matching Sections 4.3 and 4.4 of the paper.
 */

#ifndef SST_SIM_SYSTEM_HH
#define SST_SIM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "accounting/accounting_unit.hh"
#include "cache/hierarchy.hh"
#include "mem/dram.hh"
#include "sched/scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/params.hh"
#include "sim/run_result.hh"
#include "sync/sync_state.hh"
#include "util/types.hh"
#include "workload/op_source.hh"
#include "workload/workload_spec.hh"

namespace sst {

/**
 * One simulated execution of a workload on a CMP. The workload is any
 * set of per-thread OpSource streams: the synthetic ThreadProgram
 * generator, a recorded-trace replay, or any future frontend — the
 * simulator itself never depends on how the streams are produced.
 */
class System
{
  public:
    /**
     * Generic form: one op source per software thread, built by
     * @p sources. This is the primary constructor; every workload
     * frontend plugs in here.
     *
     * @param params machine + OS + accounting configuration
     * @param sources factory producing each thread's op stream
     * @param nthreads software threads to spawn (may exceed
     *        params.ncores; the scheduler then time-shares cores)
     * @param topo per-thread barrier quorums and scheduler affinity
     *        hints for heterogeneous workloads; nullptr (or empty
     *        members) means the homogeneous defaults: every barrier
     *        waits for all threads, no hints
     */
    System(const SimParams &params, const OpSourceFactory &sources,
           int nthreads, const ThreadTopology *topo = nullptr);

    /** One system is one run: neither copyable nor movable. */
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run to completion and return all measurements. */
    RunResult run();

    /** Accounting hardware (valid after run()). */
    const AccountingUnit &accounting() const { return acct_; }

    /** Cache hierarchy (valid after run()). */
    const CacheHierarchy &hierarchy() const { return hierarchy_; }

    /** Sync state, exposed for tests. */
    const SyncManager &sync() const { return sync_; }

    /** The scheduler policy driving this run (exposed for tests). */
    const Scheduler &scheduler() const { return *sched_; }

  private:
    static constexpr Cycles kNever = kNeverCycles;

    enum class ThreadState : std::uint8_t {
        kReady,        ///< runnable, waiting for a core
        kRunning,      ///< executing on a core
        kSpinLock,     ///< spin loop on a lock word
        kSpinBarrier,  ///< spin loop on a barrier word
        kBlockedLock,  ///< yielded, parked on a lock wait list
        kBlockedBarrier, ///< yielded, parked on a barrier wait list
        kFinished,
    };

    enum class BlockReason : std::uint8_t {
        kNone,
        kLock,
        kBarrier,
        kPreempt, ///< time-slice expiry; wait is charged on resume
    };

    struct Thread
    {
        ThreadId tid = 0;
        ThreadState state = ThreadState::kReady;
        std::unique_ptr<OpSource> program;
        Op pending;
        bool hasPending = false;
        int pendingSlots = 0;     ///< sub-cycle dispatch slot accumulator
        Cycles spinStart = 0;
        int waitId = 0;
        std::uint64_t waitGeneration = 0;
        Cycles blockStart = 0;
        BlockReason blockReason = BlockReason::kNone;
        CoreId lastCore = kInvalidId;
        Cycles sliceStart = 0;
        std::uint64_t storeSerial = 0;  ///< Li detector state component
    };

    struct Core
    {
        CoreId id = 0;
        ThreadId thread = kInvalidId;
        // The core's next event time lives solely in the event engine
        // (events_); setCoreNext re-keys it there.
    };

    // ---- event processing --------------------------------------------------
    void processCore(Core &core, Cycles now);
    void executeFrom(Core &core, Thread &th, Cycles now);
    void spinLockCheck(Core &core, Thread &th, Cycles now);
    void spinBarrierCheck(Core &core, Thread &th, Cycles now);

    // ---- op handlers (return false if the core rescheduled/blocked) --------
    bool doMemRef(Core &core, Thread &th, const Op &op, Cycles &now);
    bool doLockAcquire(Core &core, Thread &th, const Op &op, Cycles &now);
    void doLockRelease(Core &core, Thread &th, const Op &op, Cycles &now);
    bool doBarrier(Core &core, Thread &th, const Op &op, Cycles &now);
    void finishThread(Core &core, Thread &th, Cycles now);

    // ---- scheduling mechanism (policy lives in sched_) ---------------------
    void blockThread(Core &core, Thread &th, BlockReason reason,
                     Cycles now);
    void scheduleNext(Core &core, Cycles now);
    void wakeThread(ThreadId tid, Cycles now);
    void enqueueWake(ThreadId tid, Cycles now);

    // ---- helpers ---------------------------------------------------------------
    void chargeInstructions(Thread &th, std::uint32_t count, Cycles &now);
    Cycles spinBranchHash(const Thread &th, std::uint64_t value) const;

    /** Re-key @p core's event-engine entry to @p at. */
    void setCoreNext(Core &core, Cycles at);

    SimParams params_;
    int nthreads_;

    CacheHierarchy hierarchy_;
    DramModel dram_;
    SyncManager sync_;
    ValueTracker tracker_;
    AccountingUnit acct_;

    std::vector<Thread> threads_;
    /** Barrier quorum per thread: its program group's size for mixes,
     *  all threads otherwise (groups namespace their barrier ids, so
     *  the arriving thread determines a barrier's participant set). */
    std::vector<int> quorums_;
    std::vector<Core> cores_;
    EventQueue events_;
    std::unique_ptr<Scheduler> sched_;
    std::uint64_t engineEvents_ = 0; ///< events dispatched by run()
    std::uint64_t engineWakes_ = 0;  ///< wake events dispatched
    std::uint64_t enginePreemptions_ = 0; ///< time-slice preemptions
    int finishedThreads_ = 0;
    Cycles roiStart_ = 0;  ///< cycle at which all measurements (re)start
    int roiPassed_ = 0;
    std::vector<RegionBoundary> regions_;
    bool ran_ = false;
};

/**
 * Simulate arbitrary op sources: run @p nthreads streams built by
 * @p sources on @p nthreads cores (or @p ncores_override cores when
 * oversubscribing). This is the entry point trace replay and other
 * non-ThreadProgram frontends use. Heterogeneous frontends pass their
 * @p topo (quorums, hints).
 */
RunResult simulateSources(const SimParams &base,
                          const OpSourceFactory &sources, int nthreads,
                          int ncores_override = 0,
                          const ThreadTopology *topo = nullptr);

/**
 * Simulate a (possibly heterogeneous) workload: every thread runs its
 * group's profile with disjoint data/sync namespaces, barrier quorums
 * and affinity hints derived from the spec. A homogeneous spec
 * (WorkloadSpec::homogeneous) runs ThreadProgram(profile, tid, n) on
 * every thread, bit-identical to the historical single-profile runs.
 */
RunResult simulateWorkload(const SimParams &base, const WorkloadSpec &spec,
                           int ncores_override = 0);

} // namespace sst

#endif // SST_SIM_SYSTEM_HH
