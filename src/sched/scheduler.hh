/**
 * @file
 * The simulated OS scheduler. A Scheduler owns every policy decision
 * the simulated OS makes — which ready thread a freed core picks up
 * (placement + affinity), where a woken thread lands (wake placement),
 * and when a running thread's time slice expires — while the System
 * keeps the mechanism: thread states, context-switch and wake costs,
 * and the accounting hooks. The SchedPolicy only changes the pick rule
 * (pickNext) and whether enqueue() honours the wake fast path.
 *
 * The contract mirrors a real kernel's run queue:
 *
 *  - enqueue() adds a runnable thread to the ready pool. The `preferred`
 *    flag marks the wake fast path: the waker found an idle core and the
 *    thread should be first in line for it (FIFO-ordered policies put it
 *    at the head of the queue).
 *  - pickNext(core) chooses AND removes the thread the now-idle @p core
 *    runs next, or kInvalidId when the pool is empty.
 *  - placeWoken() picks the idle core a woken thread is dispatched to
 *    (kInvalidId when every core is busy); the system tracks occupancy
 *    through onCoreBusy()/onCoreIdle().
 *  - shouldPreempt() is the time-slice test, evaluated before each op of
 *    a running thread when other threads are waiting.
 *
 * Every policy is deterministic: given the same event sequence it makes
 * the same decisions, so simulations stay bit-reproducible (the random
 * policy draws from a seeded private RNG stream).
 */

#ifndef SST_SCHED_SCHEDULER_HH
#define SST_SCHED_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "sched/policy.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace sst {

/** A runnable thread as the scheduler sees it. */
struct ReadyThread
{
    ThreadId tid = kInvalidId;
    CoreId lastCore = kInvalidId; ///< where it last ran (affinity hint)
};

/** Policy half of the simulated OS scheduler (see file comment). */
class Scheduler
{
  public:
    /**
     * @param policy pick rule of the ready pool
     * @param seed RNG stream of the random policy (ignored by the others)
     * @param ncores cores of the machine
     * @param time_slice preemption quantum of an oversubscribed run
     * @param nthreads software threads of the run
     */
    Scheduler(SchedPolicy policy, std::uint64_t seed, int ncores,
              Cycles time_slice, int nthreads);

    // ---- ready pool ------------------------------------------------------
    /** Add a runnable thread; @p preferred marks the wake fast path. */
    void enqueue(const ReadyThread &t, bool preferred);

    /** Choose and remove the next thread for @p core (or kInvalidId). */
    ThreadId pickNext(CoreId core);

    /** Any thread waiting for a core? */
    bool hasReady() const { return !ready_.empty(); }

    // ---- core occupancy (maintained by the system) -------------------------
    void onCoreBusy(CoreId core) { idle_[static_cast<std::size_t>(core)] = 0; }
    void onCoreIdle(CoreId core) { idle_[static_cast<std::size_t>(core)] = 1; }

    // ---- workload affinity hints -------------------------------------------
    /**
     * Install per-thread preferred cores. Heterogeneous workloads use
     * this to keep pipeline stages on a stable core range (the stage's
     * working set stays resident); the table is empty for homogeneous
     * runs, which keeps every historical schedule bit-identical. The
     * affinity-fifo pick and wake placement consult a thread's hint
     * after its last-run core.
     */
    void setAffinityHints(std::vector<CoreId> hints);

    // ---- wake placement ----------------------------------------------------
    /**
     * Idle core for woken thread @p tid (kInvalidId when all cores are
     * busy): its @p last_core if idle (its affinity hint if it has not
     * run yet), else the lowest-numbered idle core.
     */
    CoreId placeWoken(ThreadId tid, CoreId last_core) const;

    // ---- time slicing ------------------------------------------------------
    /** Preempt a thread running since @p slice_start? Only when the
     *  machine is oversubscribed and a time slice has elapsed. */
    bool
    shouldPreempt(Cycles now, Cycles slice_start) const
    {
        return nthreads_ > ncores_ && now >= slice_start + timeSlice_;
    }

  private:
    /** Preferred core of @p tid (kInvalidId when no hint installed). */
    CoreId
    affinityHint(ThreadId tid) const
    {
        return hints_.empty() ? kInvalidId
                              : hints_[static_cast<std::size_t>(tid)];
    }

    /** Remove the ready thread at @p it and return its id. */
    ThreadId take(std::deque<ReadyThread>::iterator it);

    SchedPolicy policy_;
    int ncores_;
    Cycles timeSlice_;
    int nthreads_;
    std::deque<ReadyThread> ready_;
    Rng rng_; ///< the random policy's draws
    std::vector<std::uint8_t> idle_;
    std::vector<CoreId> hints_; ///< per-thread preferred cores (optional)
};

} // namespace sst

#endif // SST_SCHED_SCHEDULER_HH
