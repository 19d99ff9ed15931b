/**
 * @file
 * The pluggable OS scheduler subsystem. A Scheduler owns every policy
 * decision the simulated OS makes — which ready thread a freed core
 * picks up (placement + affinity), where a woken thread lands (wake
 * placement), and when a running thread's time slice expires — while
 * the System keeps the mechanism: thread states, context-switch and
 * wake costs, and the accounting hooks.
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
 * Policies must be deterministic: given the same event sequence they
 * must make the same decisions, so simulations stay bit-reproducible
 * (the random policy draws from a seeded private RNG stream).
 */

#ifndef SST_SCHED_SCHEDULER_HH
#define SST_SCHED_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sched/policy.hh"
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
     * @param ncores cores of the machine
     * @param time_slice preemption quantum of an oversubscribed run
     * @param nthreads software threads of the run
     */
    Scheduler(int ncores, Cycles time_slice, int nthreads);
    virtual ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Stable policy label (same string the CLI accepts). */
    virtual const char *name() const = 0;

    // ---- ready pool ------------------------------------------------------
    /** Add a runnable thread; @p preferred marks the wake fast path. */
    virtual void enqueue(const ReadyThread &t, bool preferred) = 0;

    /** Choose and remove the next thread for @p core (or kInvalidId). */
    virtual ThreadId pickNext(CoreId core) = 0;

    /** Any thread waiting for a core? */
    virtual bool hasReady() const = 0;

    // ---- core occupancy (maintained by the system) -------------------------
    void onCoreBusy(CoreId core);
    void onCoreIdle(CoreId core);

    // ---- workload affinity hints -------------------------------------------
    /**
     * Install per-thread preferred cores. Heterogeneous workloads use
     * this to keep pipeline stages on a stable core range (the stage's
     * working set stays resident); the table is empty for homogeneous
     * runs, which keeps every historical schedule bit-identical.
     * Policies consult affinityHint() as a placement tie-breaker after
     * last-run-core affinity.
     */
    void setAffinityHints(std::vector<CoreId> hints);

    /** Preferred core of @p tid (kInvalidId when no hint installed). */
    CoreId
    affinityHint(ThreadId tid) const
    {
        return hints_.empty() ? kInvalidId
                              : hints_[static_cast<std::size_t>(tid)];
    }

    bool hasAffinityHints() const { return !hints_.empty(); }

    // ---- wake placement ----------------------------------------------------
    /**
     * Idle core for woken thread @p tid, preferring @p last_core
     * (kInvalidId when all cores are busy). Default: the thread's last
     * core if idle, else the lowest-numbered idle core.
     */
    virtual CoreId placeWoken(ThreadId tid, CoreId last_core) const;

    // ---- time slicing ------------------------------------------------------
    /**
     * Preempt a thread running since @p slice_start? Default: only when
     * the machine is oversubscribed and a time slice has elapsed.
     */
    virtual bool shouldPreempt(Cycles now, Cycles slice_start) const;

  protected:
    /** Lowest-numbered idle core, preferring @p preferred; kInvalidId
     *  when every core is busy. */
    CoreId firstIdleCore(CoreId preferred) const;

    int ncores_;
    Cycles timeSlice_;
    int nthreads_;

  private:
    std::vector<std::uint8_t> idle_;
    std::vector<CoreId> hints_; ///< per-thread preferred cores (optional)
};

/**
 * Build the scheduler of @p policy for @p nthreads threads on
 * @p ncores cores; @p seed drives the random policy's RNG stream.
 */
std::unique_ptr<Scheduler> makeScheduler(SchedPolicy policy,
                                         std::uint64_t seed, int ncores,
                                         Cycles time_slice, int nthreads);

} // namespace sst

#endif // SST_SCHED_SCHEDULER_HH
