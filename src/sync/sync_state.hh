/**
 * @file
 * Synchronization primitive state: test-and-test-and-set locks with a
 * FIFO wake list and sense-reversing barriers.
 *
 * The protocol (who spins, when a waiter yields, who wakes whom) is
 * driven by the simulator's core model and scheduler; this module only
 * holds the shared state so it can be unit-tested in isolation.
 *
 * Lock and barrier words carry version values: every release/arrival
 * bumps the word's value and records the writer, so a spin-loop load can
 * tell the Tian detector "the value changed and another core wrote it".
 */

#ifndef SST_SYNC_SYNC_STATE_HH
#define SST_SYNC_SYNC_STATE_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "util/types.hh"

namespace sst {

/** Runtime state of one lock. */
struct LockState
{
    ThreadId owner = kInvalidId;
    std::deque<ThreadId> yieldedWaiters; ///< FIFO of descheduled waiters
    std::uint64_t word = 0;              ///< version value of the lock word
    ThreadId lastWriter = kInvalidId;    ///< last thread that wrote the word
    std::uint64_t acquisitions = 0;
    std::uint64_t contendedAcquisitions = 0;
};

/** Runtime state of one barrier episode set. */
struct BarrierState
{
    int arrived = 0;
    std::uint64_t generation = 0;        ///< bumped when the barrier opens
    std::vector<ThreadId> yieldedWaiters;
    ThreadId lastWriter = kInvalidId;
    std::uint64_t episodes = 0;
};

/** All lock/barrier state of one simulated application run. */
class SyncManager
{
  public:
    /** Try to acquire @p lock for @p tid; true on success. */
    bool tryAcquire(LockId lock, ThreadId tid);

    /**
     * Release @p lock (owner must be @p tid).
     * @return the yielded waiter to wake, or kInvalidId
     */
    ThreadId release(LockId lock, ThreadId tid);

    /** Park @p tid on @p lock's yield list. */
    void addLockWaiter(LockId lock, ThreadId tid);

    /**
     * Arrive at @p barrier.
     * @param nthreads total participants
     * @param[out] woken filled with all yielded waiters when the barrier
     *             opens
     * @return true if @p tid was the last arriver (barrier opened)
     */
    bool barrierArrive(BarrierId barrier, ThreadId tid, int nthreads,
                       std::vector<ThreadId> &woken);

    /** Park @p tid on @p barrier's yield list. */
    void addBarrierWaiter(BarrierId barrier, ThreadId tid);

    /** Current generation of @p barrier (spin loads poll this). */
    std::uint64_t barrierWord(BarrierId barrier) const;

    /**
     * Current value of @p lock's word as a test-and-test-and-set spin
     * loop observes it: 1 while held, 0 when free. (A version counter
     * would change on every handoff and defeat the Tian detector's
     * same-value marking, which is exactly why real spin loops poll a
     * held/free flag.)
     */
    std::uint64_t lockWord(LockId lock) const;

    /** Last writer of the lock word. */
    ThreadId lockWordWriter(LockId lock) const;

    /** Last writer of the barrier word. */
    ThreadId barrierWordWriter(BarrierId barrier) const;

    const LockState &lockState(LockId lock) const;
    const BarrierState &barrierState(BarrierId barrier) const;

  private:
    LockState &lockRef(LockId lock);
    BarrierState &barrierRef(BarrierId barrier);

    mutable std::unordered_map<LockId, LockState> locks_;
    mutable std::unordered_map<BarrierId, BarrierState> barriers_;
};

} // namespace sst

#endif // SST_SYNC_SYNC_STATE_HH
