#include "sync_state.hh"

#include "util/logging.hh"

namespace sst {

LockState &
SyncManager::lockRef(LockId lock)
{
    return locks_[lock];
}

BarrierState &
SyncManager::barrierRef(BarrierId barrier)
{
    return barriers_[barrier];
}

bool
SyncManager::tryAcquire(LockId lock, ThreadId tid)
{
    LockState &ls = lockRef(lock);
    if (ls.owner != kInvalidId)
        return false;
    ls.owner = tid;
    ++ls.word; // test-and-set write
    ls.lastWriter = tid;
    ++ls.acquisitions;
    return true;
}

ThreadId
SyncManager::release(LockId lock, ThreadId tid)
{
    LockState &ls = lockRef(lock);
    sstAssert(ls.owner == tid, "lock released by non-owner");
    ls.owner = kInvalidId;
    ++ls.word; // release write: spinners observe the change
    ls.lastWriter = tid;
    if (ls.yieldedWaiters.empty())
        return kInvalidId;
    const ThreadId waiter = ls.yieldedWaiters.front();
    ls.yieldedWaiters.pop_front();
    return waiter;
}

void
SyncManager::addLockWaiter(LockId lock, ThreadId tid)
{
    LockState &ls = lockRef(lock);
    ++ls.contendedAcquisitions;
    ls.yieldedWaiters.push_back(tid);
}

bool
SyncManager::barrierArrive(BarrierId barrier, ThreadId tid, int nthreads,
                           std::vector<ThreadId> &woken)
{
    BarrierState &bs = barrierRef(barrier);
    ++bs.arrived;
    if (bs.arrived < nthreads)
        return false;
    // Last arriver: open the barrier. Spinners see the generation bump;
    // yielded waiters are returned for the scheduler to wake.
    bs.arrived = 0;
    ++bs.generation;
    ++bs.episodes;
    bs.lastWriter = tid;
    woken = bs.yieldedWaiters;
    bs.yieldedWaiters.clear();
    return true;
}

void
SyncManager::addBarrierWaiter(BarrierId barrier, ThreadId tid)
{
    barrierRef(barrier).yieldedWaiters.push_back(tid);
}

std::uint64_t
SyncManager::barrierWord(BarrierId barrier) const
{
    return barriers_[barrier].generation;
}

std::uint64_t
SyncManager::lockWord(LockId lock) const
{
    return locks_[lock].owner != kInvalidId ? 1 : 0;
}

ThreadId
SyncManager::lockWordWriter(LockId lock) const
{
    return locks_[lock].lastWriter;
}

ThreadId
SyncManager::barrierWordWriter(BarrierId barrier) const
{
    return barriers_[barrier].lastWriter;
}

const LockState &
SyncManager::lockState(LockId lock) const
{
    return locks_[lock];
}

const BarrierState &
SyncManager::barrierState(BarrierId barrier) const
{
    return barriers_[barrier];
}

} // namespace sst
