/**
 * @file
 * Unit tests for lock/barrier state and the memory value tracker.
 */

#include <gtest/gtest.h>

#include "sync/sync_state.hh"

namespace sst {
namespace {

TEST(SyncLock, AcquireReleaseCycle)
{
    SyncManager sync;
    EXPECT_TRUE(sync.tryAcquire(0, 3));
    EXPECT_FALSE(sync.tryAcquire(0, 4)); // held
    EXPECT_EQ(sync.release(0, 3), kInvalidId);
    EXPECT_TRUE(sync.tryAcquire(0, 4));
}

TEST(SyncLock, WordReflectsHeldState)
{
    SyncManager sync;
    EXPECT_EQ(sync.lockWord(0), 0u);
    sync.tryAcquire(0, 1);
    EXPECT_EQ(sync.lockWord(0), 1u);
    sync.release(0, 1);
    EXPECT_EQ(sync.lockWord(0), 0u);
    EXPECT_EQ(sync.lockWordWriter(0), 1);
}

TEST(SyncLock, WaitersWakeInFifoOrder)
{
    SyncManager sync;
    sync.tryAcquire(5, 0);
    sync.addLockWaiter(5, 1);
    sync.addLockWaiter(5, 2);
    EXPECT_EQ(sync.release(5, 0), 1);
    sync.tryAcquire(5, 1);
    EXPECT_EQ(sync.release(5, 1), 2);
    sync.tryAcquire(5, 2);
    EXPECT_EQ(sync.release(5, 2), kInvalidId);
}

TEST(SyncLock, TracksContention)
{
    SyncManager sync;
    sync.tryAcquire(0, 0);
    sync.addLockWaiter(0, 1);
    EXPECT_EQ(sync.lockState(0).acquisitions, 1u);
    EXPECT_EQ(sync.lockState(0).contendedAcquisitions, 1u);
}

TEST(SyncBarrier, OpensWhenAllArrive)
{
    SyncManager sync;
    std::vector<ThreadId> woken;
    EXPECT_FALSE(sync.barrierArrive(0, 0, 3, woken));
    EXPECT_FALSE(sync.barrierArrive(0, 1, 3, woken));
    EXPECT_EQ(sync.barrierWord(0), 0u);
    EXPECT_TRUE(sync.barrierArrive(0, 2, 3, woken));
    EXPECT_EQ(sync.barrierWord(0), 1u);
    EXPECT_EQ(sync.barrierWordWriter(0), 2);
}

TEST(SyncBarrier, WakesYieldedWaiters)
{
    SyncManager sync;
    std::vector<ThreadId> woken;
    sync.barrierArrive(0, 0, 3, woken);
    sync.addBarrierWaiter(0, 0);
    sync.barrierArrive(0, 1, 3, woken);
    sync.addBarrierWaiter(0, 1);
    sync.barrierArrive(0, 2, 3, woken);
    ASSERT_EQ(woken.size(), 2u);
    EXPECT_EQ(woken[0], 0);
    EXPECT_EQ(woken[1], 1);
}

TEST(SyncBarrier, ReusableAcrossGenerations)
{
    SyncManager sync;
    std::vector<ThreadId> woken;
    for (int gen = 0; gen < 5; ++gen) {
        EXPECT_FALSE(sync.barrierArrive(7, 0, 2, woken));
        EXPECT_TRUE(sync.barrierArrive(7, 1, 2, woken));
        EXPECT_EQ(sync.barrierWord(7),
                  static_cast<std::uint64_t>(gen + 1));
    }
    EXPECT_EQ(sync.barrierState(7).episodes, 5u);
}

} // namespace
} // namespace sst
