/**
 * @file
 * Random scheduler policy: uniform pick from the ready pool, driven by
 * a private deterministic RNG stream (the toolkit's xoshiro256**
 * generator, seeded from SimParams::schedSeed). Useful as a
 * worst-case-affinity reference and for scheduling-noise studies —
 * distinct schedSeed values give independent, reproducible schedules.
 */

#ifndef SST_SCHED_RANDOM_SCHED_HH
#define SST_SCHED_RANDOM_SCHED_HH

#include <vector>

#include "sched/scheduler.hh"
#include "util/rng.hh"

namespace sst {

/** Uniform random pick; wake fast path and FIFO order are irrelevant. */
class RandomScheduler : public Scheduler
{
  public:
    RandomScheduler(int ncores, Cycles time_slice, int nthreads,
                    std::uint64_t seed);

    const char *name() const override { return "random"; }

    void
    enqueue(const ReadyThread &t, bool) override
    {
        pool_.push_back(t);
    }

    ThreadId pickNext(CoreId core) override;

    bool hasReady() const override { return !pool_.empty(); }

  private:
    std::vector<ReadyThread> pool_;
    Rng rng_;
};

} // namespace sst

#endif // SST_SCHED_RANDOM_SCHED_HH
