#include "random_sched.hh"

namespace sst {

namespace {

/**
 * Domain-separate the scheduler's RNG stream from the workload streams:
 * even schedSeed == profile.seed must not correlate the schedule with
 * the generated address streams.
 */
constexpr std::uint64_t kSchedStreamSalt = 0x5c4ed5eed0515ULL;

} // namespace

RandomScheduler::RandomScheduler(int ncores, Cycles time_slice,
                                 int nthreads, std::uint64_t seed)
    : Scheduler(ncores, time_slice, nthreads),
      rng_(seed ^ kSchedStreamSalt)
{
}

ThreadId
RandomScheduler::pickNext(CoreId)
{
    if (pool_.empty())
        return kInvalidId;
    const std::size_t idx =
        static_cast<std::size_t>(rng_.below(pool_.size()));
    const ThreadId tid = pool_[idx].tid;
    pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(idx));
    return tid;
}

} // namespace sst
