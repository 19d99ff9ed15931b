#include "scheduler.hh"

#include "sched/affinity_fifo.hh"
#include "sched/random_sched.hh"
#include "sched/round_robin.hh"
#include "util/logging.hh"

namespace sst {

Scheduler::Scheduler(int ncores, Cycles time_slice, int nthreads)
    : ncores_(ncores), timeSlice_(time_slice), nthreads_(nthreads),
      idle_(static_cast<std::size_t>(ncores), 1)
{
    sstAssert(ncores >= 1, "Scheduler needs at least one core");
}

Scheduler::~Scheduler() = default;

void
Scheduler::onCoreBusy(CoreId core)
{
    idle_[static_cast<std::size_t>(core)] = 0;
}

void
Scheduler::onCoreIdle(CoreId core)
{
    idle_[static_cast<std::size_t>(core)] = 1;
}

CoreId
Scheduler::firstIdleCore(CoreId preferred) const
{
    if (preferred != kInvalidId &&
        idle_[static_cast<std::size_t>(preferred)]) {
        return preferred;
    }
    for (std::size_t c = 0; c < idle_.size(); ++c) {
        if (idle_[c])
            return static_cast<CoreId>(c);
    }
    return kInvalidId;
}

void
Scheduler::setAffinityHints(std::vector<CoreId> hints)
{
    sstAssert(hints.empty() ||
                  hints.size() == static_cast<std::size_t>(nthreads_),
              "affinity hint table must cover every thread");
    for (const CoreId c : hints)
        sstAssert(c >= 0 && c < ncores_,
                  "affinity hint outside the machine");
    hints_ = std::move(hints);
}

CoreId
Scheduler::placeWoken(ThreadId tid, CoreId last_core) const
{
    // Prefer the thread's last core (its L1 state), then its workload
    // affinity hint (its stage's core range), then any idle core.
    const CoreId preferred =
        last_core != kInvalidId ? last_core : affinityHint(tid);
    return firstIdleCore(preferred);
}

bool
Scheduler::shouldPreempt(Cycles now, Cycles slice_start) const
{
    return nthreads_ > ncores_ && now >= slice_start + timeSlice_;
}

std::unique_ptr<Scheduler>
makeScheduler(SchedPolicy policy, std::uint64_t seed, int ncores,
              Cycles time_slice, int nthreads)
{
    switch (policy) {
      case SchedPolicy::kAffinityFifo:
        return std::make_unique<AffinityFifoScheduler>(ncores, time_slice,
                                                       nthreads);
      case SchedPolicy::kRoundRobin:
        return std::make_unique<RoundRobinScheduler>(ncores, time_slice,
                                                     nthreads);
      case SchedPolicy::kRandom:
        return std::make_unique<RandomScheduler>(ncores, time_slice,
                                                 nthreads, seed);
    }
    panic("unhandled scheduler policy");
}

} // namespace sst
