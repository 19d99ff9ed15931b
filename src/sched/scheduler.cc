#include "scheduler.hh"

#include "util/logging.hh"

namespace sst {

namespace {

/**
 * Domain-separate the scheduler's RNG stream from the workload streams:
 * even schedSeed == profile.seed must not correlate the schedule with
 * the generated address streams.
 */
constexpr std::uint64_t kSchedStreamSalt = 0x5c4ed5eed0515ULL;

} // namespace

Scheduler::Scheduler(SchedPolicy policy, std::uint64_t seed, int ncores,
                     Cycles time_slice, int nthreads)
    : policy_(policy), ncores_(ncores), timeSlice_(time_slice),
      nthreads_(nthreads), rng_(seed ^ kSchedStreamSalt),
      idle_(static_cast<std::size_t>(ncores), 1)
{
    sstAssert(ncores >= 1, "Scheduler needs at least one core");
}

void
Scheduler::enqueue(const ReadyThread &t, bool preferred)
{
    // The random pick ignores pool order, so it has no fast path.
    if (preferred && policy_ != SchedPolicy::kRandom)
        ready_.push_front(t);
    else
        ready_.push_back(t);
}

ThreadId
Scheduler::take(std::deque<ReadyThread>::iterator it)
{
    const ThreadId tid = it->tid;
    ready_.erase(it);
    return tid;
}

ThreadId
Scheduler::pickNext(CoreId core)
{
    if (ready_.empty())
        return kInvalidId;
    switch (policy_) {
      case SchedPolicy::kAffinityFifo:
        // Prefer a thread that last ran on this core (its L1 state may
        // still be resident), then one whose workload affinity hint
        // names it (pipeline stages return to their stage's core
        // range), then the queue head.
        for (auto it = ready_.begin(); it != ready_.end(); ++it) {
            if (it->lastCore == core)
                return take(it);
        }
        if (!hints_.empty()) {
            for (auto it = ready_.begin(); it != ready_.end(); ++it) {
                if (affinityHint(it->tid) == core)
                    return take(it);
            }
        }
        return take(ready_.begin());
      case SchedPolicy::kRoundRobin:
        return take(ready_.begin());
      case SchedPolicy::kRandom:
        return take(ready_.begin() +
                    static_cast<std::ptrdiff_t>(rng_.below(ready_.size())));
    }
    panic("unhandled scheduler policy");
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
    const CoreId preferred =
        last_core != kInvalidId ? last_core : affinityHint(tid);
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

} // namespace sst
