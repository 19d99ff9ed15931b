/**
 * @file
 * The output of one simulated run: wall-clock (cycle) execution time,
 * per-thread raw accounting counters, per-core cache/DRAM ground truth
 * and instruction counts. Downstream consumers: the accounting report
 * (Section 4 software post-processing) and the speedup-stack builder
 * (Section 2 math).
 */

#ifndef SST_SIM_RUN_RESULT_HH
#define SST_SIM_RUN_RESULT_HH

#include <cstdint>
#include <vector>

#include "accounting/counters.hh"
#include "cache/hierarchy.hh"
#include "mem/dram.hh"
#include "util/types.hh"

namespace sst {

/**
 * Per-thread counter snapshot taken when a barrier opens: the boundary
 * between two regions (Section 4.6: computing speedup stacks per region
 * between consecutive barriers isolates barrier imbalance).
 */
struct RegionBoundary
{
    BarrierId barrier = 0;
    Cycles at = 0; ///< RoI-relative cycle of the barrier release
    std::vector<ThreadCounters> counters; ///< cumulative at the boundary
};

/** Results of one System::run(). */
struct RunResult
{
    int nthreads = 0;
    int ncores = 0;
    Cycles executionTime = 0; ///< cycles until the last thread finished

    std::vector<ThreadCounters> threads; ///< raw accounting per thread
    std::vector<CacheStats> cacheStats;  ///< ground truth per core
    std::vector<DramStats> dramStats;    ///< ground truth per core

    std::uint64_t totalInstructions = 0; ///< committed program instructions
    std::uint64_t totalSpinInstructions = 0;

    /** Barrier-release snapshots for per-region stacks (Section 4.6). */
    std::vector<RegionBoundary> regions;

    /** Events the engine dispatched (core actions + wakes); the
     *  denominator of benchmark/'s sim.ns_per_event. */
    std::uint64_t engineEvents = 0;

    /** Futex-style wake events dispatched (a subset of engineEvents).
     *  Deterministic; exact-compared by tests/test_sched.cc. */
    std::uint64_t engineWakes = 0;

    /** Time-slice preemptions taken by the scheduler. Deterministic. */
    std::uint64_t enginePreemptions = 0;

    /** Mutating event-heap operations (EventQueue::ops()). */
    std::uint64_t engineHeapOps = 0;

    /**
     * Free the per-core stats and region snapshots, keeping the totals,
     * engine counts and per-thread counters: everything a result-cache
     * entry stores of a run, and more than a stack view reads.
     */
    void
    dropDetail()
    {
        // Move-assigning an empty vector releases the storage.
        cacheStats = std::vector<CacheStats>();
        dramStats = std::vector<DramStats>();
        regions = std::vector<RegionBoundary>();
    }

    /** Sum of a per-thread counter over all threads. */
    template <typename F>
    std::uint64_t
    sumThreads(F f) const
    {
        std::uint64_t acc = 0;
        for (const auto &t : threads)
            acc += f(t);
        return acc;
    }
};

} // namespace sst

#endif // SST_SIM_RUN_RESULT_HH
