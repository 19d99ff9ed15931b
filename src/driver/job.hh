/**
 * @file
 * Job descriptions and results for the parallel experiment driver. A
 * JobSpec is a fully declarative description of one speedup experiment —
 * a per-thread WorkloadSpec (one homogeneous program, a multi-program
 * mix, or a pipeline), machine parameters and an optional seed offset —
 * so that a job's outcome is a pure function of its spec: bit-identical
 * whether it runs serially, on a worker pool, or is replayed from the
 * on-disk result cache.
 */

#ifndef SST_DRIVER_JOB_HH
#define SST_DRIVER_JOB_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/experiment.hh"
#include "sim/params.hh"
#include "workload/profile.hh"
#include "workload/workload_spec.hh"

namespace sst {

/**
 * Mix a replication offset into a base workload seed. Derived streams
 * are deterministic, platform-independent, and decorrelated for distinct
 * offsets (SplitMix64 finalizer over the pair). Offset 0 is the identity
 * so that default jobs run each profile's own seed bit-exactly.
 */
std::uint64_t deriveJobSeed(std::uint64_t base_seed, std::uint64_t offset);

/** One experiment to execute: workload x SimParams overrides. */
struct JobSpec
{
    /**
     * The per-thread workload (copied so jobs are portable). Thread
     * counts live inside the spec: a homogeneous job is
     * WorkloadSpec::homogeneous(profile, nthreads).
     */
    WorkloadSpec workload;
    /**
     * Cores of the parallel run; 0 (the default) matches the thread
     * count. Fewer cores than threads oversubscribes the machine and
     * the OS scheduler time-shares them — the Figure 7 study axis.
     */
    int ncores = 0;
    SimParams params;         ///< machine configuration
    /**
     * Replication stream selector: 0 runs each profile's own seed (the
     * paper's configuration); k > 0 derives an independent k-th RNG
     * stream for the same workload shape.
     */
    std::uint64_t seedOffset = 0;

    /** Homogeneous convenience: @p nthreads threads of @p profile. */
    static JobSpec
    forProfile(const BenchmarkProfile &profile, int nthreads)
    {
        JobSpec spec;
        spec.workload = WorkloadSpec::homogeneous(profile, nthreads);
        return spec;
    }

    /** Software threads of the parallel run (all groups). */
    int nthreads() const { return workload.nthreads(); }

    /** Display label (profile label when homogeneous). */
    std::string label() const { return workload.label(); }

    /** The core count the parallel run actually simulates on. */
    int
    ncoresEffective() const
    {
        return ncores > 0 ? ncores : nthreads();
    }

    /**
     * The workload with the job's RNG streams applied: every group's
     * seed is mixed with the replication offset, and groups beyond the
     * first additionally fold in their group index, so two instances
     * of the same program in a mix draw decorrelated streams. Offset 0
     * leaves group 0 (and thus every homogeneous job) untouched.
     */
    WorkloadSpec
    effectiveWorkload() const
    {
        WorkloadSpec w = workload;
        for (std::size_t g = 0; g < w.groups.size(); ++g) {
            std::uint64_t seed =
                deriveJobSeed(w.groups[g].profile.seed, seedOffset);
            seed = deriveJobSeed(seed, static_cast<std::uint64_t>(g));
            w.groups[g].profile.seed = seed;
        }
        return w;
    }
};

/** How a job concluded. */
enum class JobStatus : std::uint8_t {
    kOk,       ///< experiment completed (freshly executed)
    kCached,   ///< experiment replayed from the result cache
    kFailed,   ///< spec validation or execution raised an error
};

/**
 * Outcome of one job. In the queue and the cache, an experiment's
 * `exp` holds only its runs (parallel from the executor, single from
 * the queue); runExperimentBatch() and the server's result stream
 * assemble the rest for the spec that asked. Without fullRuns the runs
 * keep totals and each parallel thread's raw counters, no per-core
 * stats or region snapshots (see ResultCache, DriverOptions).
 */
struct JobResult
{
    JobStatus status = JobStatus::kFailed;
    std::string error;      ///< failure description when kFailed
    SpeedupExperiment exp;  ///< valid when status != kFailed

    /** A baseline job's 1-thread run (set when it succeeded; see
     *  JobQueue). Experiment results leave it null. */
    std::shared_ptr<const RunResult> baseline;

    /** Runs were replayed from a recorded op trace (no generation). */
    bool tracedReplay = false;

    /** A trace of this job's op streams was captured (--record-dir). */
    bool traceRecorded = false;

    bool ok() const { return status != JobStatus::kFailed; }
    bool fromCache() const { return status == JobStatus::kCached; }
};

} // namespace sst

#endif // SST_DRIVER_JOB_HH
