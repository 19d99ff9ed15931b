/**
 * @file
 * The speedup experiment: the single-threaded reference run (measuring
 * Ts) and the N-threaded run (measuring Tp and the raw accounting
 * counters), assembled into actual speedup, the estimated speedup stack
 * and the validation error. Benches, examples and the CLI run
 * experiments through the driver (driver/driver.hh), which calls
 * assembleExperiment(); runExperiment() is the in-process reference the
 * tests compare the driver against.
 */

#ifndef SST_CORE_EXPERIMENT_HH
#define SST_CORE_EXPERIMENT_HH

#include <string>

#include "accounting/report.hh"
#include "core/speedup_stack.hh"
#include "sim/params.hh"
#include "sim/run_result.hh"
#include "sim/system.hh"
#include "workload/profile.hh"
#include "workload/workload_spec.hh"

namespace sst {

/** Everything measured for one (benchmark, thread count) pair. */
struct SpeedupExperiment
{
    std::string label;
    int nthreads = 0;

    Cycles ts = 0; ///< single-threaded execution time (measured)
    Cycles tp = 0; ///< parallel execution time (measured)

    double actualSpeedup = 0.0;    ///< S = Ts / Tp (Eq. 1)
    double estimatedSpeedup = 0.0; ///< S^ from accounting only (Eq. 3)
    double error = 0.0;            ///< (S^ - S) / N (Eq. 6)

    SpeedupStack stack;            ///< estimated speedup stack

    RunResult single;   ///< the 1-thread reference run
    RunResult parallel; ///< the N-thread run

    /**
     * Parallelization overhead: relative dynamic instruction increase of
     * the parallel run over the sequential one, spin instructions
     * excluded (the Section 6 metric).
     */
    double parOverheadMeasured = 0.0;
};

/** Run the sequential reference configuration of @p profile. */
RunResult runSingleThreaded(const SimParams &params,
                            const BenchmarkProfile &profile);

/**
 * Assemble a SpeedupExperiment from two already-completed runs: the
 * 1-thread reference and the parallel run. This is the pure math tail
 * of every experiment (Eqs. 1, 3, 6 + the stack build), shared by the
 * live path and the trace-replay path, where the runs come from
 * recorded op streams instead of ThreadProgram.
 */
SpeedupExperiment assembleExperiment(const std::string &label,
                                     int nthreads, const SimParams &params,
                                     const RunResult &baseline,
                                     RunResult parallel);

/**
 * Fold per-program 1-thread reference runs into one baseline for a
 * heterogeneous workload: per the paper's per-thread normalization,
 * a mix's (or pipeline's) sequential reference time Ts is the sum of
 * each program's own single-threaded run. @p group_baselines must be
 * one 1-thread RunResult per workload group, in group order. With one
 * group the input run is returned unchanged (the homogeneous path);
 * with several, the combined result carries the summed times and
 * instruction counts only (no per-thread counters — the parallel run
 * provides those).
 */
RunResult combineGroupBaselines(const std::vector<RunResult> &group_baselines);

/**
 * Run the experiment of any workload in process: per-group 1-thread
 * reference runs of workloadGroupBaselineSources() (summed into the mix
 * baseline) plus the co-scheduled parallel run of every group on one
 * core per thread, assembled into a speedup experiment. The driver
 * produces the same result for JobSpec{workload, params}.
 */
SpeedupExperiment runExperiment(const SimParams &params,
                                const WorkloadSpec &workload);

/** Default report options consistent with @p params. */
ReportOptions defaultReportOptions(const SimParams &params);

} // namespace sst

#endif // SST_CORE_EXPERIMENT_HH
