#include "experiment.hh"

#include "util/logging.hh"

namespace sst {

ReportOptions
defaultReportOptions(const SimParams &params)
{
    ReportOptions opts;
    opts.nominalSamplingFactor =
        static_cast<double>(params.cache.atdSamplingFactor);
    return opts;
}

RunResult
runSingleThreaded(const SimParams &params, const BenchmarkProfile &profile)
{
    return simulateWorkload(params, WorkloadSpec::homogeneous(profile, 1));
}

SpeedupExperiment
assembleExperiment(const std::string &label, int nthreads,
                   const SimParams &params, const RunResult &baseline,
                   RunResult parallel)
{
    sstAssert(baseline.nthreads == 1,
              "baseline run must be single-threaded");
    const ReportOptions options = defaultReportOptions(params);

    SpeedupExperiment exp;
    exp.label = label;
    exp.nthreads = nthreads;
    exp.single = baseline;
    exp.parallel = std::move(parallel);

    exp.ts = exp.single.executionTime;
    exp.tp = exp.parallel.executionTime;
    exp.actualSpeedup = static_cast<double>(exp.ts) /
                        static_cast<double>(exp.tp);

    const std::vector<CycleComponents> comps =
        computeComponents(exp.parallel.threads, exp.tp, options);
    exp.stack = buildSpeedupStack(comps, exp.tp);
    exp.estimatedSpeedup = exp.stack.estimatedSpeedup;
    exp.error = speedupError(exp.estimatedSpeedup, exp.actualSpeedup,
                             nthreads);

    if (exp.single.totalInstructions > 0) {
        const double st =
            static_cast<double>(exp.single.totalInstructions);
        const double mt =
            static_cast<double>(exp.parallel.totalInstructions);
        exp.parOverheadMeasured = (mt - st) / st;
    }
    return exp;
}

RunResult
combineGroupBaselines(const std::vector<RunResult> &group_baselines)
{
    sstAssert(!group_baselines.empty(),
              "combineGroupBaselines needs at least one run");
    if (group_baselines.size() == 1)
        return group_baselines[0];
    RunResult combined;
    combined.nthreads = 1;
    combined.ncores = 1;
    for (const RunResult &r : group_baselines) {
        sstAssert(r.nthreads == 1,
                  "group baselines must be single-threaded runs");
        combined.executionTime += r.executionTime;
        combined.totalInstructions += r.totalInstructions;
        combined.totalSpinInstructions += r.totalSpinInstructions;
        combined.engineEvents += r.engineEvents;
    }
    return combined;
}

SpeedupExperiment
runExperiment(const SimParams &params, const WorkloadSpec &workload)
{
    workload.validate();
    std::vector<RunResult> bases;
    bases.reserve(workload.groups.size());
    for (int g = 0; g < workload.ngroups(); ++g)
        bases.push_back(simulateSources(
            params, workloadGroupBaselineSources(workload, g), 1));
    return assembleExperiment(
        workload.label(), workload.nthreads(), params,
        combineGroupBaselines(bases),
        simulateWorkload(params, workload));
}

} // namespace sst
