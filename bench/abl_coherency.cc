/**
 * @file
 * Coherency accounting ablation (Section 4.5): the paper does not
 * account coherency misses, arguing a balanced out-of-order core hides
 * L1 misses; it names this a known error source. This bench enables the
 * optional coherency component (invalid-tag re-references x a fixed
 * penalty) and reports how the estimate moves, on coherence-heavy
 * (lock/store-intensive) and coherence-light benchmarks.
 */

#include <cstdio>
#include <vector>

#include "cli_common.hh"
#include "core/experiment.hh"
#include "util/format.hh"
#include "workload/profile.hh"

int
main()
{
    const std::vector<std::string> benchmarks = {
        "fluidanimate_medium", "cholesky", "water-nsquared",
        "blackscholes_medium"};

    std::vector<sst::JobSpec> specs;
    for (const auto &label : benchmarks)
        specs.push_back(
            sst::JobSpec::forProfile(sst::profileByLabel(label), 16));
    const std::vector<sst::JobResult> results = sst::cli::runJobs(specs, 0);

    std::printf("Coherency accounting ablation (16 threads)\n\n");

    sst::TextTable table;
    table.setHeader({"benchmark", "coherency misses", "actual",
                     "est (off, paper)", "est (on)", "err off",
                     "err on"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const sst::SpeedupExperiment &off = results[i].exp;
        sst::ReportOptions on = sst::defaultReportOptions(specs[i].params);
        on.accountCoherency = true;
        const std::vector<sst::CycleComponents> comps =
            sst::computeComponents(off.parallel.threads, off.tp, on);
        const sst::SpeedupStack stack_on =
            sst::buildSpeedupStack(comps, off.tp);

        const std::uint64_t misses = off.parallel.sumThreads(
            [](const sst::ThreadCounters &t) { return t.coherencyMisses; });
        table.addRow(
            {benchmarks[i], std::to_string(misses),
             sst::fmtDouble(off.actualSpeedup, 2),
             sst::fmtDouble(off.estimatedSpeedup, 2),
             sst::fmtDouble(stack_on.estimatedSpeedup, 2),
             sst::fmtPercent(off.error, 1),
             sst::fmtPercent(sst::speedupError(stack_on.estimatedSpeedup,
                                               off.actualSpeedup, 16),
                             1)});
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}
