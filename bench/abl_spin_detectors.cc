/**
 * @file
 * Spin detector ablation (Section 4.3): compares the Tian et al.
 * load-based detector (the paper's choice, simpler hardware) against the
 * Li et al. backward-branch detector, and both against the simulator's
 * exact ground truth, on a spin-heavy benchmark (cholesky), a
 * barrier-heavy one (facesim) and a lock-free one (blackscholes).
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
        "cholesky", "facesim_medium", "blackscholes_medium"};

    std::vector<sst::JobSpec> specs;
    for (const auto &label : benchmarks)
        specs.push_back(
            sst::JobSpec::forProfile(sst::profileByLabel(label), 16));
    const std::vector<sst::JobResult> results = sst::cli::runJobs(specs, 0);

    std::printf("Spin detector ablation (16 threads, cycles summed over "
                "threads, in speedup units)\n\n");

    sst::TextTable table;
    table.setHeader({"benchmark", "ground truth spin", "Tian", "Li",
                     "est. speedup (Tian)", "est. speedup (Li)",
                     "actual"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        // The driver assembles the stack with the default (Tian)
        // detector; rebuild it from the same counters with Li's.
        const sst::SpeedupExperiment &exp_tian = results[i].exp;
        sst::ReportOptions li = sst::defaultReportOptions(specs[i].params);
        li.useLiDetector = true;
        const std::vector<sst::CycleComponents> li_comps =
            sst::computeComponents(exp_tian.parallel.threads,
                                   exp_tian.tp, li);
        const sst::SpeedupStack li_stack =
            sst::buildSpeedupStack(li_comps, exp_tian.tp);

        const double tp = static_cast<double>(exp_tian.tp);
        double gt = 0, det_tian = 0, det_li = 0;
        for (const auto &t : exp_tian.parallel.threads) {
            gt += static_cast<double>(t.gtSpin()) / tp;
            det_tian += static_cast<double>(t.spinDetectedTian) / tp;
            det_li += static_cast<double>(t.spinDetectedLi) / tp;
        }
        table.addRow({benchmarks[i], sst::fmtDouble(gt, 3),
                      sst::fmtDouble(det_tian, 3),
                      sst::fmtDouble(det_li, 3),
                      sst::fmtDouble(exp_tian.estimatedSpeedup, 2),
                      sst::fmtDouble(li_stack.estimatedSpeedup, 2),
                      sst::fmtDouble(exp_tian.actualSpeedup, 2)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("note: Tian undercounts spin episodes that end in a "
                "yield (the table is flushed on a context switch); Li "
                "accumulates per loop iteration and keeps the pre-yield "
                "portion.\n");
    return 0;
}
