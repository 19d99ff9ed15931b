/**
 * @file
 * Per-region speedup stacks ablation (Section 4.6): the whole-run stack
 * folds barrier waiting into spin/yield; per-region stacks localize it.
 * We run a barrier-heavy benchmark, print the whole-run stack, then the
 * first regions and the aggregate across regions — their time-weighted
 * average matches the whole-run overheads.
 */

#include <cstdio>

#include "cli_common.hh"
#include "core/experiment.hh"
#include "core/region_stacks.hh"
#include "core/render.hh"
#include "util/format.hh"
#include "workload/profile.hh"

int
main()
{
    const sst::JobSpec spec =
        sst::JobSpec::forProfile(sst::profileByLabel("facesim_small"), 16);
    const sst::SpeedupExperiment exp =
        sst::cli::runJobs({spec}, 0, /*full_runs=*/true)[0].exp;

    std::printf("whole-run stack (%s @ 16 threads):\n%s\n",
                spec.label().c_str(),
                sst::renderStackTable(exp.stack, exp.actualSpeedup)
                    .c_str());

    const std::vector<sst::RegionStack> regions =
        sst::buildRegionStacks(exp.parallel,
                               sst::defaultReportOptions(spec.params));
    std::printf("regions: %zu\n\n", regions.size());

    sst::TextTable table;
    table.setHeader({"region", "span (cycles)", "base", "yield", "spin",
                     "netneg", "mem", "estimated"});
    double wsum_yield = 0.0, wsum = 0.0;
    for (std::size_t i = 0; i < regions.size(); ++i) {
        const sst::RegionStack &r = regions[i];
        const double span = static_cast<double>(r.end - r.begin);
        wsum_yield += r.stack.yield * span;
        wsum += span;
        if (i < 8 || i + 1 == regions.size()) {
            table.addRow({std::to_string(i),
                          std::to_string(r.end - r.begin),
                          sst::fmtDouble(r.stack.baseSpeedup, 2),
                          sst::fmtDouble(r.stack.yield, 2),
                          sst::fmtDouble(r.stack.spin, 2),
                          sst::fmtDouble(r.stack.netNegLlc(), 2),
                          sst::fmtDouble(r.stack.negMem, 2),
                          sst::fmtDouble(r.stack.estimatedSpeedup, 2)});
        }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("time-weighted region yield = %.2f vs whole-run yield = "
                "%.2f\n",
                wsum_yield / wsum, exp.stack.yield);
    return 0;
}
