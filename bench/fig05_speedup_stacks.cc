/**
 * @file
 * Figure 5: speedup stacks for blackscholes, facesim and cholesky at 2,
 * 4, 8 and 16 threads, rendered as ASCII stacked bars plus the exact
 * component table (CSV) for external plotting.
 *
 * Usage: fig05_speedup_stacks [jobs] [--sched POLICY] [--jobs N]
 */

#include <cstdio>
#include <vector>

#include "cli_common.hh"
#include "core/render.hh"

int
main(int argc, char **argv)
{
    sst::cli::BenchOptions o = sst::cli::parseBenchArgs(
        argc, argv, "fig05_speedup_stacks [jobs]");

    o.spec.profiles = {"blackscholes_medium", "facesim_medium", "cholesky"};
    o.spec.threads = {2, 4, 8, 16};
    const int jobs = o.positionals.empty()
                         ? o.jobs
                         : static_cast<int>(o.positionals[0]);
    const std::vector<sst::JobSpec> specs = sst::expandGrid(o.spec);
    const std::vector<sst::JobResult> results =
        sst::cli::runJobs(specs, jobs);

    std::printf("Figure 5: speedup stacks as a function of the number of "
                "threads\n\n");

    // expandGrid() is profile-major: each benchmark contributes one
    // contiguous block of |threads| jobs, in thread order.
    for (std::size_t base = 0; base < specs.size();
         base += o.spec.threads.size()) {
        std::vector<sst::SpeedupStack> stacks;
        std::vector<std::string> labels;
        for (std::size_t i = 0; i < o.spec.threads.size(); ++i) {
            stacks.push_back(results[base + i].exp.stack);
            labels.push_back(std::to_string(o.spec.threads[i]) + "thr");
        }
        std::printf("== %s ==\n%s\n", specs[base].label().c_str(),
                    sst::renderStackBars(stacks, labels, 20).c_str());
        std::printf("%s\n", sst::renderStacksCsv(stacks, labels).c_str());
    }
    return 0;
}
