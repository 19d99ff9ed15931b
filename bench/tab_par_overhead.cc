/**
 * @file
 * Section 6 parallelization-overhead analysis: the method deliberately
 * does not account for parallelization overhead, so the estimation error
 * should correlate with the measured dynamic-instruction increase of the
 * parallel run over the sequential one (spin instructions excluded). The
 * paper reports swaptions_small at +26% and fluidanimate_medium at +18%
 * instructions, its two largest error cases.
 *
 * Usage: tab_par_overhead [jobs] [--sched POLICY] [--jobs N]
 */

#include <cmath>
#include <cstdio>

#include "cli_common.hh"
#include "util/format.hh"

int
main(int argc, char **argv)
{
    sst::cli::BenchOptions o =
        sst::cli::parseBenchArgs(argc, argv, "tab_par_overhead [jobs]");
    o.spec.threads = {16}; // every profile of the suite
    const int jobs = o.positionals.empty()
                         ? o.jobs
                         : static_cast<int>(o.positionals[0]);
    const std::vector<sst::JobSpec> specs = sst::expandGrid(o.spec);
    const std::vector<sst::JobResult> results =
        sst::cli::runJobs(specs, jobs);

    std::printf("Section 6: parallelization overhead vs estimation error "
                "(16 threads)\n\n");

    sst::TextTable table;
    table.setHeader({"benchmark", "extra instructions", "paper",
                     "estimation error"});

    double sum_xy = 0, sum_x = 0, sum_y = 0, sum_x2 = 0, sum_y2 = 0;
    const double n = static_cast<double>(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const sst::SpeedupExperiment &exp = results[i].exp;
        const std::string label = specs[i].label();
        std::string paper = "-";
        if (label == "swaptions_small")
            paper = "+26%";
        if (label == "fluidanimate_medium")
            paper = "+18%";
        table.addRow({label,
                      sst::fmtPercent(exp.parOverheadMeasured, 1), paper,
                      sst::fmtPercent(exp.error, 1)});

        const double x = exp.parOverheadMeasured;
        const double y = exp.error;
        sum_x += x;
        sum_y += y;
        sum_xy += x * y;
        sum_x2 += x * x;
        sum_y2 += y * y;
    }
    std::printf("%s\n", table.render().c_str());

    const double cov = sum_xy / n - (sum_x / n) * (sum_y / n);
    const double vx = sum_x2 / n - (sum_x / n) * (sum_x / n);
    const double vy = sum_y2 / n - (sum_y / n) * (sum_y / n);
    const double r = cov / std::sqrt(vx * vy);
    std::printf("correlation(extra instructions, error) = %.2f "
                "(positive: unaccounted overhead inflates the "
                "estimate)\n",
                r);
    return 0;
}
