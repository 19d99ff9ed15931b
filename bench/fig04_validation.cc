/**
 * @file
 * Figure 4 + Section 6 validation: actual vs estimated speedup for every
 * benchmark at 2, 4, 8 and 16 threads, plus the average absolute error
 * per thread count. The paper reports 3.0%, 3.4%, 2.8% and 5.1% for 2,
 * 4, 8 and 16 threads respectively.
 *
 * The 28 x 4 grid executes on the parallel experiment driver; the
 * 1-thread baseline of each benchmark is computed once and shared by
 * all four of its thread counts.
 *
 * Usage: fig04_validation [jobs] [--sched POLICY] [--jobs N]
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "cli_common.hh"
#include "util/format.hh"
#include "util/stats.hh"

int
main(int argc, char **argv)
{
    sst::cli::BenchOptions o =
        sst::cli::parseBenchArgs(argc, argv, "fig04_validation [jobs]");
    const std::vector<int> threads = {2, 4, 8, 16};

    std::printf("Figure 4: actual vs estimated speedup "
                "(error metric: Eq. 6, (S^ - S)/N)\n\n");

    o.spec.threads = threads; // every profile of the suite

    sst::DriverOptions opts;
    opts.jobs = o.positionals.empty() ? o.jobs
                                      : static_cast<int>(o.positionals[0]);

    const std::vector<sst::JobSpec> specs = sst::expandGrid(o.spec);
    const std::vector<sst::JobResult> results =
        sst::runExperimentBatch(specs, opts);

    sst::TextTable table;
    table.setHeader({"benchmark", "S(2)", "S^(2)", "S(4)", "S^(4)", "S(8)",
                     "S^(8)", "S(16)", "S^(16)", "err16"});

    // expandGrid() is profile-major: each benchmark contributes one
    // contiguous block of |threads| jobs, in thread order.
    std::vector<sst::RunningStat> err(threads.size());
    for (std::size_t base = 0; base < specs.size();
         base += threads.size()) {
        std::vector<std::string> row = {specs[base].label()};
        double err16 = 0.0;
        bool err16Valid = false;
        for (std::size_t i = 0; i < threads.size(); ++i) {
            const sst::JobResult &r = results[base + i];
            if (!r.ok()) {
                row.push_back("fail");
                row.push_back("fail");
                continue;
            }
            row.push_back(sst::fmtDouble(r.exp.actualSpeedup, 2));
            row.push_back(sst::fmtDouble(r.exp.estimatedSpeedup, 2));
            err[i].add(std::fabs(r.exp.error));
            if (threads[i] == 16) {
                err16 = r.exp.error;
                err16Valid = true;
            }
        }
        row.push_back(err16Valid ? sst::fmtPercent(err16, 1)
                                 : std::string("fail"));
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());

    sst::TextTable summary;
    summary.setHeader({"threads", "avg |error| (measured)",
                       "avg |error| (paper)"});
    const std::vector<std::string> paper_err = {"3.0%", "3.4%", "2.8%",
                                                "5.1%"};
    for (std::size_t i = 0; i < threads.size(); ++i) {
        summary.addRow({std::to_string(threads[i]),
                        sst::fmtPercent(err[i].mean(), 1), paper_err[i]});
    }
    std::printf("%s\n", summary.render().c_str());
    return 0;
}
