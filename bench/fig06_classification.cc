/**
 * @file
 * Figure 6: the benchmark classification tree. Every benchmark runs at
 * 16 threads; rows are grouped good / moderate / poor (>=10x, 5..10x,
 * <5x) and annotated with the three largest scaling delimiters from the
 * speedup stack, the suite, and the achieved speedup — next to the
 * paper's reported speedup for comparison.
 *
 * The 28 experiments execute on the parallel experiment driver.
 *
 * Usage: fig06_classification [jobs] [--sched POLICY] [--jobs N]
 */

#include <cstdio>

#include "cli_common.hh"
#include "core/classify.hh"
#include "util/format.hh"
#include "workload/profile.hh"

int
main(int argc, char **argv)
{
    sst::cli::BenchOptions o = sst::cli::parseBenchArgs(
        argc, argv, "fig06_classification [jobs]");
    std::printf("Figure 6: classification tree at 16 threads\n\n");

    o.spec.threads = {16}; // every profile of the suite

    sst::DriverOptions opts;
    opts.jobs = o.positionals.empty() ? o.jobs
                                      : static_cast<int>(o.positionals[0]);

    const std::vector<sst::JobSpec> specs = sst::expandGrid(o.spec);
    const std::vector<sst::JobResult> results =
        sst::runExperimentBatch(specs, opts);

    std::vector<sst::ClassifiedBenchmark> rows;
    sst::TextTable compare;
    compare.setHeader({"benchmark", "speedup (measured)",
                       "speedup (paper)", "class (measured)",
                       "class (paper)"});

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const sst::BenchmarkProfile &profile =
            specs[i].workload.groups[0].profile;
        if (!results[i].ok()) {
            std::fprintf(stderr, "%s failed: %s\n",
                         profile.label().c_str(),
                         results[i].error.c_str());
            continue;
        }
        const sst::SpeedupExperiment &exp = results[i].exp;
        rows.push_back(sst::classifyBenchmark(
            profile.label(), profile.suite, exp.actualSpeedup, exp.stack));
        compare.addRow(
            {profile.label(), sst::fmtDouble(exp.actualSpeedup, 2),
             sst::fmtDouble(profile.paperSpeedup16, 2),
             sst::scalingClassName(
                 sst::classifySpeedup(exp.actualSpeedup)),
             profile.paperClass});
    }

    std::printf("%s\n", sst::renderClassificationTree(rows).c_str());
    std::printf("paper cross-check:\n%s\n", compare.render().c_str());
    return 0;
}
