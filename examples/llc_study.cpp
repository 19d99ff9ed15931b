/**
 * @file
 * LLC-performance study (the paper's Section 7.3 use case): sweep the
 * shared LLC size for one benchmark and watch the interference
 * components move. Negative interference (capacity conflicts between
 * threads) shrinks as the cache grows; positive interference (threads
 * prefetching shared data for each other) is a program property and
 * stays put — so beyond some size, sharing the cache is a net win.
 *
 * Usage: llc_study [benchmark_label]
 */

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "spec/spec.hh"
#include "util/format.hh"

int
main(int argc, char **argv)
{
    const std::string label = argc > 1 ? argv[1] : "cholesky";

    // One benchmark at 16 threads, crossed with four LLC sizes.
    sst::ExperimentSpec grid;
    grid.profiles = {label};
    grid.threads = {16};
    std::vector<sst::JobSpec> specs;
    try {
        sst::applySpecValue(grid, "llc", "1M, 2M, 4M, 8M");
        sst::validateSpec(grid);
        specs = sst::expandGrid(grid);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    sst::DriverOptions opts;
    opts.jobs = 0; // one worker per hardware thread
    const std::vector<sst::JobResult> results =
        sst::runExperimentBatch(specs, opts);

    std::printf("LLC study for %s at 16 threads\n\n", label.c_str());

    sst::TextTable table;
    table.setHeader({"LLC", "actual speedup", "neg LLC", "pos LLC",
                     "net", "memory", "verdict"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (!results[i].ok()) {
            std::fprintf(stderr, "error: %s\n", results[i].error.c_str());
            return 1;
        }
        const sst::SpeedupExperiment &exp = results[i].exp;
        const double net = exp.stack.netNegLlc();
        table.addRow({std::to_string(specs[i].params.cache.llcBytes >> 20) +
                          "MB",
                      sst::fmtDouble(exp.actualSpeedup, 2),
                      sst::fmtDouble(exp.stack.negLlc, 2),
                      sst::fmtDouble(exp.stack.posLlc, 2),
                      sst::fmtDouble(net, 2),
                      sst::fmtDouble(exp.stack.negMem, 2),
                      net > 0.1 ? "sharing hurts"
                                : (net < -0.1 ? "sharing helps"
                                              : "neutral")});
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}
