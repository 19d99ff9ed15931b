/**
 * @file
 * Workload-characterization example (the paper's Section 7.2 use case):
 * run a set of benchmarks at 16 threads, build their speedup stacks and
 * print the classification tree — scaling class and the top-3 scaling
 * delimiters per benchmark — plus side-by-side stack bars for the
 * benchmarks whose speedups look similar but whose bottlenecks differ.
 *
 * Usage: classify_suite [nthreads]
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/classify.hh"
#include "core/render.hh"
#include "spec/spec.hh"

int
main(int argc, char **argv)
{
    const int nthreads = argc > 1 ? std::atoi(argv[1]) : 16;

    // A representative subset: one good scaler, two benchmarks with
    // nearly identical speedup but different bottlenecks (the paper's
    // facesim vs cholesky example), and a memory-bound one.
    sst::ExperimentSpec grid;
    grid.profiles = {"blackscholes_medium", "facesim_medium", "cholesky",
                     "srad", "ferret_small"};
    grid.threads = {nthreads};
    const std::vector<sst::JobSpec> specs = sst::expandGrid(grid);
    sst::DriverOptions opts;
    opts.jobs = 0; // one worker per hardware thread
    const std::vector<sst::JobResult> results =
        sst::runExperimentBatch(specs, opts);

    std::vector<sst::ClassifiedBenchmark> rows;
    std::vector<sst::SpeedupStack> stacks;
    std::vector<std::string> labels;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (!results[i].ok()) {
            std::fprintf(stderr, "error: %s\n", results[i].error.c_str());
            return 1;
        }
        const sst::SpeedupExperiment &exp = results[i].exp;
        const std::string label = specs[i].label();
        rows.push_back(sst::classifyBenchmark(
            label, specs[i].workload.groups[0].profile.suite,
            exp.actualSpeedup, exp.stack));
        stacks.push_back(exp.stack);
        labels.push_back(label.substr(0, 6));
        std::printf("%-22s actual %5.2f  estimated %5.2f\n",
                    label.c_str(), exp.actualSpeedup,
                    exp.estimatedSpeedup);
    }

    std::printf("\nclassification tree:\n%s\n",
                sst::renderClassificationTree(rows).c_str());
    std::printf("speedup stacks:\n%s\n",
                sst::renderStackBars(stacks, labels, 20).c_str());
    std::printf("reading: facesim and cholesky reach almost the same "
                "speedup, but facesim is limited by yielding and cache "
                "interference while cholesky spends its cycles "
                "spinning — different fixes apply.\n");
    return 0;
}
