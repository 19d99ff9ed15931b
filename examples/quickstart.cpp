/**
 * @file
 * Quickstart: simulate one benchmark on a 16-core CMP, build its speedup
 * stack, and print the Figure-5-style breakdown. This is the minimal
 * end-to-end use of the library:
 *
 *   1. describe the experiment as a job: a workload profile (here:
 *      cholesky, the paper's spinning-dominated example) and a thread
 *      count,
 *   2. run it on the experiment driver, which validates the job, runs
 *      the single-threaded reference and the 16-threaded execution,
 *   3. print actual vs estimated speedup and the stack components.
 *
 * Usage: quickstart [benchmark_label] [nthreads]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/render.hh"
#include "driver/driver.hh"
#include "workload/profile.hh"

int
main(int argc, char **argv)
{
    const std::string label = argc > 1 ? argv[1] : "cholesky";
    const int nthreads = argc > 2 ? std::atoi(argv[2]) : 16;

    const sst::JobSpec job =
        sst::JobSpec::forProfile(sst::profileByLabel(label), nthreads);

    std::printf("simulating %s with %d threads...\n", job.label().c_str(),
                nthreads);
    const sst::JobResult result =
        sst::runExperimentBatch({job}, sst::DriverOptions{})[0];
    if (!result.ok()) {
        std::fprintf(stderr, "error: %s\n", result.error.c_str());
        return 1;
    }
    const sst::SpeedupExperiment &exp = result.exp;

    std::printf("\nTs (single-threaded) = %llu cycles\n",
                static_cast<unsigned long long>(exp.ts));
    std::printf("Tp (%d threads)      = %llu cycles\n", nthreads,
                static_cast<unsigned long long>(exp.tp));
    std::printf("actual speedup    = %.2f\n", exp.actualSpeedup);
    std::printf("estimated speedup = %.2f\n", exp.estimatedSpeedup);
    std::printf("error (Eq. 6)     = %.1f%%\n\n", exp.error * 100.0);

    std::printf("%s\n",
                sst::renderStackTable(exp.stack, exp.actualSpeedup).c_str());
    return 0;
}
