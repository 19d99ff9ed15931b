/**
 * @file
 * Software-optimization example (the paper's Section 7.1 guidance):
 * "if spinning or yielding is large, use finer grained locks and
 * smaller critical sections". We define a custom lock-heavy workload
 * through the public profile API, read its speedup stack, apply the
 * stack's advice — split the single hot lock into 16 finer locks and
 * halve the critical section — and measure the speedup gained. Both
 * versions run as one two-job batch on the experiment driver.
 */

#include <cstdio>
#include <vector>

#include "core/render.hh"
#include "driver/driver.hh"
#include "workload/profile.hh"

namespace {

sst::BenchmarkProfile
baseWorkload()
{
    sst::BenchmarkProfile p;
    p.name = "hashtable-app";
    p.suite = "example";
    p.totalIters = 16000;
    p.computePerIter = 200;
    p.memPerIter = 10;
    p.privateBytes = 32 * 1024;
    p.sharedBytes = 256 * 1024;
    p.sharedFrac = 0.05;
    p.sharedHotFrac = 0.3;
    p.numLocks = 1;      // one global lock...
    p.lockFreq = 0.8;    // ...taken on most iterations
    p.csCompute = 96;    // ...with a fat critical section
    p.csMem = 2;
    p.barrierPhases = 8;
    p.imbalanceSkew = 0.05;
    p.seed = 1234;
    return p;
}

void
report(const char *title, const sst::SpeedupExperiment &exp)
{
    std::printf("== %s ==\n", title);
    std::printf("actual speedup %.2f (estimated %.2f)\n",
                exp.actualSpeedup, exp.estimatedSpeedup);
    std::printf("%s\n",
                sst::renderStackTable(exp.stack, exp.actualSpeedup)
                    .c_str());
}

} // namespace

int
main()
{
    // Step 1: profile the original application. Step 2: its stack shows
    // synchronization (spinning and/or yielding) as the dominant
    // delimiter -> apply the paper's advice.
    const sst::BenchmarkProfile before = baseWorkload();
    sst::BenchmarkProfile after = before;
    after.numLocks = 16;  // finer-grained locking
    after.csCompute = 48; // smaller critical sections

    sst::DriverOptions opts;
    opts.jobs = 0; // one worker per hardware thread
    const std::vector<sst::JobResult> results = sst::runExperimentBatch(
        {sst::JobSpec::forProfile(before, 16),
         sst::JobSpec::forProfile(after, 16)},
        opts);
    for (const sst::JobResult &r : results) {
        if (!r.ok()) {
            std::fprintf(stderr, "error: %s\n", r.error.c_str());
            return 1;
        }
    }
    const sst::SpeedupExperiment &exp_before = results[0].exp;
    const sst::SpeedupExperiment &exp_after = results[1].exp;
    report("original (one global lock)", exp_before);
    report("optimized (16 fine-grained locks, half the CS)", exp_after);

    const double gain = exp_after.actualSpeedup / exp_before.actualSpeedup;
    std::printf("speedup improvement: %.2fx (%.2f -> %.2f)\n", gain,
                exp_before.actualSpeedup, exp_after.actualSpeedup);
    std::printf("the stack predicted up to +%.2f speedup units from "
                "eliminating synchronization entirely.\n",
                exp_before.stack.spin + exp_before.stack.yield);
    return 0;
}
