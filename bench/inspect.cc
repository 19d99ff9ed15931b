/**
 * @file
 * Diagnostic deep-dive for one (benchmark, thread count) pair: cache and
 * DRAM ground truth per core, raw accounting counters per thread, the
 * assembled stack, and single- vs multi-threaded run vitals. Not a paper
 * figure; the workbench behind all of them.
 *
 * Usage: inspect [benchmark_label] [nthreads] [ncores]
 *
 * ncores defaults to nthreads; fewer cores than threads oversubscribes
 * the machine.
 */

#include <cstdio>

#include "cli_common.hh"
#include "core/render.hh"
#include "util/format.hh"
#include "workload/profile.hh"

int
main(int argc, char **argv)
{
    if (argc > 4)
        sst::fatal("usage: inspect [benchmark_label] [nthreads] [ncores]");
    const std::string label = argc > 1 ? argv[1] : "blackscholes_medium";
    // Range checks beyond "is a count" are the driver's job validation.
    const int nthreads =
        argc > 2 ? sst::cli::parseInt("nthreads", argv[2], 0, 1 << 20) : 16;

    sst::JobSpec spec =
        sst::JobSpec::forProfile(sst::profileByLabel(label), nthreads);
    if (argc > 3)
        spec.ncores = sst::cli::parseInt("ncores", argv[3], 0, 1 << 20);
    const sst::SpeedupExperiment exp = sst::cli::runJobs({spec}, 0)[0].exp;

    std::printf("== %s @ %d threads ==\n", label.c_str(), nthreads);
    std::printf("Ts=%llu Tp=%llu actual=%.2f estimated=%.2f err=%.1f%%\n",
                (unsigned long long)exp.ts, (unsigned long long)exp.tp,
                exp.actualSpeedup, exp.estimatedSpeedup,
                exp.error * 100.0);
    std::printf("instr ST=%llu MT=%llu spin=%llu parOv=%.1f%%\n\n",
                (unsigned long long)exp.single.totalInstructions,
                (unsigned long long)exp.parallel.totalInstructions,
                (unsigned long long)exp.parallel.totalSpinInstructions,
                exp.parOverheadMeasured * 100.0);

    auto dumpRun = [](const char *name, const sst::RunResult &run) {
        std::printf("-- %s --\n", name);
        sst::TextTable t;
        t.setHeader({"core", "l1acc", "l1hit%", "llcacc", "llchit%",
                     "dram", "rowhit", "rowconf", "coher", "wb"});
        for (int c = 0; c < run.ncores; ++c) {
            const auto &cs = run.cacheStats[(std::size_t)c];
            const auto &ds = run.dramStats[(std::size_t)c];
            t.addRow({std::to_string(c), std::to_string(cs.l1Accesses),
                      sst::fmtPercent(cs.l1Accesses
                                          ? (double)cs.l1Hits /
                                                cs.l1Accesses
                                          : 0.0),
                      std::to_string(cs.llcAccesses),
                      sst::fmtPercent(cs.llcAccesses
                                          ? (double)cs.llcHits /
                                                cs.llcAccesses
                                          : 0.0),
                      std::to_string(ds.accesses),
                      std::to_string(ds.rowHits),
                      std::to_string(ds.rowConflicts),
                      std::to_string(cs.coherencyMisses),
                      std::to_string(cs.writebacks)});
        }
        std::printf("%s\n", t.render().c_str());
    };
    dumpRun("single-threaded", exp.single);
    dumpRun("parallel", exp.parallel);

    std::printf("-- per-thread counters (parallel) --\n");
    sst::TextTable t;
    t.setHeader({"tid", "instr", "spinInstr", "missStall", "misses",
                 "negSampStall", "itHits", "busO", "bankO", "pageO",
                 "tian", "li", "yield", "gtSpin", "gtYield", "finish"});
    for (int i = 0; i < exp.parallel.nthreads; ++i) {
        const auto &c = exp.parallel.threads[(std::size_t)i];
        t.addRow({std::to_string(i), std::to_string(c.instructions),
                  std::to_string(c.spinInstructions),
                  std::to_string(c.llcLoadMissStall),
                  std::to_string(c.llcLoadMisses),
                  std::to_string(c.negLlcSampledStall),
                  std::to_string(c.interThreadHitsSampled),
                  std::to_string(c.busWaitOther),
                  std::to_string(c.bankWaitOther),
                  std::to_string(c.pageConflictOther),
                  std::to_string(c.spinDetectedTian),
                  std::to_string(c.spinDetectedLi),
                  std::to_string(c.yieldCycles),
                  std::to_string(c.gtSpin()), std::to_string(c.gtYield()),
                  std::to_string(c.finishTime)});
    }
    std::printf("%s\n", t.render().c_str());

    std::printf("%s\n",
                sst::renderStackTable(exp.stack, exp.actualSpeedup).c_str());
    return 0;
}
