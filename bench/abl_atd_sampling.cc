/**
 * @file
 * ATD sampling-factor ablation (Sections 4.1/4.2 + 4.7): sweep the
 * set-sampling factor and report estimation accuracy against hardware
 * cost. Full shadow tags (factor 1) give the most faithful
 * interference classification at ~100x the area; the paper's operating
 * point samples sparsely and extrapolates.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "accounting/hw_cost.hh"
#include "cli_common.hh"
#include "util/format.hh"
#include "util/stats.hh"
#include "workload/profile.hh"

int
main()
{
    const std::vector<int> factors = {1, 8, 32, 128};
    const std::vector<std::string> benchmarks = {
        "cholesky", "facesim_medium", "canneal_small", "radix"};

    // One job per (factor, benchmark), factor-major.
    std::vector<sst::JobSpec> specs;
    for (const int f : factors) {
        for (const auto &label : benchmarks) {
            sst::JobSpec spec =
                sst::JobSpec::forProfile(sst::profileByLabel(label), 16);
            spec.params.cache.atdSamplingFactor = f;
            specs.push_back(spec);
        }
    }
    const std::vector<sst::JobResult> results = sst::cli::runJobs(specs, 0);

    std::printf("ATD sampling factor: estimation accuracy vs hardware "
                "cost (16 threads)\n\n");

    sst::TextTable table;
    table.setHeader({"sampling", "avg |error|", "max |error|",
                     "ATD bytes/core"});
    for (std::size_t i = 0; i < factors.size(); ++i) {
        sst::RunningStat err;
        for (std::size_t b = 0; b < benchmarks.size(); ++b)
            err.add(std::fabs(
                results[i * benchmarks.size() + b].exp.error));
        sst::HwCostConfig cfg;
        cfg.atdSamplingFactor = factors[i];
        table.addRow({std::to_string(factors[i]),
                      sst::fmtPercent(err.mean(), 1),
                      sst::fmtPercent(err.max(), 1),
                      std::to_string(sst::computeHwCost(cfg).atdBytes())});
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}
