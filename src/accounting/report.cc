#include "report.hh"

namespace sst {

double
measuredSamplingFactor(const ThreadCounters &c, double nominal_factor)
{
    if (c.atdSampledAccesses == 0)
        return nominal_factor;
    return static_cast<double>(c.llcAccesses) /
           static_cast<double>(c.atdSampledAccesses);
}

double
averageMissPenalty(const ThreadCounters &c)
{
    if (c.llcLoadMisses == 0)
        return 0.0;
    return static_cast<double>(c.llcLoadMissStall) /
           static_cast<double>(c.llcLoadMisses);
}

std::vector<CycleComponents>
computeComponents(const std::vector<ThreadCounters> &threads, Cycles tp,
                  const ReportOptions &opts)
{
    std::vector<CycleComponents> out;
    out.reserve(threads.size());

    for (const ThreadCounters &c : threads) {
        CycleComponents comp;

        // Negative LLC interference: the stall cycles of *sampled*
        // inter-thread misses, extrapolated by the measured sampling
        // factor (Section 4.1).
        const double factor =
            measuredSamplingFactor(c, opts.nominalSamplingFactor);
        comp.negLlc = static_cast<double>(c.negLlcSampledStall) * factor;

        // Positive interference: inter-thread hits have no measurable
        // penalty, so interpolate with the average load-miss penalty
        // (Section 4.2).
        comp.posLlc = static_cast<double>(c.interThreadHitsSampled) *
                      factor * averageMissPenalty(c);

        // Memory interference: sampled intra-thread wait attributions,
        // extrapolated like the cache component.
        comp.negMem = static_cast<double>(c.busWaitOther + c.bankWaitOther +
                                          c.pageConflictOther) *
                      factor;

        comp.spin = static_cast<double>(
            opts.spinDetector == AccountingParams::Detector::kLi
                ? c.spinDetectedLi
                : c.spinDetectedTian);
        comp.yield = static_cast<double>(c.yieldCycles);

        // Load imbalance (Section 4.6): pad every thread up to the
        // slowest thread's execution time.
        comp.imbalance = c.finishTime <= tp
                             ? static_cast<double>(tp - c.finishTime)
                             : 0.0;

        if (opts.accountCoherency) {
            comp.coherency = static_cast<double>(c.coherencyMisses) *
                             opts.coherencyMissPenalty;
        }
        out.push_back(comp);
    }
    return out;
}

} // namespace sst
