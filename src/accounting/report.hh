/**
 * @file
 * Software post-processing of the raw accounting counters (the "system
 * software" half of Section 4.7): extrapolation of sampled negative LLC
 * interference, interpolation of positive interference via the average
 * miss penalty, spin/yield/imbalance assembly — producing per-thread
 * cycle components O_ij and P_i of Equation 2.
 */

#ifndef SST_ACCOUNTING_REPORT_HH
#define SST_ACCOUNTING_REPORT_HH

#include <vector>

#include "accounting/accounting_unit.hh"
#include "accounting/counters.hh"
#include "util/types.hh"

namespace sst {

/** Per-thread cycle components (in cycles; fractional after scaling). */
struct CycleComponents
{
    double negLlc = 0.0;    ///< inter-thread LLC miss penalty (extrapolated)
    double posLlc = 0.0;    ///< inter-thread LLC hit benefit (interpolated)
    double negMem = 0.0;    ///< bus + bank + page conflict cycles
    double spin = 0.0;      ///< spin-detector output
    double yield = 0.0;     ///< OS descheduled time on sync waits
    double imbalance = 0.0; ///< end-of-region wait for the slowest thread
    double coherency = 0.0; ///< optional (disabled by default, Sec. 4.5)

    /** Sum of all overhead components O_ij (excludes positive interf.). */
    double
    overheadSum() const
    {
        return negLlc + negMem + spin + yield + imbalance + coherency;
    }
};

/** Options for the post-processing step. */
struct ReportOptions
{
    /**
     * Nominal ATD sampling factor, used as the extrapolation fallback
     * when a thread observed no sampled accesses.
     */
    double nominalSamplingFactor = 32.0;

    /** The spin detector whose output is the spin component. */
    AccountingParams::Detector spinDetector =
        AccountingParams::Detector::kTian;

    /**
     * Account coherency misses at this penalty each; the paper leaves
     * this off because a balanced OoO core hides L1 misses (Sec. 4.5).
     */
    bool accountCoherency = false;
    double coherencyMissPenalty = 10.0;
};

/**
 * Compute the per-thread cycle components from raw counters.
 *
 * @param threads raw counters of every thread of the parallel run
 * @param tp the run's execution time Tp
 */
std::vector<CycleComponents>
computeComponents(const std::vector<ThreadCounters> &threads, Cycles tp,
                  const ReportOptions &opts = ReportOptions());

/**
 * Measured extrapolation factor of one thread: total LLC accesses over
 * sampled ATD accesses (Section 4.2), falling back to the nominal factor
 * when no samples were taken.
 */
double measuredSamplingFactor(const ThreadCounters &c,
                              double nominal_factor);

/** Average LLC load-miss penalty of one thread (cycles per miss). */
double averageMissPenalty(const ThreadCounters &c);

} // namespace sst

#endif // SST_ACCOUNTING_REPORT_HH
