/**
 * @file
 * Declarative sweep grids for the experiment driver: a cross-product of
 * benchmark profiles x thread counts x LLC sizes (plus shared SimParams
 * overrides) expands into a flat job batch, and completed batches export
 * to CSV or JSON for plotting pipelines. `sst sweep` is a thin shell
 * over this module, and the list/size parsers here are what it uses for
 * `--threads 2,4,8,16` and `--llc 1M,2M,4M,8M` style arguments.
 */

#ifndef SST_DRIVER_SWEEP_HH
#define SST_DRIVER_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/driver.hh"
#include "driver/job.hh"

namespace sst {

/** A cross-product of experiment coordinates. */
struct SweepGrid
{
    /** Benchmark labels ("cholesky", "facesim_medium", ...). */
    std::vector<std::string> profiles;

    /**
     * Heterogeneous-workload axis: registered mix/pipeline names
     * ("fig08_cholesky", "ferret4") or inline descriptors
     * ("cholesky:8+fft:8", "a:1>b:2"), resolved through mixRegistry()
     * and the profile registry. Mutually exclusive with `profiles`;
     * thread counts live inside each workload, so the `threads` axis
     * does not apply (it crosses with `cores` and `llcBytes` only).
     */
    std::vector<std::string> workloads;

    /**
     * Workload-description-file axis: paths to `.wdl` scenario sources,
     * each compiled (wdl::loadWorkloadFile) into one workload. Mutually
     * exclusive with `profiles` and `workloads`; like `workloads`, the
     * `threads` axis does not apply.
     */
    std::vector<std::string> workloadFiles;

    std::vector<int> threads = {16};

    /**
     * Core counts; empty runs every job with #cores == #threads. A
     * list crosses with `threads` (cores is the innermost axis), so
     * `threads = {16}, cores = {2,4,8,16}` is the Figure 7
     * oversubscription study.
     */
    std::vector<int> cores;

    /** LLC sizes in bytes; empty keeps baseParams' LLC for every job. */
    std::vector<std::uint64_t> llcBytes;

    /** Parameters shared by every job (per-axis fields overridden). */
    SimParams baseParams;

    std::uint64_t seedOffset = 0;
};

/**
 * Expand @p grid into jobs, profile-major (all of one benchmark's
 * points are adjacent, in the benches' row order). Profile labels
 * resolve through the benchmark registry; an unknown label throws
 * std::invalid_argument.
 */
std::vector<JobSpec> expandGrid(const SweepGrid &grid);

/** Parse "2,4,8,16" into integers. Throws std::invalid_argument. */
std::vector<int> parseIntList(const std::string &text);

/** Parse "a,b,c" into labels. Throws std::invalid_argument on empties. */
std::vector<std::string> parseLabelList(const std::string &text);

/**
 * Parse one size with an optional K/M/G suffix (case-insensitive):
 * "512K" -> 524288, "2M" -> 2097152, "4096" -> 4096.
 * Throws std::invalid_argument.
 */
std::uint64_t parseSize(const std::string &text);

/** Parse "1M,2M,4M,8M" into byte counts. Throws std::invalid_argument. */
std::vector<std::uint64_t> parseSizeList(const std::string &text);

/** CSV header matching sweepCsv() rows. */
std::string sweepCsvHeader();

/**
 * One CSV row (no trailing newline) for @p spec / @p result — the unit
 * the experiment service streams incrementally. sweepCsv() is exactly
 * the header plus these rows, so a streamed campaign is bit-identical
 * to the batch export.
 */
std::string sweepCsvRow(const JobSpec &spec, const JobResult &result);

/** One JSON object (no trailing newline/comma) for @p spec/@p result. */
std::string sweepJsonRow(const JobSpec &spec, const JobResult &result);

/**
 * Export a completed batch (specs paired with their results, same
 * order) as CSV, header included. Doubles use round-trip precision.
 */
std::string sweepCsv(const std::vector<JobSpec> &specs,
                     const std::vector<JobResult> &results);

/** Export a completed batch as a JSON array of per-job objects. */
std::string sweepJson(const std::vector<JobSpec> &specs,
                      const std::vector<JobResult> &results);

} // namespace sst

#endif // SST_DRIVER_SWEEP_HH
