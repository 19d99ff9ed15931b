/**
 * @file
 * Export of completed job batches to CSV or JSON for plotting
 * pipelines, whole or one row at a time. Batches come from
 * expandGrid() (src/spec/spec.hh), which crosses an ExperimentSpec's
 * axes into jobs.
 */

#ifndef SST_DRIVER_SWEEP_HH
#define SST_DRIVER_SWEEP_HH

#include <string>
#include <vector>

#include "driver/driver.hh"
#include "driver/job.hh"

namespace sst {

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
