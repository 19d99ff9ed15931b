/**
 * @file
 * ExperimentSpec: a fully declarative description of one speedup-stack
 * study — workload selection, sweep axes (threads, cores, machine
 * keys), machine parameters, scheduler policy + seed, workload
 * frontend, recorded-trace directory and output options — that parses
 * from and serializes to a canonical `key = value` text format. `sst
 * run` and `sst inspect` start from a spec file or the defaults and
 * apply each command-line flag as one more key.
 *
 * Guarantees:
 *  - round trip: parseSpec(serializeSpec(s)) == s for every valid s;
 *  - canonical form: serializeSpec emits every key in one fixed order
 *    with normalized values, so equal specs produce byte-identical
 *    text (ExperimentSpec equality IS canonical-text equality);
 *  - fingerprint sharing: the machine section is rendered by the same
 *    table the driver's job fingerprint uses (fingerprint v3), so a
 *    spec-driven run and the equivalent flag-driven run hit the same
 *    result-cache entries by construction.
 *
 * Spec files are plain text: one `key = value` per line, `#` comments
 * (a '#' at line start or after whitespace; `run#1.csv` is a value),
 * blank lines ignored, later keys override earlier ones. A machine key
 * given a list (`machine.atd-sampling-factor = 1, 8`) is an axis;
 * `llc = 1M, 2M` spells the llc-bytes one. All names
 * (profiles, scheduler policies, frontends, machine keys) resolve
 * through registries/tables, so every unknown-label error lists the
 * valid names.
 */

#ifndef SST_SPEC_SPEC_HH
#define SST_SPEC_SPEC_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver/driver.hh"
#include "sim/machine_keys.hh"
#include "sim/params.hh"
#include "util/registry.hh"

namespace sst {

/**
 * A workload frontend: how a job's op streams are produced. The
 * descriptor drives spec validation (a frontend that replays recordings
 * needs a trace directory) and `sst list frontends` output. Execution
 * follows the workload itself and `trace-dir`, not this name.
 */
struct OpSourceFrontend
{
    const char *description; ///< one-line summary for listings
    /** Frontend consumes recorded traces: `trace-dir` must be set. */
    bool needsTraceDir = false;
};

/** Workload-frontend registry ("program", "trace", "pipeline",
 *  "workload-file"): the values of the `frontend` key. */
const NamedRegistry<OpSourceFrontend> &opSourceRegistry();

/** One declarative experiment description. See file comment. */
struct ExperimentSpec
{
    /** Benchmark labels; empty selects the whole Figure 6 suite. */
    std::vector<std::string> profiles;

    /**
     * Heterogeneous-workload axis (`workload = fig08_cholesky,
     * cholesky:8+fft:8`): registered mix/pipeline names or inline
     * descriptors, stored canonicalized. Mutually exclusive with
     * `profiles`; each workload carries its own thread counts, so the
     * `threads` axis does not apply. The `pipeline = <name>` spec key
     * is sugar for `workload = <name>` + `frontend = pipeline`.
     */
    std::vector<std::string> workloads;

    /**
     * Workload-description files (`workload-file = contention.wdl`):
     * paths to `.wdl` scenario sources compiled by the WDL frontend.
     * Mutually exclusive with `profiles` and `workloads`; each file
     * declares its own groups and thread counts, so the `threads` axis
     * does not apply. Setting the key is sugar for
     * `frontend = workload-file`. Fingerprints hash the compiled IR,
     * never these paths.
     */
    std::vector<std::string> workloadFiles;

    /** Thread counts (sweep axis). */
    std::vector<int> threads = {16};

    /**
     * Core counts (sweep axis); empty runs every job with
     * #cores == #threads. A list crosses with `threads`, enabling the
     * Figure 7 oversubscription studies (16 threads on 2/4/8/16 cores).
     */
    std::vector<int> cores;

    /**
     * Machine-key axes (sweep axes) in table order, each key's values
     * as MachineKey::set takes them; they override @c machine per job.
     * A one-value setting replaces a key's axis, except llc-bytes:
     * `llc =` overrides `machine.llc-bytes`, which prints beside it.
     */
    std::map<const MachineKey *, std::vector<std::uint64_t>> machineAxes;

    /** Replication RNG stream selector (see JobSpec::seedOffset). */
    std::uint64_t seedOffset = 0;

    /** Workload frontend name (opSourceRegistry, `sst list frontends`). */
    std::string frontend = "program";

    /**
     * Recorded-trace directory: every job with a recording there
     * replays it, whatever the frontend; the others run live. Required
     * by `frontend = trace`; excludes the cores axis.
     */
    std::string traceDir;

    /**
     * Machine configuration, including the scheduler policy and seed
     * (spec keys `sched` / `sched-seed` and the `machine.*` section).
     */
    SimParams machine;

    // ---- output options ---------------------------------------------------
    std::string csvPath;  ///< write the batch as CSV when non-empty
    std::string jsonPath; ///< write the batch as JSON when non-empty
    bool quiet = false;   ///< print no report
    /** Report view that prints the batch (reportRegistry(), `sst list
     *  reports`); output-only, never part of a job fingerprint. */
    std::string report = "table";
};

/**
 * A report view: how `sst run` prints a finished batch. It reads the
 * summary and each parallel thread's raw counters, both of which the
 * result cache stores, so a cold run and a cache replay print the same
 * bytes, and it never changes what a job computes, so it stays out of
 * job fingerprints.
 */
struct ReportView
{
    const char *description; ///< one-line summary for listings
    /** One row per benchmark of the profiles axis: validateSpec()
     *  rejects the workload, workload-file, cores and machine axes. */
    bool rowPerProfile;
    /** One job per benchmark: the threads axis holds one count. */
    bool oneThreadCount;
    /** The report of @p results, the jobs of @p spec's grid in
     *  expandGrid() order; a failed job prints as `fail`. */
    std::string (*render)(const ExperimentSpec &spec,
                          const std::vector<JobSpec> &jobs,
                          const std::vector<JobResult> &results);
};

/** Report-view registry (src/spec/report.cc: "table", "validation",
 *  "stacks", "classify", "overhead" for Figures 4-6 and the Section 6
 *  overhead table, "detectors" and "coherency" for the Section 4.3 and
 *  4.5 ablations, "hw-cost" for Section 4.7 and the ATD sampling
 *  trade-off): the values of the `output.report` key. */
const NamedRegistry<ReportView> &reportRegistry();

/** Equality is canonical-form equality. */
bool operator==(const ExperimentSpec &a, const ExperimentSpec &b);
bool operator!=(const ExperimentSpec &a, const ExperimentSpec &b);

/**
 * Apply one `key = value` assignment to @p spec. This is the single
 * mutation path shared by the file parser and every command-line flag
 * (`sst run --threads 2,4` is applySpecValue(spec, "threads", "2,4"),
 * and `sst inspect --sched X` the same), so flags and spec files can
 * never drift apart. Throws std::invalid_argument on an unknown key
 * (listing every valid key) or a malformed value.
 */
void applySpecValue(ExperimentSpec &spec, const std::string &key,
                    const std::string &value);

/**
 * Throw the error applySpecValue() gives for @p key when it is not a
 * spec key (listing the valid keys); return when it is one. Lets a
 * command line reject a mistyped flag before reading its value.
 */
void requireSpecKey(const std::string &key);

/** All valid spec keys joined with ", " (generated, for errors/help). */
std::string specKeyNamesJoined();

/**
 * Parse spec text (see file comment for the format). Errors carry the
 * 1-based line number. Starts from a default-constructed spec. Paths
 * stay as written: relative to the working directory.
 */
ExperimentSpec parseSpec(const std::string &text);

/**
 * Parse the spec file at @p path; errors name the file and line. A
 * relative `workload-file` or `trace-dir` value is relative to the
 * spec file's directory: it is joined to that directory and
 * normalized lexically, so the spec runs from any working directory.
 */
ExperimentSpec parseSpecFile(const std::string &path);

/** Canonical serialization: every key, fixed order, normalized values. */
std::string serializeSpec(const ExperimentSpec &spec);

/**
 * Validate cross-field constraints: known frontend (`trace` needs
 * trace-dir), no cores axis with trace-dir, exclusive workload axes,
 * resolvable profile and workload labels, non-empty axes, sched-seed
 * only with a stochastic policy, and a grid the report view can lay
 * out (the error names the axis). Every command line reaches
 * these rules through here. Throws std::invalid_argument with
 * registry-sourced messages.
 */
void validateSpec(const ExperimentSpec &spec);

/** validateSpec(@p spec), then @p spec itself. */
ExperimentSpec specGrid(const ExperimentSpec &spec);

/** How a spec spells @p key's axis: `llc` or `machine.<key>`. */
std::string axisName(const MachineKey &key);

/**
 * Expand the axes of a valid @p spec into jobs, profile-major (all of
 * one benchmark's points are adjacent, in the figures' row order),
 * then the machine axes in table order, then core counts. An empty
 * `profiles` is the whole suite; `.wdl` files are compiled here.
 * Checks nothing validateSpec() checks: run that first.
 */
std::vector<JobSpec> expandGrid(const ExperimentSpec &spec);

/**
 * The single-job spec: an ExperimentSpec whose grid expands to exactly
 * @p job — the wire form the experiment service leases jobs in
 * (serialize on the server, parse + expand on the worker). The result
 * validates and round-trips: expandGrid(specForJob(job))
 * yields one job with a fingerprint equal to fingerprintJob(job).
 * Requires @p job's profiles/workload to be registry-resolvable (true
 * for every job a spec produced); the scheduler seed is canonicalized
 * (dropped for deterministic policies) exactly like the fingerprint.
 * Throws std::invalid_argument for non-registry workloads.
 */
ExperimentSpec specForJob(const JobSpec &job);

/**
 * Apply @p spec's execution-relevant setting (trace-dir: the jobs
 * recorded there replay) to @p opts. Jobs/cache settings stay
 * CLI-level: they affect how a batch executes, never what it computes.
 */
void applySpecToDriverOptions(const ExperimentSpec &spec,
                              DriverOptions &opts);

} // namespace sst

#endif // SST_SPEC_SPEC_HH
