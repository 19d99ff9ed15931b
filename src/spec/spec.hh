/**
 * @file
 * ExperimentSpec: a fully declarative description of one speedup-stack
 * study — workload selection, sweep axes (threads, cores, LLC sizes),
 * machine parameters, scheduler policy + seed, workload frontend,
 * recorded-trace directory and output options — that parses from and
 * serializes to a canonical `key = value` text format. `sst run` (alias
 * `sst sweep`) starts from a spec file or the defaults and applies each
 * command-line flag as one more key.
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
 * blank lines ignored, later keys override earlier ones. All names
 * (profiles, scheduler policies, frontends, machine keys) resolve
 * through registries/tables, so every unknown-label error lists the
 * valid names.
 */

#ifndef SST_SPEC_SPEC_HH
#define SST_SPEC_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/driver.hh"
#include "driver/sweep.hh"
#include "sim/params.hh"

namespace sst {

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

    /** LLC sizes in bytes (sweep axis); empty keeps machine.llc-bytes. */
    std::vector<std::uint64_t> llcBytes;

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
    bool quiet = false;   ///< suppress the result table
};

/** Equality is canonical-form equality. */
bool operator==(const ExperimentSpec &a, const ExperimentSpec &b);
bool operator!=(const ExperimentSpec &a, const ExperimentSpec &b);

/**
 * Apply one `key = value` assignment to @p spec. This is the single
 * mutation path shared by the file parser and every command-line flag
 * (`sst run --threads 2,4` is applySpecValue(spec, "threads", "2,4"),
 * and the benches' `--sched X` the same), so flags and spec files can
 * never drift apart. Throws std::invalid_argument on an unknown key
 * (listing every valid key) or a malformed value.
 */
void applySpecValue(ExperimentSpec &spec, const std::string &key,
                    const std::string &value);

/** All valid spec keys joined with ", " (generated, for errors/help). */
std::string specKeyNamesJoined();

/**
 * Parse spec text (see file comment for the format). Errors carry the
 * 1-based line number. Starts from a default-constructed spec.
 */
ExperimentSpec parseSpec(const std::string &text);

/** Parse the spec file at @p path; errors name the file and line. */
ExperimentSpec parseSpecFile(const std::string &path);

/** Canonical serialization: every key, fixed order, normalized values. */
std::string serializeSpec(const ExperimentSpec &spec);

/**
 * Validate cross-field constraints: known frontend (`trace` needs
 * trace-dir), no cores axis with trace-dir, exclusive workload axes,
 * resolvable profile and workload labels, non-empty axes, and
 * sched-seed only with a stochastic policy. Every command line reaches
 * these rules through here. Throws std::invalid_argument with
 * registry-sourced messages.
 */
void validateSpec(const ExperimentSpec &spec);

/** Expand @p spec's axes into the driver's sweep grid. */
SweepGrid specGrid(const ExperimentSpec &spec);

/**
 * The single-job spec: an ExperimentSpec whose grid expands to exactly
 * @p job — the wire form the experiment service leases jobs in
 * (serialize on the server, parse + expand on the worker). The result
 * validates and round-trips: expandGrid(specGrid(specForJob(job)))
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
