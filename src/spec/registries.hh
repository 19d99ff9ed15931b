/**
 * @file
 * The three named-factory registries every experiment description
 * resolves through:
 *
 *  - profileRegistry():   benchmark label -> BenchmarkProfile (the
 *                         Figure 6 suite; bare names alias their first
 *                         input variant, matching profileByLabel()).
 *  - schedulerRegistry(): `--sched` label -> SchedPolicy (src/sched/).
 *  - opSourceRegistry():  workload-frontend name -> frontend descriptor
 *                         ("program" generates op streams live from
 *                         ThreadProgram; "trace" replays recorded
 *                         .sstt containers; "pipeline" generates
 *                         barrier-coupled heterogeneous stages).
 *  - mixRegistry():       named heterogeneous workload -> WorkloadSpec
 *                         (the Figure 8 two-program mixes and the
 *                         ferret-style pipelines).
 *
 * Each registry is enumerable in a stable order, so `sst list ...`
 * output, spec validation and every unknown-label error message are
 * generated from the same table instead of hand-maintained lists.
 * Adding a component means registering a name here — no CLI or error
 * string needs touching.
 */

#ifndef SST_SPEC_REGISTRIES_HH
#define SST_SPEC_REGISTRIES_HH

#include "sched/policy.hh"
#include "spec/registry.hh"
#include "workload/profile.hh"
#include "workload/workload_spec.hh"

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

/** Benchmark-profile registry (suite order; bare-name aliases). */
const NamedRegistry<const BenchmarkProfile *> &profileRegistry();

/** Scheduler-policy registry (enum order, values = SchedPolicy). */
const NamedRegistry<SchedPolicy> &schedulerRegistry();

/** Workload-frontend registry ("program", "trace", "pipeline",
 *  "workload-file"). */
const NamedRegistry<OpSourceFrontend> &opSourceRegistry();

/**
 * Named heterogeneous workloads: the Figure 8 two-program mixes
 * ("fig08_<benchmark>": the benchmark on 8 threads co-running with a
 * cache-hungry canneal partner on 8) and the ferret-style pipelines
 * ("ferret4", "ferret16"). Values are complete WorkloadSpecs; `sst
 * list mixes`, spec validation and unknown-label errors all come from
 * this table.
 */
const NamedRegistry<WorkloadSpec> &mixRegistry();

/**
 * Resolve a workload descriptor: a mixRegistry() name, or an inline
 * form — `label[:count]` items joined with '+' (a mix of independent
 * programs) or '>' (pipeline stages). A count on only the final item
 * broadcasts to every item ("a+b:8" = 8 threads each); items without
 * any count run 1 thread. A single '+'-item is the homogeneous
 * configuration ("cholesky:8" = profiles cholesky, threads 8).
 * Unknown names throw std::invalid_argument listing the registered
 * mixes (or profiles, for inline labels).
 */
WorkloadSpec parseWorkload(const std::string &text);

/**
 * Canonical text of a workload descriptor: registry names stay
 * themselves; inline forms normalize to explicit per-group counts
 * ("a+b:8" -> "a:8+b:8"). parseWorkload(canonicalWorkloadText(t))
 * equals parseWorkload(t), and the function is a fixed point.
 */
std::string canonicalWorkloadText(const std::string &text);

} // namespace sst

#endif // SST_SPEC_REGISTRIES_HH
