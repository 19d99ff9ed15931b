/**
 * @file
 * WorkloadSpec: the per-thread workload description every layer of the
 * stack consumes. A workload is an ordered list of (BenchmarkProfile,
 * thread count) groups plus a role describing how the groups relate:
 *
 *  - kReplicated: one program, every thread runs it — the historical
 *    homogeneous configuration. WorkloadSpec::homogeneous(p, n)
 *    reproduces the pre-WorkloadSpec stack bit for bit.
 *  - kMix: independent programs co-scheduled on one machine (the
 *    paper's Figure 8 multi-program LLC-interference setting). Groups
 *    are fully disjoint: private working sets, shared regions, lock
 *    and barrier namespaces never overlap, so programs interact only
 *    through the shared hardware (LLC, bus, DRAM, scheduler).
 *  - kPipeline: heterogeneous stages of one program (the paper's
 *    Figure 7 ferret). Stages keep disjoint data and locks but share
 *    one global barrier namespace: every phase barrier spans all
 *    threads, so stage imbalance surfaces as synchronization time —
 *    the slowest stage paces the pipeline.
 *
 * The per-thread baseline semantics follow the paper's per-program
 * normalization: a heterogeneous workload's single-threaded reference
 * time Ts is the *sum* of each program's own 1-thread run, so speedup
 * stacks of mixes remain normalized per program.
 */

#ifndef SST_WORKLOAD_WORKLOAD_SPEC_HH
#define SST_WORKLOAD_WORKLOAD_SPEC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/registry.hh"
#include "util/types.hh"
#include "workload/op_source.hh"
#include "workload/profile.hh"

namespace sst {

struct WorkloadSpec;

/**
 * A workload compiled from a description (the WDL frontend's
 * wdl::Program): its identity for fingerprints and trace hashes, and
 * the op-source factories that replace the placeholder profiles of a
 * WorkloadSpec built from it.
 */
class CompiledWorkload
{
  public:
    virtual ~CompiledWorkload() = default;

    /** Deterministic serialization of the compiled program. */
    virtual std::string canonicalText() const = 0;

    /** 64-bit content hash of canonicalText(). */
    virtual std::uint64_t irHash() const = 0;

    /** Op-source factory for the parallel run of @p spec, whose
     *  wdlProgram is this program. */
    virtual OpSourceFactory sources(const WorkloadSpec &spec) const = 0;

    /** 1-thread sequential baseline factory for group @p group. */
    virtual OpSourceFactory
    groupBaselineSources(const WorkloadSpec &spec, int group) const = 0;
};

/** How a workload's program groups relate to each other. */
enum class WorkloadRole : std::uint8_t {
    kReplicated = 0, ///< one program, all threads (homogeneous)
    kMix = 1,        ///< independent co-running programs
    kPipeline = 2,   ///< stages of one program, globally barrier-coupled
};

/** Stable lowercase label of @p role ("replicated", "mix", "pipeline"). */
const char *workloadRoleName(WorkloadRole role);

/** Validate a role decoded from an external source (trace header). */
WorkloadRole workloadRoleFromRaw(std::uint32_t raw);

/** One program group: a profile and the threads that run it. */
struct WorkloadGroup
{
    BenchmarkProfile profile;
    int nthreads = 1;
};

/**
 * Per-thread topology the simulator needs beyond the op streams:
 * barrier quorums (how many threads a barrier waits for — the arriving
 * thread's group for mixes, everyone for pipelines) and optional
 * scheduler affinity hints (pipeline stages prefer a stable core
 * range so stage data stays L1-resident).
 */
struct ThreadTopology
{
    /** Barrier quorum per thread; empty means "all threads". */
    std::vector<int> barrierQuorum;

    /** Preferred core per thread; empty means no hints. */
    std::vector<CoreId> affinityHint;
};

/** The per-thread workload description (see file comment). */
struct WorkloadSpec
{
    std::vector<WorkloadGroup> groups;
    WorkloadRole role = WorkloadRole::kReplicated;

    /** Optional display name (registry mixes keep their label). */
    std::string name;

    /**
     * Compiled program backing this workload (a WDL file), or null for
     * profile-backed workloads. When set, op streams, fingerprints and
     * trace hashes come from the compiled IR; the groups' profiles are
     * placeholders carrying only the per-group label, suite ("wdl") and
     * seed (so JobSpec seed-offset mixing applies unchanged).
     */
    std::shared_ptr<const CompiledWorkload> wdlProgram;

    /** Source path of the WDL file (spec re-serialization only; never
     *  fingerprinted — content-identical files dedup to one entry). */
    std::string wdlPath;

    /** The historical homogeneous configuration: @p nthreads threads
     *  all running @p profile. Bit-identical to the pre-WorkloadSpec
     *  stack everywhere (op streams, fingerprints, traces, CSV). */
    static WorkloadSpec homogeneous(const BenchmarkProfile &profile,
                                    int nthreads);

    /** Independent co-running programs. A single group collapses to
     *  the homogeneous configuration. */
    static WorkloadSpec mix(std::vector<WorkloadGroup> groups);

    /** Barrier-coupled heterogeneous stages (>= 2 of them). */
    static WorkloadSpec pipeline(std::vector<WorkloadGroup> stages);

    /** Total software threads across all groups. */
    int nthreads() const;

    int ngroups() const { return static_cast<int>(groups.size()); }

    /** One replicated group: the bit-compatible homogeneous path. */
    bool
    isHomogeneous() const
    {
        return role == WorkloadRole::kReplicated && groups.size() == 1;
    }

    /** Group index of global thread @p tid (groups are contiguous). */
    int groupOfThread(ThreadId tid) const;

    /** Profile global thread @p tid runs. */
    const BenchmarkProfile &profileOfThread(ThreadId tid) const;

    /**
     * Display label: the profile label for homogeneous workloads
     * (unchanged CSV/table output), the registry name when set, else
     * the canonical inline descriptor ("a:8+b:8", "s1:1>s2:2").
     */
    std::string label() const;

    /** Canonical inline descriptor, ignoring `name` ("a:8+b:8"). */
    std::string descriptor() const;

    /**
     * Structural validation: at least one group, positive thread
     * counts, the group-count cap, one group iff replicated, and equal
     * stage phase counts for pipelines (stages barrier-align every
     * phase). Throws std::invalid_argument.
     */
    void validate() const;

    /** Per-thread quorums and affinity hints for a @p ncores machine. */
    ThreadTopology topology(int ncores) const;
};

/**
 * Per-thread quorums/hints from the topology-relevant subset of a
 * workload (role + group sizes) — what a trace header retains.
 */
ThreadTopology topologyFor(WorkloadRole role,
                           const std::vector<int> &group_sizes,
                           int ncores);

/**
 * Op-source factory for @p spec's threads: each thread runs a
 * ThreadProgram of its group's profile, scoped so groups never share
 * data or sync primitives (see ThreadScope). Owns a copy of the spec,
 * so the factory outlives the caller's argument. For homogeneous specs
 * the produced streams are bit-identical to the historical
 * ThreadProgram(profile, tid, nthreads) streams.
 */
OpSourceFactory workloadOpSources(const WorkloadSpec &spec);

/**
 * 1-thread baseline op-source factory for group @p group of @p spec:
 * ThreadProgram(profile, tid, nthreads) for profile-backed workloads
 * (bit-identical to the historical baselines) and the sequential WDL
 * program for WDL-backed ones. Every group baseline comes from here —
 * driver, runExperiment(), trace recording and generation — so
 * generated and recorded baselines agree.
 */
OpSourceFactory workloadGroupBaselineSources(const WorkloadSpec &spec,
                                             int group);

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

#endif // SST_WORKLOAD_WORKLOAD_SPEC_HH
