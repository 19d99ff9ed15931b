#include "workload_spec.hh"

#include <memory>
#include <stdexcept>

#include "util/logging.hh"
#include "workload/op.hh"
#include "workload/thread_program.hh"

namespace sst {

const char *
workloadRoleName(WorkloadRole role)
{
    switch (role) {
      case WorkloadRole::kReplicated:
        return "replicated";
      case WorkloadRole::kMix:
        return "mix";
      case WorkloadRole::kPipeline:
        return "pipeline";
    }
    panic("unhandled workload role");
}

WorkloadRole
workloadRoleFromRaw(std::uint32_t raw)
{
    if (raw > static_cast<std::uint32_t>(WorkloadRole::kPipeline))
        throw std::invalid_argument("workload role value " +
                                    std::to_string(raw) + " out of range");
    return static_cast<WorkloadRole>(raw);
}

WorkloadSpec
WorkloadSpec::homogeneous(const BenchmarkProfile &profile, int nthreads)
{
    WorkloadSpec spec;
    spec.role = WorkloadRole::kReplicated;
    spec.groups.push_back(WorkloadGroup{profile, nthreads});
    return spec;
}

WorkloadSpec
WorkloadSpec::mix(std::vector<WorkloadGroup> groups)
{
    if (groups.size() == 1) // a one-program mix IS the homogeneous case
        return homogeneous(groups[0].profile, groups[0].nthreads);
    WorkloadSpec spec;
    spec.role = WorkloadRole::kMix;
    spec.groups = std::move(groups);
    return spec;
}

WorkloadSpec
WorkloadSpec::pipeline(std::vector<WorkloadGroup> stages)
{
    WorkloadSpec spec;
    spec.role = WorkloadRole::kPipeline;
    spec.groups = std::move(stages);
    return spec;
}

int
WorkloadSpec::nthreads() const
{
    int n = 0;
    for (const WorkloadGroup &g : groups)
        n += g.nthreads;
    return n;
}

int
WorkloadSpec::groupOfThread(ThreadId tid) const
{
    int base = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        base += groups[g].nthreads;
        if (tid < base)
            return static_cast<int>(g);
    }
    panic("thread id out of the workload's range");
}

std::string
WorkloadSpec::descriptor() const
{
    std::string out;
    const char sep = role == WorkloadRole::kPipeline ? '>' : '+';
    for (const WorkloadGroup &g : groups) {
        if (!out.empty())
            out += sep;
        out += g.profile.label();
        out += ':';
        out += std::to_string(g.nthreads);
    }
    return out;
}

std::string
WorkloadSpec::label() const
{
    // WDL workloads are labelled by the program (or file) name even
    // when they have a single group.
    if (wdlProgram && !name.empty())
        return name;
    if (isHomogeneous())
        return groups[0].profile.label();
    if (!name.empty())
        return name;
    return descriptor();
}

void
WorkloadSpec::validate() const
{
    if (groups.empty())
        throw std::invalid_argument("workload has no program groups");
    if (role == WorkloadRole::kReplicated && groups.size() != 1) {
        throw std::invalid_argument(
            "replicated workload must have exactly one group, got " +
            std::to_string(groups.size()));
    }
    if (role == WorkloadRole::kPipeline && groups.size() < 2) {
        throw std::invalid_argument(
            "pipeline workload needs at least two stages");
    }
    if (groups.size() > static_cast<std::size_t>(kMaxWorkloadGroups)) {
        throw std::invalid_argument(
            "workload has " + std::to_string(groups.size()) +
            " groups, exceeding the " +
            std::to_string(kMaxWorkloadGroups) + "-group limit");
    }
    for (const WorkloadGroup &g : groups) {
        if (g.nthreads < 1) {
            throw std::invalid_argument(
                "workload group '" + g.profile.label() +
                "': nthreads must be >= 1, got " +
                std::to_string(g.nthreads));
        }
    }
    if (role == WorkloadRole::kPipeline) {
        // Stages barrier-align every phase: unequal phase counts would
        // deadlock the shared barrier namespace.
        const int phases = groups[0].profile.barrierPhases;
        for (const WorkloadGroup &g : groups) {
            if (g.profile.barrierPhases != phases) {
                throw std::invalid_argument(
                    "pipeline stages must agree on barrier phases: '" +
                    groups[0].profile.label() + "' has " +
                    std::to_string(phases) + ", '" + g.profile.label() +
                    "' has " + std::to_string(g.profile.barrierPhases));
            }
            if (!g.profile.finalBarrier) {
                throw std::invalid_argument(
                    "pipeline stage '" + g.profile.label() +
                    "' must keep the final barrier (stages finish "
                    "together)");
            }
        }
    }
}

ThreadTopology
topologyFor(WorkloadRole role, const std::vector<int> &group_sizes,
            int ncores)
{
    ThreadTopology topo;
    int nthreads = 0;
    for (const int n : group_sizes)
        nthreads += n;

    if (role == WorkloadRole::kMix) {
        // Barriers are group-local: a program's barrier opens when the
        // program's own threads arrive.
        topo.barrierQuorum.reserve(static_cast<std::size_t>(nthreads));
        for (const int n : group_sizes)
            for (int t = 0; t < n; ++t)
                topo.barrierQuorum.push_back(n);
    }
    if (role == WorkloadRole::kPipeline && ncores > 0) {
        // Stages occupy contiguous thread-id ranges; hint them onto a
        // proportional contiguous core range so stage working sets stay
        // resident across context switches.
        topo.affinityHint.reserve(static_cast<std::size_t>(nthreads));
        for (int t = 0; t < nthreads; ++t) {
            topo.affinityHint.push_back(static_cast<CoreId>(
                static_cast<long long>(t) * ncores / nthreads));
        }
    }
    return topo;
}

ThreadTopology
WorkloadSpec::topology(int ncores) const
{
    std::vector<int> sizes;
    sizes.reserve(groups.size());
    for (const WorkloadGroup &g : groups)
        sizes.push_back(g.nthreads);
    return topologyFor(role, sizes, ncores);
}

OpSourceFactory
workloadOpSources(const WorkloadSpec &spec)
{
    // WDL-backed workloads compile their op streams from the IR; the
    // placeholder profiles never reach a ThreadProgram.
    if (spec.wdlProgram)
        return spec.wdlProgram->sources(spec);

    // The factory owns the spec: group profiles must outlive every
    // ThreadProgram (which holds its profile by reference).
    auto owned = std::make_shared<const WorkloadSpec>(spec);

    // Homogeneous: exactly the historical factory, no scoping.
    if (owned->isHomogeneous()) {
        return [owned](ThreadId tid, int n) -> std::unique_ptr<OpSource> {
            return std::make_unique<ThreadProgram>(owned->groups[0].profile,
                                                   tid, n);
        };
    }

    const bool pipeline = owned->role == WorkloadRole::kPipeline;
    return [owned, pipeline](ThreadId tid,
                             int n) -> std::unique_ptr<OpSource> {
        sstAssert(n == owned->nthreads(),
                  "workload op-source factory used with a foreign "
                  "thread count");
        const int group = owned->groupOfThread(tid);
        const WorkloadGroup &wg =
            owned->groups[static_cast<std::size_t>(group)];
        int first = 0;
        for (int g = 0; g < group; ++g)
            first += owned->groups[static_cast<std::size_t>(g)].nthreads;

        ThreadScope scope;
        scope.dataTid = tid; // global: private sets disjoint across groups
        scope.sharedBase = addrmap::groupSharedBase(group);
        scope.lockIdOffset = group * kGroupSyncStride;
        // Mixes run independent programs (group-local barriers); each
        // behaves exactly as it would alone at its own thread count, so
        // a 1-thread program in a mix runs its sequential form and its
        // slowdown is pure interference. Pipeline stages instead share
        // one global barrier namespace (every phase spans all stages)
        // and are always part of a parallel run, even 1-thread stages.
        scope.barrierIdOffset = pipeline ? 0 : group * kGroupSyncStride;
        scope.forceParallel = pipeline;
        return std::make_unique<ThreadProgram>(wg.profile, tid - first,
                                               wg.nthreads, scope);
    };
}

OpSourceFactory
workloadGroupBaselineSources(const WorkloadSpec &spec, int group)
{
    if (group < 0 || group >= spec.ngroups())
        throw std::out_of_range(
            "workloadGroupBaselineSources: bad group index");
    if (spec.wdlProgram)
        return spec.wdlProgram->groupBaselineSources(spec, group);
    auto owned = std::make_shared<const BenchmarkProfile>(
        spec.groups[static_cast<std::size_t>(group)].profile);
    return [owned](ThreadId tid, int n) -> std::unique_ptr<OpSource> {
        return std::make_unique<ThreadProgram>(*owned, tid, n);
    };
}

} // namespace sst
