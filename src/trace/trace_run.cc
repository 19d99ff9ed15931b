#include "trace_run.hh"

#include <cstdio>

#include "cache/hierarchy.hh"
#include "sim/system.hh"
#include "util/canonical.hh"

namespace sst {

namespace {

/**
 * Content hash of one WDL group's op streams: the compiled IR plus the
 * group index and effective seed (the inputs the compiler draws from).
 * Replay compatibility checks compare these, so editing the file or
 * reseeding a group invalidates its recordings like a profile edit
 * would.
 */
std::uint64_t
wdlGroupHash(const WorkloadSpec &workload, std::size_t group)
{
    std::string canonical = workload.wdlProgram->canonicalText();
    canonical += "group=" + std::to_string(group) + '\n';
    canonical +=
        "seed=" + std::to_string(workload.groups[group].profile.seed) + '\n';
    return fnv1a64(canonical);
}

} // namespace

std::uint64_t
traceProfileHash(const BenchmarkProfile &profile)
{
    std::string canonical;
    encodeProfile(canonical, profile);
    return fnv1a64(canonical);
}

std::uint64_t
traceWorkloadHash(const WorkloadSpec &workload)
{
    if (workload.isHomogeneous() && !workload.wdlProgram)
        return traceProfileHash(workload.groups[0].profile);
    std::string canonical;
    putKey(canonical, "workload.role",
           std::string(workloadRoleName(workload.role)));
    for (std::size_t g = 0; g < workload.groups.size(); ++g) {
        const WorkloadGroup &wg = workload.groups[g];
        putKey(canonical, "workload.group", static_cast<std::uint64_t>(g));
        putKey(canonical, "group.nthreads", wg.nthreads);
        // A WDL group's streams come from the program below and its seed.
        if (workload.wdlProgram)
            putKey(canonical, "group.seed", wg.profile.seed);
        else
            encodeProfile(canonical, wg.profile);
    }
    if (workload.wdlProgram)
        canonical += workload.wdlProgram->canonicalText();
    return fnv1a64(canonical);
}

std::vector<trace::TraceGroup>
traceGroupsOf(const WorkloadSpec &workload)
{
    std::vector<trace::TraceGroup> groups;
    groups.reserve(workload.groups.size());
    for (std::size_t g = 0; g < workload.groups.size(); ++g) {
        const WorkloadGroup &wg = workload.groups[g];
        // WDL group labels come from the file (the group names); their
        // hashes cover the compiled IR instead of the placeholder
        // profile knobs.
        groups.push_back(trace::TraceGroup{
            wg.nthreads,
            workload.wdlProgram ? wdlGroupHash(workload, g)
                                : traceProfileHash(wg.profile),
            wg.profile.label()});
    }
    return groups;
}

trace::TraceMeta
traceMetaFor(const WorkloadSpec &workload, const SimParams &params)
{
    trace::TraceMeta meta;
    meta.nthreads = workload.nthreads();
    meta.profileHash = traceWorkloadHash(workload);
    meta.schedPolicy = params.schedPolicy;
    meta.schedSeed =
        canonicalSchedSeed(params.schedPolicy, params.schedSeed);
    meta.label = workload.label();
    meta.role = workload.role;
    meta.groups = traceGroupsOf(workload);
    return meta;
}

std::string
tracePathFor(const std::string &dir, const WorkloadSpec &workload,
             std::uint64_t seed_offset, SchedPolicy policy,
             std::uint64_t sched_seed)
{
    std::string path = dir;
    if (!path.empty() && path.back() != '/')
        path += '/';
    std::string label = workload.label();
    if (workload.wdlProgram) {
        // Two different .wdl files may share a workload name; suffix a
        // short content hash so their recordings never collide.
        char hash[12];
        std::snprintf(hash, sizeof(hash), "_%08x",
                      static_cast<unsigned>(workload.wdlProgram->irHash() &
                                            0xffffffffu));
        label += hash;
    }
    for (char &c : label)
        if (c == '/')
            c = '_';
    path += label;
    path += "_t";
    path += std::to_string(workload.nthreads());
    if (seed_offset != 0) {
        path += "_s";
        path += std::to_string(seed_offset);
    }
    if (policy != SchedPolicy::kAffinityFifo) {
        path += '_';
        path += schedPolicyLabel(policy);
        // The RNG stream only shapes random schedules; deterministic
        // policies share one recording regardless of the seed field.
        if (canonicalSchedSeed(policy, sched_seed) != 0) {
            path += "_ss";
            path += std::to_string(sched_seed);
        }
    }
    path += trace::kFileSuffix;
    return path;
}

trace::OpEncoder
encodeGeneratedBaseline(const WorkloadSpec &workload, int group)
{
    // The bytes equal a RecordingSource capture of a live baseline run,
    // because the simulator pulls each op exactly once. The factory
    // owns the profile its sources read, so it must outlive the source.
    const OpSourceFactory factory =
        workloadGroupBaselineSources(workload, group);
    const std::unique_ptr<OpSource> source = factory(0, 1);
    trace::OpEncoder enc;
    for (;;) {
        const Op op = source->nextOp();
        enc.encode(op);
        if (op.type == OpType::kEnd)
            return enc;
    }
}

void
appendGeneratedBaseline(TraceWriter &writer, const WorkloadSpec &workload,
                        int group)
{
    writer.setStream(writer.baselineStream(group),
                     std::make_shared<const trace::OpEncoder>(
                         encodeGeneratedBaseline(workload, group)));
}

RunResult
replayParallel(const SimParams &params, const TraceReader &reader)
{
    // The container format allows up to trace::kMaxThreads streams, but
    // the simulator pins ncores to nthreads and caps the machine size:
    // fail with a clean TraceError instead of the constructor's panic.
    if (reader.meta().nthreads > kMaxSimCores) {
        throw TraceError(
            "trace '" + reader.meta().label + "' has " +
            std::to_string(reader.meta().nthreads) +
            " threads, exceeding the " + std::to_string(kMaxSimCores) +
            "-core simulator limit");
    }
    // Rebuild the recorded workload's topology (barrier quorums,
    // affinity hints) from the header's group table: replayed mixes
    // and pipelines schedule exactly like their live runs.
    std::vector<int> sizes;
    sizes.reserve(reader.meta().groups.size());
    for (const trace::TraceGroup &g : reader.meta().groups)
        sizes.push_back(g.nthreads);
    const ThreadTopology topo =
        topologyFor(reader.meta().role, sizes, reader.meta().nthreads);
    return simulateSources(
        params,
        [&reader](ThreadId tid, int) { return reader.parallelSource(tid); },
        reader.meta().nthreads, 0, &topo);
}

RunResult
replayBaseline(const SimParams &params, const TraceReader &reader,
               int group)
{
    return simulateSources(
        params,
        [&reader, group](ThreadId, int) {
            return reader.baselineSource(group);
        },
        1);
}

} // namespace sst
