#include "fingerprint.hh"

#include <cinttypes>
#include <cstdio>

#include "spec/machine_keys.hh"
#include "util/logging.hh"
#include "wdl/wdl.hh"

namespace sst {
namespace {

void
put(std::string &out, const char *key, std::uint64_t v)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s=%" PRIu64 "\n", key, v);
    out += buf;
}

void
put(std::string &out, const char *key, int v)
{
    put(out, key, static_cast<std::uint64_t>(v));
}

void
put(std::string &out, const char *key, bool v)
{
    put(out, key, static_cast<std::uint64_t>(v ? 1 : 0));
}

void
put(std::string &out, const char *key, double v)
{
    // %.17g round-trips every IEEE-754 double exactly.
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s=%.17g\n", key, v);
    out += buf;
}

void
put(std::string &out, const char *key, const std::string &v)
{
    out += key;
    out += '=';
    out += v;
    out += '\n';
}

} // namespace

std::uint64_t
fnv1a64(const std::string &data)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
deriveJobSeed(std::uint64_t base_seed, std::uint64_t offset)
{
    if (offset == 0)
        return base_seed; // identity: the profile's own stream
    // SplitMix64 finalizer over the (seed, offset) pair.
    std::uint64_t z = base_seed + offset * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::string
Fingerprint::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
    return std::string(buf);
}

void
encodeProfile(std::string &out, const BenchmarkProfile &p)
{
    put(out, "profile.name", p.name);
    put(out, "profile.suite", p.suite);
    put(out, "profile.input", p.input);
    put(out, "profile.totalIters", p.totalIters);
    put(out, "profile.computePerIter", p.computePerIter);
    put(out, "profile.memPerIter", p.memPerIter);
    put(out, "profile.storeFrac", p.storeFrac);
    put(out, "profile.sharedStoreFrac", p.sharedStoreFrac);
    put(out, "profile.privateBytes", p.privateBytes);
    put(out, "profile.privateHotBytes", p.privateHotBytes);
    put(out, "profile.privateHotFrac", p.privateHotFrac);
    put(out, "profile.streamFrac", p.streamFrac);
    put(out, "profile.sharedBytes", p.sharedBytes);
    put(out, "profile.sharedFrac", p.sharedFrac);
    put(out, "profile.sharedHotFrac", p.sharedHotFrac);
    put(out, "profile.sharedHotBytes", p.sharedHotBytes);
    put(out, "profile.sharedWindowPhases", p.sharedWindowPhases);
    put(out, "profile.numLocks", p.numLocks);
    put(out, "profile.lockFreq", p.lockFreq);
    put(out, "profile.csCompute", p.csCompute);
    put(out, "profile.csMem", p.csMem);
    put(out, "profile.barrierPhases", p.barrierPhases);
    put(out, "profile.imbalanceSkew", p.imbalanceSkew);
    put(out, "profile.parallelismCap", p.parallelismCap);
    put(out, "profile.capJitter", p.capJitter);
    put(out, "profile.capScale", p.capScale);
    put(out, "profile.finalBarrier", p.finalBarrier);
    put(out, "profile.parOverheadFrac", p.parOverheadFrac);
    put(out, "profile.seed", p.seed);
}

void
encodeParams(std::string &out, const SimParams &params, int ncores_effective)
{
    put(out, "machine.ncores", ncores_effective);
    put(out, "sched", std::string(schedPolicyLabel(params.schedPolicy)));
    // The RNG stream only influences random schedules; canonicalizing
    // it away for deterministic policies maximizes cache sharing.
    put(out, "sched-seed",
        canonicalSchedSeed(params.schedPolicy, params.schedSeed));
    // Every remaining outcome-relevant field comes from the spec
    // module's machine-key table — the same table that parses and
    // serializes `machine.*` spec keys — so a spec-driven run and the
    // equivalent flag-driven run produce identical canonical text (and
    // a SimParams field added to the table is automatically part of
    // the cache identity).
    encodeMachineParams(out, params);
}

namespace {

Fingerprint
finish(std::string text)
{
    Fingerprint fp;
    fp.canonical = std::move(text);
    fp.hash = fnv1a64(fp.canonical);
    return fp;
}

} // namespace

Fingerprint
fingerprintJob(const JobSpec &spec)
{
    const WorkloadSpec workload = spec.effectiveWorkload();
    std::string out;
    if (workload.wdlProgram) {
        // WDL jobs are identified by the *compiled IR* (canonical
        // text), never by the source path: identical file content at
        // different paths — or re-submitted through `sst serve` — keys
        // one cache entry. The effective per-group seeds (seed-offset
        // and group mixing already applied) are encoded separately
        // because they scope the thread RNG streams outside the IR.
        put(out, "fingerprint.version", kFingerprintVersion);
        put(out, "job.kind", std::string("experiment"));
        put(out, "job.nthreads", spec.nthreads());
        put(out, "job.seedOffset", spec.seedOffset);
        put(out, "workload.role",
            std::string(workloadRoleName(workload.role)));
        put(out, "workload.wdl.version", wdl::kWdlVersion);
        put(out, "workload.groups",
            static_cast<std::uint64_t>(workload.groups.size()));
        for (std::size_t g = 0; g < workload.groups.size(); ++g) {
            put(out, "workload.group", static_cast<std::uint64_t>(g));
            put(out, "group.nthreads", workload.groups[g].nthreads);
            put(out, "group.seed", workload.groups[g].profile.seed);
        }
        const std::string ir = workload.wdlProgram->canonicalText();
        put(out, "workload.wdl.ir.bytes",
            static_cast<std::uint64_t>(ir.size()));
        out += ir;
        encodeParams(out, spec.params, spec.ncoresEffective());
        return finish(std::move(out));
    }
    if (workload.isHomogeneous()) {
        // The v3 schema, verbatim: homogeneous jobs simulate
        // bit-identically to the pre-WorkloadSpec stack, so their cache
        // entries must keep resolving (and a spec-driven, flag-driven
        // or pre-refactor run all hash the same text).
        put(out, "fingerprint.version", kHomogeneousSchemaVersion);
        put(out, "job.kind", std::string("experiment"));
        put(out, "job.nthreads", spec.nthreads());
        put(out, "job.seedOffset", spec.seedOffset);
        encodeProfile(out, workload.groups[0].profile);
    } else {
        put(out, "fingerprint.version", kFingerprintVersion);
        put(out, "job.kind", std::string("experiment"));
        put(out, "job.nthreads", spec.nthreads());
        put(out, "job.seedOffset", spec.seedOffset);
        put(out, "workload.role",
            std::string(workloadRoleName(workload.role)));
        put(out, "workload.groups",
            static_cast<std::uint64_t>(workload.groups.size()));
        for (std::size_t g = 0; g < workload.groups.size(); ++g) {
            // Group headers make the repeated profile.* sections
            // unambiguous in the canonical text.
            put(out, "workload.group", static_cast<std::uint64_t>(g));
            put(out, "group.nthreads", workload.groups[g].nthreads);
            encodeProfile(out, workload.groups[g].profile);
        }
    }
    // The stored params.ncores is irrelevant: the parallel run always
    // simulates on ncoresEffective() cores (== nthreads unless the job
    // oversubscribes), so canonicalizing it maximizes cache sharing.
    encodeParams(out, spec.params, spec.ncoresEffective());
    return finish(std::move(out));
}

Fingerprint
fingerprintProfileBaseline(const SimParams &params,
                           const BenchmarkProfile &profile)
{
    std::string out;
    put(out, "fingerprint.version", kHomogeneousSchemaVersion);
    put(out, "job.kind", std::string("baseline"));
    encodeProfile(out, profile);
    // One thread on one core never consults the scheduler policy (no
    // contention, no wakes, no preemption), so canonicalize it away:
    // cross-policy sweeps then share one baseline per profile.
    SimParams base = params;
    base.schedPolicy = SchedPolicy::kAffinityFifo;
    base.schedSeed = 0;
    encodeParams(out, base, 1);
    return finish(std::move(out));
}

Fingerprint
fingerprintWorkloadGroupBaseline(const SimParams &params,
                                 const WorkloadSpec &workload, int group)
{
    const BenchmarkProfile &profile =
        workload.groups[static_cast<std::size_t>(group)].profile;
    if (!workload.wdlProgram)
        return fingerprintProfileBaseline(params, profile);
    std::string out;
    put(out, "fingerprint.version", kFingerprintVersion);
    put(out, "job.kind", std::string("baseline"));
    put(out, "workload.wdl.version", wdl::kWdlVersion);
    put(out, "group.index", group);
    put(out, "group.seed", profile.seed);
    const std::string ir = workload.wdlProgram->canonicalText();
    put(out, "workload.wdl.ir.bytes", static_cast<std::uint64_t>(ir.size()));
    out += ir;
    // Same canonicalization as profile baselines: one thread on one
    // core never consults the scheduler policy.
    SimParams base = params;
    base.schedPolicy = SchedPolicy::kAffinityFifo;
    base.schedSeed = 0;
    encodeParams(out, base, 1);
    return finish(std::move(out));
}

Fingerprint
fingerprintBaseline(const JobSpec &spec)
{
    const WorkloadSpec workload = spec.effectiveWorkload();
    sstAssert(workload.isHomogeneous(),
              "per-job baseline fingerprints are homogeneous-only; "
              "heterogeneous jobs key one baseline per group");
    return fingerprintProfileBaseline(spec.params,
                                      workload.groups[0].profile);
}

} // namespace sst
