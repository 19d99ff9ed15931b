#include "fingerprint.hh"

#include <cinttypes>
#include <cstdio>

#include "sim/machine_keys.hh"
#include "util/canonical.hh"
#include "util/logging.hh"
#include "wdl/wdl.hh"

namespace sst {

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
encodeParams(std::string &out, const SimParams &params, int ncores_effective)
{
    putKey(out, "machine.ncores", ncores_effective);
    putKey(out, "sched", std::string(schedPolicyLabel(params.schedPolicy)));
    // The RNG stream only influences random schedules; canonicalizing
    // it away for deterministic policies maximizes cache sharing.
    putKey(out, "sched-seed",
           canonicalSchedSeed(params.schedPolicy, params.schedSeed));
    // Every remaining outcome-relevant field comes from the
    // machine-key table (src/sim/machine_keys.hh) — the same table
    // that parses and serializes `machine.*` spec keys — so a
    // spec-driven run and the
    // equivalent flag-driven run produce identical canonical text (and
    // a SimParams field added to the table is automatically part of
    // the cache identity). Every run records both spin detectors, so
    // the stack detector is canonicalized: one simulation serves both.
    SimParams simulated = params;
    simulated.accounting.stackDetector = AccountingParams::Detector::kTian;
    encodeMachineParams(out, simulated);
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
    const bool compiled = workload.wdlProgram != nullptr;
    // The v3 schema, verbatim, for homogeneous profile jobs: they
    // simulate bit-identically to the pre-WorkloadSpec stack, so their
    // cache entries must keep resolving (and a spec-driven, flag-driven
    // or pre-refactor run all hash the same text).
    const bool v3 = workload.isHomogeneous() && !compiled;
    std::string out;
    putKey(out, "fingerprint.version",
           v3 ? kHomogeneousSchemaVersion : kFingerprintVersion);
    putKey(out, "job.kind", std::string("experiment"));
    putKey(out, "job.nthreads", spec.nthreads());
    putKey(out, "job.seedOffset", spec.seedOffset);
    if (v3) {
        encodeProfile(out, workload.groups[0].profile);
    } else {
        putKey(out, "workload.role",
               std::string(workloadRoleName(workload.role)));
        if (compiled)
            putKey(out, "workload.wdl.version", wdl::kWdlVersion);
        putKey(out, "workload.groups",
               static_cast<std::uint64_t>(workload.groups.size()));
        for (std::size_t g = 0; g < workload.groups.size(); ++g) {
            // Group headers make the repeated profile.* sections
            // unambiguous in the canonical text.
            putKey(out, "workload.group", static_cast<std::uint64_t>(g));
            putKey(out, "group.nthreads", workload.groups[g].nthreads);
            // WDL jobs are identified by the *compiled IR* (below),
            // never by the source path: identical file content at
            // different paths — or re-submitted through `sst serve` —
            // keys one cache entry. The effective per-group seeds
            // (seed-offset and group mixing applied) scope the thread
            // RNG streams outside the IR.
            if (compiled)
                putKey(out, "group.seed", workload.groups[g].profile.seed);
            else
                encodeProfile(out, workload.groups[g].profile);
        }
        if (compiled) {
            const std::string ir = workload.wdlProgram->canonicalText();
            putKey(out, "workload.wdl.ir.bytes",
                   static_cast<std::uint64_t>(ir.size()));
            out += ir;
        }
    }
    // The stored params.ncores is irrelevant: the parallel run always
    // simulates on ncoresEffective() cores (== nthreads unless the job
    // oversubscribes), so canonicalizing it maximizes cache sharing.
    encodeParams(out, spec.params, spec.ncoresEffective());
    return finish(std::move(out));
}

Fingerprint
fingerprintWorkloadGroupBaseline(const SimParams &params,
                                 const WorkloadSpec &workload, int group)
{
    const BenchmarkProfile &profile =
        workload.groups[static_cast<std::size_t>(group)].profile;
    const bool compiled = workload.wdlProgram != nullptr;
    std::string out;
    putKey(out, "fingerprint.version",
           compiled ? kFingerprintVersion : kHomogeneousSchemaVersion);
    putKey(out, "job.kind", std::string("baseline"));
    if (compiled) {
        // Only what the sequential stream reads: programs that differ
        // in their name or thread counts alone share one baseline.
        putKey(out, "workload.wdl.version", wdl::kWdlVersion);
        putKey(out, "group.index", group);
        putKey(out, "group.seed", profile.seed);
        const std::string text =
            workload.wdlProgram->groupBaselineText(group);
        putKey(out, "workload.wdl.baseline.bytes",
               static_cast<std::uint64_t>(text.size()));
        out += text;
    } else {
        encodeProfile(out, profile); // seed already applied
    }
    // One thread on one core never consults the scheduler policy (no
    // contention, no wakes, no preemption), so canonicalize it away:
    // cross-policy sweeps then share one baseline per program.
    SimParams base = params;
    base.schedPolicy = SchedPolicy::kAffinityFifo;
    base.schedSeed = 0;
    encodeParams(out, base, 1);
    return finish(std::move(out));
}

} // namespace sst
