/**
 * @file
 * Canonical content fingerprints for experiment jobs. Every field that
 * can influence a simulation's outcome — the whole BenchmarkProfile, the
 * whole SimParams, the thread count and the seed offset — is serialized
 * into a stable `key=value` text form, which is then hashed (FNV-1a
 * 64-bit) to key the on-disk result cache and the job queue's dedup of
 * experiment and baseline jobs. The canonical text itself is persisted next to each cached
 * result so a hash collision degrades to a cache miss, never to a wrong
 * result.
 *
 * The encoding is versioned: bump kFingerprintVersion whenever the
 * simulation's observable behaviour changes in a way the parameter set
 * does not capture (e.g. a core-model bug fix), which invalidates every
 * previously cached result at once.
 */

#ifndef SST_DRIVER_FINGERPRINT_HH
#define SST_DRIVER_FINGERPRINT_HH

#include <cstdint>
#include <string>

#include "driver/job.hh"
#include "util/canonical.hh"

namespace sst {

/**
 * Bump to invalidate all cached results after behavioural changes.
 * v2: unified event engine + scheduler subsystem; preemption wait is
 * now charged to yield time (changes oversubscribed-run counters), and
 * the encoding gained params.schedPolicy / params.schedSeed.
 * v3: declarative ExperimentSpec API — the params section is rendered
 * by the spec module's canonical machine-key table (spec files and
 * fingerprints can no longer drift), and jobs gained the ncores
 * oversubscription axis (encoded as machine.ncores, which now may be
 * smaller than job.nthreads).
 * v4: per-thread WorkloadSpec — heterogeneous jobs (mixes, pipelines)
 * encode a workload section (role + per-group thread counts and
 * profiles). Homogeneous jobs still simulate bit-identically, so they
 * keep emitting the v3 schema verbatim (kHomogeneousSchemaVersion):
 * every result cached before the refactor stays valid and shared.
 */
inline constexpr int kFingerprintVersion = 4;

/** Schema version homogeneous jobs (and all 1-profile baselines)
 *  canonicalize to — the pre-WorkloadSpec encoding, preserved exactly
 *  so existing cache entries survive the refactor. */
inline constexpr int kHomogeneousSchemaVersion = 3;

/** A job identity: the canonical text and its 64-bit digest. */
struct Fingerprint
{
    std::string canonical; ///< full `key=value` serialization
    std::uint64_t hash = 0;

    /** Fixed-width lowercase hex of the digest (cache file stem). */
    std::string hex() const;
};

/**
 * Canonical serialization of every outcome-relevant SimParams field.
 * @p ncores_effective replaces params.ncores: simulateWorkload() pins
 * the core count to the job's effective core count
 * (JobSpec::ncoresEffective()), so the stored field is irrelevant and
 * canonicalizing it maximizes cache and baseline sharing. The field
 * list is the machine-key table (see src/sim/machine_keys.hh), with
 * `machine.stack-detector` written as Tian: it picks how a stack is
 * built from the counters, not what a run measures.
 */
void encodeParams(std::string &out, const SimParams &params,
                  int ncores_effective);

/** Fingerprint of a full job (workload x params x seed). */
Fingerprint fingerprintJob(const JobSpec &spec);

/**
 * Baseline fingerprint of group @p group of @p workload: the 1-thread
 * run of that group's program under @p params. Pins the thread/core
 * count to 1 and drops nthreads, so every job that differs only in
 * thread count shares one baseline. A profile-backed group keys on its
 * profile alone (seed applied), so mix groups and homogeneous sweeps of
 * the same program share it. A WDL-backed group hashes what its
 * sequential stream reads of the compiled program
 * (CompiledWorkload::groupBaselineText) plus the group index and
 * effective seed, never the source path or the program's name and
 * thread counts, so programs differing only in those share one
 * baseline. The text is an in-memory key: nothing persists it.
 */
Fingerprint fingerprintWorkloadGroupBaseline(const SimParams &params,
                                             const WorkloadSpec &workload,
                                             int group);

} // namespace sst

#endif // SST_DRIVER_FINGERPRINT_HH
