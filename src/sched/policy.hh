/**
 * @file
 * OS scheduler policy selection. The policy is part of a run's identity:
 * it is carried in SimParams, folded into the driver's result-cache
 * fingerprint, recorded in trace headers, and selected on the command
 * line via `--sched LABEL`.
 */

#ifndef SST_SCHED_POLICY_HH
#define SST_SCHED_POLICY_HH

#include <cstdint>

#include "util/registry.hh"

namespace sst {

/**
 * Which placement/pick policy the OS scheduler runs. Every policy keeps
 * the same mechanism (ready pool, wake fast path, time slicing); only
 * the decisions differ.
 */
enum class SchedPolicy : std::uint8_t {
    /**
     * The default, bit-identical to the historical hard-wired
     * scheduler: prefer a ready thread that last ran on the idle core
     * (cache affinity), fall back to FIFO order.
     */
    kAffinityFifo = 0,
    /** Plain FIFO pick, affinity ignored (classic round-robin). */
    kRoundRobin = 1,
    /** Uniform random pick from the ready pool (seeded, deterministic). */
    kRandom = 2,
};

/** `sched` label -> SchedPolicy, in enum order (`sst list scheds`). */
const NamedRegistry<SchedPolicy> &schedulerRegistry();

/** Stable command-line/cache label of @p policy ("affinity-fifo", ...). */
const char *schedPolicyLabel(SchedPolicy policy);

/**
 * Validate a policy decoded from an external source (trace header,
 * cached result). Throws std::invalid_argument on out-of-range values.
 */
SchedPolicy schedPolicyFromRaw(std::uint32_t raw);

/**
 * The RNG stream a run's identity actually depends on: deterministic
 * policies ignore SimParams::schedSeed, so it canonicalizes to 0
 * everywhere a seed is keyed or recorded (result-cache fingerprints,
 * trace headers, trace file names). One helper so the rule cannot
 * drift between those sites.
 */
constexpr std::uint64_t
canonicalSchedSeed(SchedPolicy policy, std::uint64_t seed)
{
    return policy == SchedPolicy::kRandom ? seed : 0;
}

} // namespace sst

#endif // SST_SCHED_POLICY_HH
