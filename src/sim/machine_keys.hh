/**
 * @file
 * The canonical machine-parameter key table: every outcome-relevant
 * SimParams field (except the per-job core count and the scheduler
 * policy/seed, which are spec-level keys of their own) under a stable
 * `machine.<key>` name. One table drives
 *
 *  - spec-file parsing (`machine.llc-bytes = 4M`),
 *  - canonical spec serialization (table order = emission order),
 *  - the driver's result-cache fingerprint (fingerprint v3 encodes the
 *    params section through encodeMachineParams, so a spec-driven run
 *    and the equivalent flag-driven run hash identically by
 *    construction),
 *  - generated "valid keys" error messages.
 *
 * Adding a SimParams field means adding one table row; parse, print,
 * fingerprint and error text all follow. The table lives beside
 * SimParams so the driver and the spec read it without depending on
 * each other.
 */

#ifndef SST_SIM_MACHINE_KEYS_HH
#define SST_SIM_MACHINE_KEYS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/params.hh"

namespace sst {

/** One machine parameter: name, value kind, and typed accessors. */
struct MachineKey
{
    /** Kebab-case key, serialized as `machine.<name>`. */
    const char *name;

    enum class Kind : std::uint8_t {
        kU64,      ///< plain decimal integer
        kSize,     ///< byte count; accepts K/M/G, prints the shortest form
        kBool,     ///< true/false (0/1 accepted on input)
        kDetector, ///< spin-detector selector: tian | li
    };
    Kind kind;

    std::uint64_t (*get)(const SimParams &);
    void (*set)(SimParams &, std::uint64_t);
};

/** All machine keys, in canonical (serialization) order. */
const std::vector<MachineKey> &machineKeys();

/** Key table entry for `machine.<name>`; nullptr when unknown. */
const MachineKey *findMachineKey(const std::string &name);

/** All `machine.<name>` keys joined with ", " (for error messages). */
std::string machineKeyNamesJoined();

/** Canonical text of @p key's current value in @p params. */
std::string machineValueText(const MachineKey &key, const SimParams &params);

/**
 * Parse @p text (canonical or user form) into @p params via @p key.
 * Throws std::invalid_argument on malformed values.
 */
void setMachineValue(SimParams &params, const MachineKey &key,
                     const std::string &text);

/** Largest DRAM latency or bus transfer, in cycles, validateMachine
 *  accepts. */
inline constexpr Cycles kMaxDramCycles = 4096;

/**
 * Throw std::invalid_argument, naming the `machine.<key>`, when a value
 * in @p params is one the simulator cannot run: a cache geometry
 * without a power-of-two set count or with more than
 * SetAssocArray::kMaxWays ways, an ATD sampling factor that does not
 * divide the LLC set count, a DRAM row smaller than a line, a DRAM
 * latency or bus transfer above kMaxDramCycles, or a zero bank count,
 * dispatch width, detector table, spin poll period or time slice.
 */
void validateMachine(const SimParams &params);

/**
 * Append `machine.<key> = <value>` lines for every table entry, in
 * canonical order. This is both the machine section of a serialized
 * spec and the params section of a job fingerprint.
 */
void encodeMachineParams(std::string &out, const SimParams &params);

} // namespace sst

#endif // SST_SIM_MACHINE_KEYS_HH
