#include "policy.hh"

#include <stdexcept>

namespace sst {

// The label table is schedulerRegistry(), registered in enum order so
// names()[enum value] is the label. Every lookup below delegates there,
// so adding a policy is one registry line plus the enumerator — parse
// errors and `sst list scheds` follow automatically.

const NamedRegistry<SchedPolicy> &
schedulerRegistry()
{
    static const NamedRegistry<SchedPolicy> registry = [] {
        NamedRegistry<SchedPolicy> r("scheduler policy",
                                     "scheduler policies");
        // Registration order must equal enum order: schedPolicyLabel()
        // indexes names() by the enum value.
        r.add("affinity-fifo", SchedPolicy::kAffinityFifo);
        r.add("round-robin", SchedPolicy::kRoundRobin);
        r.add("random", SchedPolicy::kRandom);
        return r;
    }();
    return registry;
}

const char *
schedPolicyLabel(SchedPolicy policy)
{
    const auto idx = static_cast<std::size_t>(policy);
    const auto &names = schedulerRegistry().names();
    return idx < names.size() ? names[idx].c_str() : "?";
}

SchedPolicy
schedPolicyFromRaw(std::uint32_t raw)
{
    const std::size_t count = schedulerRegistry().size();
    if (raw >= count) {
        throw std::invalid_argument(
            "scheduler policy id " + std::to_string(raw) +
            " out of range (0.." + std::to_string(count - 1) + ")");
    }
    return static_cast<SchedPolicy>(raw);
}

} // namespace sst
