#include "policy.hh"

#include <stdexcept>

#include "spec/registries.hh"

namespace sst {

// The label table lives in schedulerRegistry() (src/spec/registries.cc),
// registered in enum order so names()[enum value] is the label. Every
// lookup below delegates there, so adding a policy is one registry line
// plus the enumerator — parse errors and `sst list scheds` follow
// automatically.

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
