/**
 * @file
 * Fundamental scalar types shared by every module of the speedup-stacks
 * toolkit. Mirrors the conventions of architecture simulators: cycles,
 * addresses and identifiers are plain integral types with descriptive
 * aliases so that interfaces document themselves.
 */

#ifndef SST_UTIL_TYPES_HH
#define SST_UTIL_TYPES_HH

#include <cstdint>

namespace sst {

/** Simulated clock cycles (global monotonic counter). */
using Cycles = std::uint64_t;

/** Byte address in the simulated physical address space. */
using Addr = std::uint64_t;

/** Program counter of a simulated instruction (for spin detection). */
using PC = std::uint64_t;

/** Hardware core identifier, 0-based. */
using CoreId = int;

/** Software thread identifier, 0-based. */
using ThreadId = int;

/** Lock variable identifier within a workload. */
using LockId = int;

/** Barrier identifier within a workload. */
using BarrierId = int;

/** Sentinel for "no core" / "no thread". */
inline constexpr int kInvalidId = -1;

/** Cache line size used throughout the memory hierarchy (bytes). */
inline constexpr Addr kLineBytes = 64;

/** Returns the cache line number of byte address @p a. */
constexpr Addr
lineNum(Addr a)
{
    return a / kLineBytes;
}

} // namespace sst

#endif // SST_UTIL_TYPES_HH
