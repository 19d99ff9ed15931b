/**
 * @file
 * The binary op-trace container format. One trace file captures the op
 * streams of one (workload, thread count) run so the simulator can be
 * re-driven from the recording without regenerating the workload:
 *
 *   offset 0   magic            8 bytes, "SSTTRACE"
 *              version          u32 LE (kTraceVersion)
 *              nthreads         u32 LE, threads of the parallel run
 *              profileHash      u64 LE, fingerprint of the workload
 *                               (the single profile's hash for
 *                               homogeneous recordings)
 *              schedPolicy      u32 LE, scheduler policy recorded under
 *              schedSeed        u64 LE, scheduler RNG stream (random
 *                               policy); both fields version >= 2 only —
 *                               v1 files are read as affinity-fifo /
 *                               seed 0, the only configuration then
 *              label            varint length + UTF-8 bytes (display only)
 *              workload         version >= 3 only: varint role
 *                               (replicated|mix|pipeline), varint group
 *                               count, then per group varint nthreads,
 *                               u64 per-group profile fingerprint,
 *                               varint length + label bytes. v1/v2
 *                               files read as one replicated group —
 *                               the homogeneous WorkloadSpec.
 *              streams          nthreads + ngroups stream blocks
 *
 * Stream block:  varint opCount, varint byteLength, byteLength bytes.
 * Streams 0..nthreads-1 are the parallel run's per-thread op streams;
 * streams nthreads..nthreads+ngroups-1 are each group's 1-thread
 * sequential reference program (one for v1/v2), so a trace is
 * self-contained for speedup-stack replay: Tp and the per-program Ts
 * runs the mix baseline sums all re-simulate from the file.
 *
 * Op encoding (per stream, stateful): a 1-byte OpType tag, then
 *   kCompute                    varint count
 *   kLoad / kStore              zigzag-varint delta(addr), delta(pc)
 *                               against the stream's previous load/store
 *   kLockAcquire/Release,
 *   kBarrier                    varint id
 *   kRoiBegin, kEnd             tag only (kEnd terminates the stream)
 *
 * Delta + varint coding exploits the op DSL's locality (streaming
 * addresses advance by one line; PCs cycle through a small window), so
 * typical streams take 2-4 bytes per op versus 24 for the in-memory Op.
 *
 * All decode errors (truncation, bad magic/version/tag, stream
 * overruns) raise TraceError — never UB, never a crash.
 */

#ifndef SST_TRACE_TRACE_FORMAT_HH
#define SST_TRACE_TRACE_FORMAT_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include <vector>

#include "sched/policy.hh"
#include "util/types.hh"
#include "workload/op.hh"
#include "workload/workload_spec.hh"

namespace sst {

/** Malformed or incompatible trace data. */
class TraceError : public std::runtime_error
{
  public:
    explicit TraceError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

namespace trace {

/** File magic, exactly 8 bytes. */
inline constexpr char kMagic[8] = {'S', 'S', 'T', 'T', 'R', 'A', 'C', 'E'};

/** Bump on any incompatible change to the container or op encoding.
 *  v2 added the schedPolicy header field; v3 the per-group workload
 *  section + per-group baseline streams. v1/v2 files remain readable
 *  (as homogeneous recordings). */
inline constexpr std::uint32_t kTraceVersion = 3;

/** Oldest container version the reader still accepts. */
inline constexpr std::uint32_t kMinTraceVersion = 1;

/** Sanity bound on the recorded thread count. */
inline constexpr std::uint32_t kMaxThreads = 4096;

/** Longest legal op encoding: a kLoad/kStore tag plus two 10-byte
 *  varints. A decoder holding this many bytes never runs out mid-op. */
inline constexpr std::size_t kMaxOpBytes = 1 + 10 + 10;

/** Canonical trace file extension. */
inline constexpr const char *kFileSuffix = ".sstt";

/** Identity of one program group of a recorded workload. */
struct TraceGroup
{
    int nthreads = 0;              ///< threads the group ran with
    std::uint64_t profileHash = 0; ///< fingerprint of the group's profile
    std::string label;             ///< group profile label (display only)
};

/** Identity of a recorded run (everything in the header). */
struct TraceMeta
{
    std::uint32_t version = kTraceVersion;
    int nthreads = 0;              ///< threads of the parallel run
    std::uint64_t profileHash = 0; ///< fingerprint of the workload
    /** Scheduler policy + RNG stream the run was recorded under;
     *  replay re-simulates with both so the recorded stacks reproduce
     *  bit for bit. */
    SchedPolicy schedPolicy = SchedPolicy::kAffinityFifo;
    std::uint64_t schedSeed = 0;
    std::string label;             ///< human-readable workload label

    /** How the recorded workload's groups relate (v3; earlier
     *  containers always read as replicated). */
    WorkloadRole role = WorkloadRole::kReplicated;
    /** Per-group identities, in group order. The writer defaults an
     *  empty vector to the single homogeneous group (nthreads,
     *  profileHash, label). */
    std::vector<TraceGroup> groups;
};

// ---- primitive coders ------------------------------------------------------

/** Append @p v LEB128-encoded (7 bits per byte, LSB first). */
void putVarint(std::string &out, std::uint64_t v);

/** Append @p v zigzag-mapped then LEB128-encoded. */
void putSvarint(std::string &out, std::int64_t v);

/**
 * Zigzag-map the two's-complement bit pattern of a 64-bit delta
 * (computed with well-defined unsigned wraparound, never signed
 * arithmetic) so small deltas of either sign encode in few bytes.
 */
constexpr std::uint64_t
zigzagBits(std::uint64_t delta)
{
    return (delta << 1) ^ (0 - (delta >> 63));
}

/** Inverse of zigzagBits(). */
constexpr std::uint64_t
unzigzagBits(std::uint64_t coded)
{
    return (coded >> 1) ^ (0 - (coded & 1));
}

/** Append @p v as 4 little-endian bytes. */
void putU32(std::string &out, std::uint32_t v);

/** Append @p v as 8 little-endian bytes. */
void putU64(std::string &out, std::uint64_t v);

/**
 * Bounds-checked cursor over encoded bytes. All getters throw
 * TraceError on overrun instead of reading past the buffer.
 */
struct ByteCursor
{
    const unsigned char *data = nullptr;
    std::size_t size = 0;
    std::size_t pos = 0;

    ByteCursor(const void *d, std::size_t n)
        : data(static_cast<const unsigned char *>(d)), size(n)
    {
    }

    std::size_t remaining() const { return size - pos; }

    std::uint8_t getByte();
    std::uint32_t getU32();
    std::uint64_t getU64();
    std::uint64_t getVarint();
    std::int64_t getSvarint();
};

// ---- op coders -------------------------------------------------------------

/**
 * Stateful encoder of one stream's ops (delta state for addresses and
 * PCs). Append-only; the encoded bytes accumulate in `bytes`, one
 * append per op.
 */
struct OpEncoder
{
    std::string bytes;
    std::uint64_t opCount = 0;
    Addr prevAddr = 0;
    PC prevPc = 0;
    bool sawEnd = false;

    void encode(const Op &op);
};

/**
 * Stateful decoder mirroring OpEncoder. decode() must be called exactly
 * opCount times; the final op of a well-formed stream is kEnd.
 */
struct OpDecoder
{
    ByteCursor cursor;
    Addr prevAddr = 0;
    PC prevPc = 0;

    OpDecoder(const void *data, std::size_t size) : cursor(data, size) {}

    /** Decode the next op from `cursor`. */
    Op decode() { return decode(cursor); }

    /** Decode the next op from @p in with this decoder's delta state
     *  (a windowed reader hands in its window). Checks the tag and
     *  every varint; throws TraceError on malformed bytes. */
    Op decode(ByteCursor &in);
};

} // namespace trace
} // namespace sst

#endif // SST_TRACE_TRACE_FORMAT_HH
