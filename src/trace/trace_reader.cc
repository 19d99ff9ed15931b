#include "trace_reader.hh"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace sst {

namespace {

/** The file's bytes in one buffer sized to the file, filled by one
 *  read: the image is the largest allocation a replay makes, so it is
 *  never regrown or copied. */
std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw TraceError("cannot open trace file: " + path);
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (ec)
        throw TraceError("failed reading trace file: " + path);
    std::string data(static_cast<std::size_t>(size), '\0');
    if (!in.read(data.data(), static_cast<std::streamsize>(size)))
        throw TraceError("failed reading trace file: " + path);
    return data;
}

} // namespace

TraceReader::TraceReader(const std::string &path)
    : data_(std::make_shared<const std::string>(readWholeFile(path)))
{
    parse();
}

TraceReader
TraceReader::fromBytes(std::string bytes)
{
    TraceReader reader;
    reader.data_ =
        std::make_shared<const std::string>(std::move(bytes));
    reader.parse();
    return reader;
}

void
TraceReader::parse()
{
    const std::string &data = *data_;
    trace::ByteCursor cur(data.data(), data.size());

    if (cur.remaining() < sizeof(trace::kMagic) ||
        std::memcmp(data.data(), trace::kMagic,
                    sizeof(trace::kMagic)) != 0) {
        throw TraceError("not a trace file: bad magic");
    }
    cur.pos = sizeof(trace::kMagic);

    meta_.version = cur.getU32();
    if (meta_.version < trace::kMinTraceVersion ||
        meta_.version > trace::kTraceVersion) {
        throw TraceError("unsupported trace format version " +
                         std::to_string(meta_.version) + " (expected " +
                         std::to_string(trace::kMinTraceVersion) + ".." +
                         std::to_string(trace::kTraceVersion) + ")");
    }
    const std::uint32_t nthreads = cur.getU32();
    if (nthreads < 1 || nthreads > trace::kMaxThreads) {
        throw TraceError("malformed trace: thread count " +
                         std::to_string(nthreads) + " out of range");
    }
    meta_.nthreads = static_cast<int>(nthreads);
    meta_.profileHash = cur.getU64();
    if (meta_.version >= 2) {
        try {
            meta_.schedPolicy = schedPolicyFromRaw(cur.getU32());
        } catch (const std::invalid_argument &e) {
            throw TraceError(std::string("malformed trace: ") + e.what());
        }
        meta_.schedSeed = cur.getU64();
    } else {
        // v1 predates pluggable scheduling; the hard-wired scheduler
        // was affinity-fifo with no RNG stream.
        meta_.schedPolicy = SchedPolicy::kAffinityFifo;
        meta_.schedSeed = 0;
    }

    const std::uint64_t label_len = cur.getVarint();
    if (label_len > cur.remaining())
        throw TraceError("truncated trace: label overruns the file");
    meta_.label.assign(data, cur.pos, label_len);
    cur.pos += static_cast<std::size_t>(label_len);

    if (meta_.version >= 3) {
        try {
            meta_.role = workloadRoleFromRaw(
                static_cast<std::uint32_t>(cur.getVarint()));
        } catch (const std::invalid_argument &e) {
            throw TraceError(std::string("malformed trace: ") + e.what());
        }
        const std::uint64_t ngroups = cur.getVarint();
        if (ngroups < 1 ||
            ngroups > static_cast<std::uint64_t>(kMaxWorkloadGroups)) {
            throw TraceError("malformed trace: workload group count " +
                             std::to_string(ngroups) + " out of range");
        }
        int group_threads = 0;
        for (std::uint64_t g = 0; g < ngroups; ++g) {
            trace::TraceGroup group;
            const std::uint64_t gthreads = cur.getVarint();
            if (gthreads < 1 || gthreads > trace::kMaxThreads)
                throw TraceError("malformed trace: group thread count " +
                                 std::to_string(gthreads) +
                                 " out of range");
            group.nthreads = static_cast<int>(gthreads);
            group.profileHash = cur.getU64();
            const std::uint64_t glabel_len = cur.getVarint();
            if (glabel_len > cur.remaining())
                throw TraceError(
                    "truncated trace: group label overruns the file");
            group.label.assign(data, cur.pos, glabel_len);
            cur.pos += static_cast<std::size_t>(glabel_len);
            group_threads += group.nthreads;
            meta_.groups.push_back(std::move(group));
        }
        if (group_threads != meta_.nthreads)
            throw TraceError("malformed trace: group thread counts sum "
                             "to " + std::to_string(group_threads) +
                             ", header says " +
                             std::to_string(meta_.nthreads));
        if (meta_.role == WorkloadRole::kReplicated &&
            meta_.groups.size() != 1) {
            throw TraceError("malformed trace: replicated workload with " +
                             std::to_string(meta_.groups.size()) +
                             " groups");
        }
    } else {
        // Pre-workload containers are homogeneous by construction: one
        // replicated group mirroring the top-level fields.
        meta_.role = WorkloadRole::kReplicated;
        meta_.groups.push_back(trace::TraceGroup{
            meta_.nthreads, meta_.profileHash, meta_.label});
    }

    // Stream table: each block is (opCount, byteLength, bytes). Decode
    // every stream completely up front so any truncation or corruption
    // surfaces here as a TraceError, not mid-simulation.
    streams_.resize(static_cast<std::size_t>(meta_.nthreads) +
                    meta_.groups.size());
    for (StreamIndex &s : streams_) {
        s.ops = cur.getVarint();
        const std::uint64_t len = cur.getVarint();
        if (len > cur.remaining())
            throw TraceError("truncated trace: stream overruns the file");
        s.offset = cur.pos;
        s.length = static_cast<std::size_t>(len);
        cur.pos += s.length;

        if (s.ops == 0)
            throw TraceError("malformed trace: empty op stream");
        trace::OpDecoder dec(data.data() + s.offset, s.length);
        for (std::uint64_t i = 0; i < s.ops; ++i) {
            const Op op = dec.decode();
            const bool last = (i + 1 == s.ops);
            if ((op.type == OpType::kEnd) != last) {
                throw TraceError("malformed trace: stream end marker "
                                 "misplaced");
            }
        }
        if (dec.cursor.remaining() != 0)
            throw TraceError("malformed trace: trailing bytes in stream");
    }
    if (cur.remaining() != 0)
        throw TraceError("malformed trace: trailing bytes after streams");
}

std::uint64_t
TraceReader::opCount(int stream) const
{
    if (stream < 0 || stream >= nstreams())
        throw TraceError("stream index out of range");
    return streams_[static_cast<std::size_t>(stream)].ops;
}

std::uint64_t
TraceReader::streamBytes(int stream) const
{
    if (stream < 0 || stream >= nstreams())
        throw TraceError("stream index out of range");
    return streams_[static_cast<std::size_t>(stream)].length;
}

std::unique_ptr<OpSource>
TraceReader::sourceFor(int stream) const
{
    const StreamIndex &s = streams_[static_cast<std::size_t>(stream)];
    return std::make_unique<TraceProgram>(data_, s.offset, s.length,
                                          s.ops);
}

std::unique_ptr<OpSource>
TraceReader::parallelSource(ThreadId tid) const
{
    if (tid < 0 || tid >= meta_.nthreads) {
        throw TraceError(
            "trace replay thread " + std::to_string(tid) +
            " out of range: trace was recorded with " +
            std::to_string(meta_.nthreads) + " threads");
    }
    return sourceFor(tid);
}

std::unique_ptr<OpSource>
TraceReader::baselineSource(int group) const
{
    if (group < 0 || group >= ngroups()) {
        throw TraceError(
            "trace baseline group " + std::to_string(group) +
            " out of range: trace has " + std::to_string(ngroups()) +
            " program groups");
    }
    return sourceFor(meta_.nthreads + group);
}

void
TraceReader::requireCompatible(std::uint64_t profile_hash, int nthreads,
                               SchedPolicy policy,
                               std::uint64_t sched_seed) const
{
    if (meta_.groups.size() != 1) {
        throw TraceError(
            "trace workload mismatch: trace '" + meta_.label +
            "' records a " + std::string(workloadRoleName(meta_.role)) +
            " of " + std::to_string(meta_.groups.size()) +
            " programs, replay requested a single profile");
    }
    if (nthreads != meta_.nthreads) {
        throw TraceError(
            "trace thread-count mismatch: trace '" + meta_.label +
            "' was recorded with " + std::to_string(meta_.nthreads) +
            " threads, replay requested " + std::to_string(nthreads));
    }
    if (profile_hash != meta_.profileHash) {
        throw TraceError(
            "trace profile mismatch: trace '" + meta_.label +
            "' was recorded from a different profile "
            "(stale trace? re-record it)");
    }
    requireSchedPolicy(policy);
    if (meta_.schedPolicy == SchedPolicy::kRandom &&
        sched_seed != meta_.schedSeed) {
        // Deterministic policies ignore the seed, so only random
        // recordings are seed-specific.
        throw TraceError(
            "trace scheduler-seed mismatch: trace '" + meta_.label +
            "' was recorded with --sched-seed " +
            std::to_string(meta_.schedSeed) + ", replay requested " +
            std::to_string(sched_seed) + " (re-record the trace)");
    }
}

void
TraceReader::requireCompatibleWorkload(
    WorkloadRole role, const std::vector<trace::TraceGroup> &groups,
    SchedPolicy policy, std::uint64_t sched_seed) const
{
    if (role != meta_.role) {
        throw TraceError(
            "trace workload-role mismatch: trace '" + meta_.label +
            "' records a " + std::string(workloadRoleName(meta_.role)) +
            " workload, replay requested " +
            std::string(workloadRoleName(role)));
    }
    if (groups.size() != meta_.groups.size()) {
        throw TraceError(
            "trace workload mismatch: trace '" + meta_.label +
            "' records " + std::to_string(meta_.groups.size()) +
            " program groups, replay requested " +
            std::to_string(groups.size()));
    }
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const trace::TraceGroup &want = groups[g];
        const trace::TraceGroup &have = meta_.groups[g];
        if (want.nthreads != have.nthreads) {
            throw TraceError(
                "trace thread-count mismatch in group " +
                std::to_string(g) + " ('" + have.label +
                "'): trace was recorded with " +
                std::to_string(have.nthreads) + " threads, replay "
                "requested " + std::to_string(want.nthreads));
        }
        if (want.profileHash != have.profileHash) {
            throw TraceError(
                "trace per-thread-profile mismatch in group " +
                std::to_string(g) + ": trace '" + meta_.label +
                "' recorded '" + have.label +
                "' from a different profile than the requested '" +
                want.label + "' (stale trace? re-record it)");
        }
    }
    requireSchedPolicy(policy);
    if (meta_.schedPolicy == SchedPolicy::kRandom &&
        sched_seed != meta_.schedSeed) {
        throw TraceError(
            "trace scheduler-seed mismatch: trace '" + meta_.label +
            "' was recorded with --sched-seed " +
            std::to_string(meta_.schedSeed) + ", replay requested " +
            std::to_string(sched_seed) + " (re-record the trace)");
    }
}

void
TraceReader::requireSchedPolicy(SchedPolicy policy) const
{
    if (policy != meta_.schedPolicy) {
        throw TraceError(
            std::string("trace scheduler-policy mismatch: trace '") +
            meta_.label + "' was recorded under --sched " +
            schedPolicyLabel(meta_.schedPolicy) +
            ", replay requested --sched " + schedPolicyLabel(policy) +
            " (re-record the trace or drop the flag)");
    }
}

TraceProgram::TraceProgram(std::shared_ptr<const std::string> data,
                           std::size_t offset, std::size_t length,
                           std::uint64_t ops)
    : data_(std::move(data)),
      decoder_(data_->data() + offset, length), opsLeft_(ops)
{
}

Op
TraceProgram::nextOp()
{
    if (finished_)
        return Op::end();
    // parse() verified the stream decodes cleanly and ends in kEnd, so
    // these throws are unreachable for a reader-produced program; they
    // guard hand-constructed instances.
    if (opsLeft_ == 0)
        throw TraceError("trace stream exhausted without end marker");
    const Op op = decoder_.decode();
    --opsLeft_;
    if (op.type == OpType::kEnd)
        finished_ = true;
    return op;
}

} // namespace sst
