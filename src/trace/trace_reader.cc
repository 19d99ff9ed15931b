#include "trace_reader.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace sst {
namespace trace {

/**
 * The bytes of one container, read by offset: an open file (pread) or
 * an in-memory image. The reader and every TraceProgram it hands out
 * share one, so the file stays open until the last of them is gone.
 */
class TraceBytes
{
  public:
    static std::shared_ptr<const TraceBytes>
    openFile(const std::string &path)
    {
        std::shared_ptr<TraceBytes> bytes(new TraceBytes);
        bytes->path_ = path;
        bytes->fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
        if (bytes->fd_ < 0)
            throw TraceError("cannot open trace file: " + path);
        struct stat st;
        if (::fstat(bytes->fd_, &st) != 0 || !S_ISREG(st.st_mode))
            throw TraceError("failed reading trace file: " + path);
        bytes->size_ = static_cast<std::uint64_t>(st.st_size);
        return bytes;
    }

    static std::shared_ptr<const TraceBytes>
    fromImage(std::string image)
    {
        std::shared_ptr<TraceBytes> bytes(new TraceBytes);
        bytes->size_ = image.size();
        bytes->image_ = std::move(image);
        return bytes;
    }

    ~TraceBytes()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    TraceBytes(const TraceBytes &) = delete;
    TraceBytes &operator=(const TraceBytes &) = delete;

    std::uint64_t size() const { return size_; }

    /** Copy the @p n bytes at @p offset (inside the container) to
     *  @p dst. Throws TraceError when the file cannot deliver them. */
    void
    read(std::uint64_t offset, void *dst, std::size_t n) const
    {
        if (fd_ < 0) {
            std::memcpy(dst, image_.data() + offset, n);
            return;
        }
        auto *out = static_cast<char *>(dst);
        while (n > 0) {
            const ssize_t got =
                ::pread(fd_, out, n, static_cast<off_t>(offset));
            if (got < 0 && errno == EINTR)
                continue;
            if (got <= 0) // an error, or the file shrank under us
                throw TraceError("failed reading trace file: " + path_);
            out += got;
            offset += static_cast<std::uint64_t>(got);
            n -= static_cast<std::size_t>(got);
        }
    }

  private:
    TraceBytes() = default;

    int fd_ = -1;
    std::string path_;
    std::string image_;
    std::uint64_t size_ = 0;
};

WindowCursor::WindowCursor(std::shared_ptr<const TraceBytes> bytes,
                           std::uint64_t begin, std::uint64_t end,
                           std::size_t capacity)
    : bytes_(std::move(bytes)), buf_(new unsigned char[capacity]),
      capacity_(capacity), next_(begin), end_(end)
{
    in = ByteCursor(buf_.get(), 0);
}

void
WindowCursor::refill()
{
    const std::size_t keep = in.remaining();
    std::memmove(buf_.get(), buf_.get() + in.pos, keep);
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(capacity_ - keep, end_ - next_));
    bytes_->read(next_, buf_.get() + keep, n);
    next_ += n;
    in = ByteCursor(buf_.get(), keep + n);
}

void
WindowCursor::skip(std::uint64_t n)
{
    if (n > remaining())
        throw TraceError("truncated trace: unexpected end of data");
    if (n <= in.remaining()) {
        in.pos += static_cast<std::size_t>(n);
        return;
    }
    next_ += n - in.remaining();
    in = ByteCursor(buf_.get(), 0);
}

std::string
WindowCursor::take(std::uint64_t n)
{
    if (n > remaining())
        throw TraceError("truncated trace: unexpected end of data");
    std::string out(static_cast<std::size_t>(n), '\0');
    const std::size_t buffered =
        static_cast<std::size_t>(std::min<std::uint64_t>(n, in.remaining()));
    std::memcpy(out.data(), in.data + in.pos, buffered);
    in.pos += buffered;
    if (buffered < out.size()) {
        bytes_->read(next_, out.data() + buffered, out.size() - buffered);
        next_ += out.size() - buffered;
    }
    return out;
}

} // namespace trace

namespace {

/** Window of the header and stream-table parse: the fixed header, and
 *  then each stream's last byte with the next table entry, take one
 *  read each. */
constexpr std::size_t kTableWindowBytes = 4096;

/** Magic through the scheduler seed: the fixed-size header fields. */
constexpr std::size_t kFixedHeaderBytes = 8 + 4 + 4 + 8 + 4 + 8;

/** Bytes of a varint, at most. */
constexpr std::size_t kMaxVarintBytes = 10;

} // namespace

TraceReader::TraceReader(const std::string &path)
    : TraceReader(trace::TraceBytes::openFile(path))
{
}

TraceReader
TraceReader::fromBytes(std::string bytes)
{
    return TraceReader(trace::TraceBytes::fromImage(std::move(bytes)));
}

TraceReader::TraceReader(std::shared_ptr<const trace::TraceBytes> bytes)
    : bytes_(std::move(bytes))
{
    trace::WindowCursor table(bytes_, 0, bytes_->size(),
                              kTableWindowBytes);
    trace::ByteCursor &cur = table.in; // refills keep this object

    table.want(kFixedHeaderBytes);
    if (cur.remaining() < sizeof(trace::kMagic) ||
        std::memcmp(cur.data, trace::kMagic, sizeof(trace::kMagic)) != 0)
        throw TraceError("not a trace file: bad magic");
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

    table.want(kMaxVarintBytes);
    const std::uint64_t label_len = cur.getVarint();
    if (label_len > table.remaining())
        throw TraceError("truncated trace: label overruns the file");
    meta_.label = table.take(label_len);

    if (meta_.version >= 3) {
        table.want(2 * kMaxVarintBytes);
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
            table.want(2 * kMaxVarintBytes + 8);
            const std::uint64_t gthreads = cur.getVarint();
            if (gthreads < 1 || gthreads > trace::kMaxThreads)
                throw TraceError("malformed trace: group thread count " +
                                 std::to_string(gthreads) +
                                 " out of range");
            group.nthreads = static_cast<int>(gthreads);
            group.profileHash = cur.getU64();
            const std::uint64_t glabel_len = cur.getVarint();
            if (glabel_len > table.remaining())
                throw TraceError(
                    "truncated trace: group label overruns the file");
            group.label = table.take(glabel_len);
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

    // Stream table: each block is (opCount, byteLength, bytes). Only the
    // structure is checked here; the ops are checked as they decode.
    streams_.resize(static_cast<std::size_t>(meta_.nthreads) +
                    meta_.groups.size());
    for (StreamIndex &s : streams_) {
        table.want(2 * kMaxVarintBytes);
        s.ops = cur.getVarint();
        s.length = cur.getVarint();
        if (s.length > table.remaining())
            throw TraceError("truncated trace: stream overruns the file");
        if (s.ops == 0)
            throw TraceError("malformed trace: empty op stream");
        if (s.length < s.ops) // every op takes at least its tag byte
            throw TraceError("malformed trace: stream of " +
                             std::to_string(s.ops) + " ops in " +
                             std::to_string(s.length) + " bytes");
        s.offset = table.offset();
        table.skip(s.length - 1);
        table.want(1);
        if (cur.getByte() != static_cast<std::uint8_t>(OpType::kEnd))
            throw TraceError("malformed trace: stream does not end in "
                             "an end marker");
    }
    if (table.remaining() != 0)
        throw TraceError("malformed trace: trailing bytes after streams");
}

void
TraceReader::validate() const
{
    for (const StreamIndex &s : streams_) {
        TraceProgram program(bytes_, s.offset, s.length, s.ops);
        while (!program.finished())
            program.nextOp();
    }
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
    return std::make_unique<TraceProgram>(bytes_, s.offset, s.length,
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
TraceReader::requireSchedPolicy(SchedPolicy policy) const
{
    if (policy != meta_.schedPolicy) {
        throw TraceError(
            std::string("trace scheduler-policy mismatch: trace '") +
            meta_.label + "' was recorded under --sched " +
            schedPolicyLabel(meta_.schedPolicy) +
            ", replay requested --sched " + schedPolicyLabel(policy) +
            " (re-record the trace under that policy)");
    }
}

TraceProgram::TraceProgram(std::shared_ptr<const trace::TraceBytes> bytes,
                           std::uint64_t offset, std::uint64_t length,
                           std::uint64_t ops)
    : window_(std::move(bytes), offset, offset + length,
              static_cast<std::size_t>(
                  std::min<std::uint64_t>(length, kWindowBytes))),
      opsLeft_(ops)
{
}

Op
TraceProgram::nextOp()
{
    if (finished_)
        return Op::end();
    if (opsLeft_ == 0) // an earlier call threw on this stream
        throw TraceError("malformed trace: stream has no end marker");
    window_.want(trace::kMaxOpBytes);
    Op op;
    try {
        op = decoder_.decode(window_.in);
    } catch (const TraceError &e) {
        // The table bounds each stream, so running out of its bytes
        // mid-op is a malformed stream, not a short file.
        if (window_.remaining() != 0)
            throw;
        throw TraceError(std::string("malformed trace: bad last op in "
                                     "stream: ") +
                         e.what());
    }
    --opsLeft_;
    if ((op.type == OpType::kEnd) != (opsLeft_ == 0))
        throw TraceError("malformed trace: stream end marker misplaced");
    if (op.type == OpType::kEnd) {
        if (window_.remaining() != 0)
            throw TraceError("malformed trace: trailing bytes in stream");
        finished_ = true;
    }
    return op;
}

} // namespace sst
