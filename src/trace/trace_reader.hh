/**
 * @file
 * Trace replay from disk. TraceReader keeps the container open and, at
 * open, reads only the header and the stream table, checking the
 * structure: bounds, counts, trailing bytes, and that every stream ends
 * in the kEnd tag. TraceProgram is the OpSource replay frontend: it
 * decodes one stream through a fixed window refilled from the file, and
 * checks every op in that single pass (tag, varints, end-marker place,
 * trailing bytes), throwing TraceError on the first malformed one. A
 * stream nobody replays is never read. validate() runs that decode pass
 * over every stream up front.
 */

#ifndef SST_TRACE_TRACE_READER_HH
#define SST_TRACE_TRACE_READER_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/trace_format.hh"
#include "workload/op_source.hh"

namespace sst {

namespace trace {

/** The bytes of one container: an open file or an in-memory image.
 *  Defined in trace_reader.cc. */
class TraceBytes;

/**
 * Sequential reader over the byte range [begin, end) of a container
 * through a window of at most `capacity` bytes. want(n), for n up to
 * the capacity, makes at least min(n, remaining()) bytes available at
 * `in`, sliding the unread tail to the front and refilling the rest
 * with one read; parse from `in` after it. Reading past the range
 * throws TraceError (from `in`).
 */
class WindowCursor
{
  public:
    WindowCursor(std::shared_ptr<const TraceBytes> bytes,
                 std::uint64_t begin, std::uint64_t end,
                 std::size_t capacity);

    /** Cursor over the buffered bytes. */
    ByteCursor in{nullptr, 0};

    void
    want(std::size_t n)
    {
        if (in.remaining() < n && next_ != end_)
            refill();
    }

    /** Container offset of the next unread byte. */
    std::uint64_t offset() const { return next_ - in.remaining(); }

    /** Unread bytes of the range, buffered or not. */
    std::uint64_t remaining() const { return end_ - offset(); }

    /** Skip @p n bytes. Throws TraceError past the end of the range. */
    void skip(std::uint64_t n);

    /** Read @p n bytes. Throws TraceError past the end of the range. */
    std::string take(std::uint64_t n);

  private:
    void refill();

    std::shared_ptr<const TraceBytes> bytes_;
    std::unique_ptr<unsigned char[]> buf_;
    std::size_t capacity_;
    std::uint64_t next_; ///< offset of the first byte not yet buffered
    std::uint64_t end_;
};

} // namespace trace

/**
 * An open trace container whose header and stream table passed the
 * structural checks. Cheap to copy (copies share the open file).
 */
class TraceReader
{
  public:
    /** Open @p path. Throws TraceError on IO error or a malformed
     *  header or stream table. */
    explicit TraceReader(const std::string &path);

    /** Open an in-memory image (tests, future network transports).
     *  The same checks as a file. */
    static TraceReader fromBytes(std::string bytes);

    /**
     * Decode every stream completely, with the checks replay makes.
     * Throws TraceError on the first malformed op; `sst trace info`
     * runs it so a whole file is checked before anything replays it.
     */
    void validate() const;

    const trace::TraceMeta &meta() const { return meta_; }

    /** Streams in the file: nthreads parallel + ngroups baselines. */
    int nstreams() const { return static_cast<int>(streams_.size()); }

    /** Program groups of the recorded workload (1 for v1/v2 files). */
    int ngroups() const { return static_cast<int>(meta_.groups.size()); }

    std::uint64_t opCount(int stream) const;
    std::uint64_t streamBytes(int stream) const;

    /**
     * Replay source for parallel-run thread @p tid. Throws TraceError
     * when @p tid is outside the recorded thread count.
     */
    std::unique_ptr<OpSource> parallelSource(ThreadId tid) const;

    /** Replay source for group @p group's sequential reference
     *  program. Throws TraceError on an out-of-range group. */
    std::unique_ptr<OpSource> baselineSource(int group = 0) const;

    /**
     * Validate that this trace records exactly the workload described
     * by @p role and the expected @p groups (per-group thread counts
     * and profile fingerprints, in order) under @p policy /
     * @p sched_seed. Throws TraceError naming the first mismatched
     * group and axis — a recording of different per-thread profiles
     * never silently replays.
     */
    void requireCompatibleWorkload(WorkloadRole role,
                                   const std::vector<trace::TraceGroup> &groups,
                                   SchedPolicy policy,
                                   std::uint64_t sched_seed) const;

  private:
    /** Throw TraceError unless the trace was recorded under
     *  @p policy. */
    void requireSchedPolicy(SchedPolicy policy) const;

    struct StreamIndex
    {
        std::uint64_t offset = 0; ///< into the container
        std::uint64_t length = 0;
        std::uint64_t ops = 0;
    };

    explicit TraceReader(std::shared_ptr<const trace::TraceBytes> bytes);
    std::unique_ptr<OpSource> sourceFor(int stream) const;

    std::shared_ptr<const trace::TraceBytes> bytes_;
    trace::TraceMeta meta_;
    std::vector<StreamIndex> streams_;
};

/**
 * OpSource decoding one recorded stream through a fixed window, and
 * checking each op as it goes. Holds a share of the open container,
 * so it stays valid after the TraceReader is gone.
 */
class TraceProgram : public OpSource
{
  public:
    /** Decode window of one stream: a program never buffers more. */
    static constexpr std::size_t kWindowBytes = 64 * 1024;

    TraceProgram(std::shared_ptr<const trace::TraceBytes> bytes,
                 std::uint64_t offset, std::uint64_t length,
                 std::uint64_t ops);

    /** The next op. Throws TraceError on a malformed one. */
    Op nextOp() override;
    bool finished() const override { return finished_; }

    /** Stream bytes buffered right now (at most kWindowBytes). */
    std::size_t bufferedBytes() const { return window_.in.size; }

  private:
    trace::WindowCursor window_;
    trace::OpDecoder decoder_{nullptr, 0}; ///< delta state only
    std::uint64_t opsLeft_;
    bool finished_ = false;
};

} // namespace sst

#endif // SST_TRACE_TRACE_READER_HH
