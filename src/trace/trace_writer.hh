/**
 * @file
 * Trace capture: TraceWriter accumulates the encoded per-thread streams
 * of one run in memory (or shares already-encoded ones) and writes the
 * versioned container on finish; RecordingSource is the capture shim that wraps any OpSource
 * and appends every op it hands to the simulator. Because the System
 * pulls each op exactly once, wrapping every thread's source records a
 * bit-exact copy of the executed workload.
 */

#ifndef SST_TRACE_TRACE_WRITER_HH
#define SST_TRACE_TRACE_WRITER_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/trace_format.hh"
#include "workload/op_source.hh"

namespace sst {

/**
 * Builds one trace file: meta.nthreads parallel streams (indices
 * 0..nthreads-1) plus one sequential baseline stream per workload
 * group (indices nthreads..nthreads+ngroups-1). The constructor
 * defaults an empty meta.groups to the single homogeneous group.
 */
class TraceWriter
{
  public:
    explicit TraceWriter(trace::TraceMeta meta);

    const trace::TraceMeta &meta() const { return meta_; }

    /** Stream index of group @p group's 1-thread reference program. */
    int
    baselineStream(int group = 0) const
    {
        return meta_.nthreads + group;
    }

    /** Append one op to stream @p stream (in stream order). */
    void append(int stream, const Op &op);

    /**
     * Use the complete, already-encoded @p encoded as stream @p stream
     * (shared, not copied). The stream must be empty, and nothing may
     * be appended to it afterwards.
     */
    void setStream(int stream,
                   std::shared_ptr<const trace::OpEncoder> encoded);

    /** Ops recorded into stream @p stream so far. */
    std::uint64_t opCount(int stream) const;

    /** Serialize the complete container (header + all streams). */
    std::string serialize() const;

    /** Write the container to @p path, the header and then each stream
     *  straight from its encoder. Throws TraceError on IO failure. */
    void writeFile(const std::string &path) const;

  private:
    /** The header bytes, up to the first stream block. */
    std::string header() const;

    /** The encoder of stream @p stream (its shared one once set). */
    const trace::OpEncoder &encoderOf(int stream) const;

    trace::TraceMeta meta_;
    std::vector<trace::OpEncoder> streams_;
    /** Per stream: the encoder setStream() shared, or null. */
    std::vector<std::shared_ptr<const trace::OpEncoder>> shared_;
};

/**
 * Capture shim: forwards an inner op source unchanged while appending
 * every delivered op to a TraceWriter stream. The writer must outlive
 * the source.
 */
class RecordingSource : public OpSource
{
  public:
    RecordingSource(std::unique_ptr<OpSource> inner, TraceWriter &writer,
                    int stream)
        : inner_(std::move(inner)), writer_(writer), stream_(stream)
    {
    }

    Op
    nextOp() override
    {
        const Op op = inner_->nextOp();
        writer_.append(stream_, op);
        return op;
    }

    bool finished() const override { return inner_->finished(); }

  private:
    std::unique_ptr<OpSource> inner_;
    TraceWriter &writer_;
    int stream_;
};

} // namespace sst

#endif // SST_TRACE_TRACE_WRITER_HH
