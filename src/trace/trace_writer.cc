#include "trace_writer.hh"

#include <filesystem>
#include <fstream>

#include "util/logging.hh"

namespace sst {

namespace {

/** A stream block's prefix: its op count and byte length. */
std::string
blockPrefix(const trace::OpEncoder &enc)
{
    std::string out;
    trace::putVarint(out, enc.opCount);
    trace::putVarint(out, enc.bytes.size());
    return out;
}

} // namespace

TraceWriter::TraceWriter(trace::TraceMeta meta) : meta_(std::move(meta))
{
    sstAssert(meta_.nthreads >= 1 &&
                  meta_.nthreads <=
                      static_cast<int>(trace::kMaxThreads),
              "TraceWriter: thread count out of range");
    meta_.version = trace::kTraceVersion;
    if (meta_.groups.empty()) {
        // Homogeneous default: one replicated group mirroring the
        // top-level fields, so pre-WorkloadSpec call sites need not
        // know about groups.
        meta_.groups.push_back(trace::TraceGroup{
            meta_.nthreads, meta_.profileHash, meta_.label});
        meta_.role = WorkloadRole::kReplicated;
    }
    int group_threads = 0;
    for (const trace::TraceGroup &g : meta_.groups)
        group_threads += g.nthreads;
    sstAssert(group_threads == meta_.nthreads,
              "TraceWriter: group thread counts must sum to nthreads");
    streams_.resize(static_cast<std::size_t>(meta_.nthreads) +
                    meta_.groups.size());
    shared_.resize(streams_.size());
}

void
TraceWriter::append(int stream, const Op &op)
{
    sstAssert(stream >= 0 &&
                  stream < static_cast<int>(streams_.size()),
              "TraceWriter: stream index out of range");
    trace::OpEncoder &enc = streams_[static_cast<std::size_t>(stream)];
    sstAssert(!enc.sawEnd && !shared_[static_cast<std::size_t>(stream)],
              "TraceWriter: append after stream end");
    enc.encode(op);
}

void
TraceWriter::setStream(int stream,
                       std::shared_ptr<const trace::OpEncoder> encoded)
{
    sstAssert(stream >= 0 &&
                  stream < static_cast<int>(streams_.size()),
              "TraceWriter: stream index out of range");
    const std::size_t s = static_cast<std::size_t>(stream);
    sstAssert(streams_[s].opCount == 0 && !shared_[s] && encoded,
              "TraceWriter: setStream on a non-empty stream");
    shared_[s] = std::move(encoded);
}

const trace::OpEncoder &
TraceWriter::encoderOf(int stream) const
{
    sstAssert(stream >= 0 &&
                  stream < static_cast<int>(streams_.size()),
              "TraceWriter: stream index out of range");
    const std::size_t s = static_cast<std::size_t>(stream);
    return shared_[s] ? *shared_[s] : streams_[s];
}

std::uint64_t
TraceWriter::opCount(int stream) const
{
    return encoderOf(stream).opCount;
}

std::string
TraceWriter::header() const
{
    std::string out;
    out.append(trace::kMagic, sizeof(trace::kMagic));
    trace::putU32(out, meta_.version);
    trace::putU32(out, static_cast<std::uint32_t>(meta_.nthreads));
    trace::putU64(out, meta_.profileHash);
    trace::putU32(out, static_cast<std::uint32_t>(meta_.schedPolicy));
    trace::putU64(out, meta_.schedSeed);
    trace::putVarint(out, meta_.label.size());
    out += meta_.label;
    trace::putVarint(out, static_cast<std::uint64_t>(meta_.role));
    trace::putVarint(out, meta_.groups.size());
    for (const trace::TraceGroup &g : meta_.groups) {
        trace::putVarint(out, static_cast<std::uint64_t>(g.nthreads));
        trace::putU64(out, g.profileHash);
        trace::putVarint(out, g.label.size());
        out += g.label;
    }
    return out;
}

std::string
TraceWriter::serialize() const
{
    std::string out = header();
    for (int s = 0; s < static_cast<int>(streams_.size()); ++s) {
        const trace::OpEncoder &enc = encoderOf(s);
        out += blockPrefix(enc);
        out += enc.bytes;
    }
    return out;
}

void
TraceWriter::writeFile(const std::string &path) const
{
    // Publish with temp-file + atomic rename (like the result cache): a
    // crash mid-write leaves only a `.tmp` stub the replay paths never
    // look at, and re-recording over a good trace cannot destroy it.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw TraceError("cannot open trace file for writing: " +
                             tmp);
        const std::string head = header();
        out.write(head.data(), static_cast<std::streamsize>(head.size()));
        for (int s = 0; s < static_cast<int>(streams_.size()); ++s) {
            const trace::OpEncoder &enc = encoderOf(s);
            const std::string prefix = blockPrefix(enc);
            out.write(prefix.data(),
                      static_cast<std::streamsize>(prefix.size()));
            out.write(enc.bytes.data(),
                      static_cast<std::streamsize>(enc.bytes.size()));
        }
        out.flush();
        if (!out)
            throw TraceError("failed writing trace file: " + tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        throw TraceError("cannot publish trace file " + path + ": " +
                         ec.message());
    }
}

} // namespace sst
