/**
 * @file
 * Tests of the binary trace container and op encoding: primitive coder
 * round trips, delta encoding, header validation, and — critically —
 * robustness: truncated files, corrupt magic, unsupported versions,
 * thread-count and profile mismatches must all raise clean TraceErrors,
 * never crash or feed garbage ops into the simulator.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <memory>

#include "trace/trace_format.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_run.hh"
#include "trace/trace_writer.hh"
#include "tests/test_util.hh"

namespace sst {
namespace {

using trace::ByteCursor;
using trace::OpDecoder;
using trace::OpEncoder;
using trace::TraceMeta;

// ---- primitive coders ------------------------------------------------------

TEST(TraceFormat, VarintRoundTrip)
{
    const std::uint64_t values[] = {0,   1,    127,  128,   16383, 16384,
                                    1ULL << 32, ~std::uint64_t(0)};
    std::string bytes;
    for (const std::uint64_t v : values)
        trace::putVarint(bytes, v);
    ByteCursor cur(bytes.data(), bytes.size());
    for (const std::uint64_t v : values)
        EXPECT_EQ(cur.getVarint(), v);
    EXPECT_EQ(cur.remaining(), 0u);
}

TEST(TraceFormat, SvarintRoundTrip)
{
    const std::int64_t values[] = {0, 1, -1, 63, -64, 64, -65,
                                   INT64_MAX, INT64_MIN};
    std::string bytes;
    for (const std::int64_t v : values)
        trace::putSvarint(bytes, v);
    ByteCursor cur(bytes.data(), bytes.size());
    for (const std::int64_t v : values)
        EXPECT_EQ(cur.getSvarint(), v);
}

TEST(TraceFormat, VarintTruncationThrows)
{
    std::string bytes;
    trace::putVarint(bytes, 1ULL << 40);
    bytes.resize(bytes.size() - 1); // drop the terminating byte
    ByteCursor cur(bytes.data(), bytes.size());
    EXPECT_THROW(cur.getVarint(), TraceError);
}

TEST(TraceFormat, OverlongVarintThrows)
{
    const std::string bytes(11, '\x80'); // never terminates within 64 bits
    ByteCursor cur(bytes.data(), bytes.size());
    EXPECT_THROW(cur.getVarint(), TraceError);
}

TEST(TraceFormat, TenthByteOverflowBitsThrow)
{
    // Nine continuation bytes put the 10th byte at shift 63, where only
    // bit 0 fits: value bits beyond it must throw, not silently vanish.
    std::string overflow(9, '\x80');
    overflow += '\x7e';
    ByteCursor bad(overflow.data(), overflow.size());
    EXPECT_THROW(bad.getVarint(), TraceError);

    std::string max(9, '\x80');
    max += '\x01'; // exactly bit 63: the largest legal encoding
    ByteCursor ok(max.data(), max.size());
    EXPECT_EQ(ok.getVarint(), 1ULL << 63);
}

// ---- op coding -------------------------------------------------------------

std::vector<Op>
sampleOps()
{
    return {Op::compute(17),
            Op::load(addrmap::privateBase(0) + 64, 0x40000),
            Op::store(addrmap::privateBase(0) + 128, 0x40004),
            Op::load(addrmap::kSharedBase, 0x40008),
            Op::lockAcquire(3),
            Op::store(addrmap::lockDataBase(3) + 8, 0x40010),
            Op::lockRelease(3),
            Op::barrier(kWarmupBarrierId),
            Op::roiBegin(),
            Op::compute(1),
            Op::end()};
}

TEST(TraceFormat, OpStreamRoundTripsAllTypes)
{
    const std::vector<Op> ops = sampleOps();
    OpEncoder enc;
    for (const Op &op : ops)
        enc.encode(op);
    EXPECT_TRUE(enc.sawEnd);
    EXPECT_EQ(enc.opCount, ops.size());

    OpDecoder dec(enc.bytes.data(), enc.bytes.size());
    for (const Op &want : ops) {
        const Op got = dec.decode();
        EXPECT_EQ(got.type, want.type);
        EXPECT_EQ(got.count, want.count);
        EXPECT_EQ(got.addr, want.addr);
        EXPECT_EQ(got.pc, want.pc);
        EXPECT_EQ(got.id, want.id);
    }
    EXPECT_EQ(dec.cursor.remaining(), 0u);
}

TEST(TraceFormat, DeltaCodingIsCompact)
{
    // A streaming load pattern (line-after-line) must cost only a few
    // bytes per op — far below the 24-byte in-memory Op.
    OpEncoder enc;
    for (int i = 0; i < 1000; ++i)
        enc.encode(Op::load(addrmap::privateBase(0) +
                                static_cast<Addr>(i) * kLineBytes,
                            0x40000 + (i % 64) * 4));
    enc.encode(Op::end());
    EXPECT_LT(enc.bytes.size(), 1001u * 5);
}

TEST(TraceFormat, BadOpTagThrows)
{
    const std::string bytes(1, '\x2a'); // tag 42: not an OpType
    OpDecoder dec(bytes.data(), bytes.size());
    EXPECT_THROW(dec.decode(), TraceError);
}

// ---- container + header validation ----------------------------------------

/** A tiny valid 2-thread trace image (2 parallel streams + baseline). */
std::string
tinyTraceBytes()
{
    TraceMeta meta;
    meta.nthreads = 2;
    meta.profileHash = 0xfeedULL;
    meta.label = "t-tiny";
    TraceWriter writer(std::move(meta));
    for (int stream = 0; stream < 3; ++stream) {
        writer.append(stream, Op::compute(8));
        writer.append(stream,
                      Op::load(addrmap::privateBase(0), 0x40000));
        writer.append(stream, Op::end());
    }
    return writer.serialize();
}

TEST(TraceFormat, WriterReaderRoundTrip)
{
    const TraceReader reader = TraceReader::fromBytes(tinyTraceBytes());
    EXPECT_EQ(reader.meta().version, trace::kTraceVersion);
    EXPECT_EQ(reader.meta().nthreads, 2);
    EXPECT_EQ(reader.meta().profileHash, 0xfeedULL);
    EXPECT_EQ(reader.meta().label, "t-tiny");
    ASSERT_EQ(reader.nstreams(), 3);
    for (int s = 0; s < 3; ++s)
        EXPECT_EQ(reader.opCount(s), 3u);

    auto src = reader.parallelSource(1);
    EXPECT_EQ(src->nextOp().type, OpType::kCompute);
    EXPECT_EQ(src->nextOp().type, OpType::kLoad);
    EXPECT_FALSE(src->finished());
    EXPECT_EQ(src->nextOp().type, OpType::kEnd);
    EXPECT_TRUE(src->finished());
    EXPECT_EQ(src->nextOp().type, OpType::kEnd); // kEnd forever after
}

TEST(TraceFormat, BadMagicThrows)
{
    std::string bytes = tinyTraceBytes();
    bytes[0] = 'X';
    EXPECT_THROW(TraceReader::fromBytes(std::move(bytes)), TraceError);
}

TEST(TraceFormat, WrongVersionThrows)
{
    std::string bytes = tinyTraceBytes();
    bytes[8] = static_cast<char>(trace::kTraceVersion + 1); // u32 LSB
    try {
        TraceReader::fromBytes(std::move(bytes));
        FAIL() << "expected TraceError";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST(TraceFormat, TruncationAnywhereThrowsCleanly)
{
    const std::string whole = tinyTraceBytes();
    // Every proper prefix must fail with TraceError — header cuts,
    // stream-table cuts and mid-stream cuts alike.
    for (std::size_t len = 0; len < whole.size(); ++len) {
        EXPECT_THROW(TraceReader::fromBytes(whole.substr(0, len)),
                     TraceError)
            << "prefix of " << len << " bytes parsed successfully";
    }
    // The full image must still parse (guards against an over-eager
    // validator making the loop above pass vacuously).
    EXPECT_NO_THROW(TraceReader::fromBytes(std::string(whole)));
}

TEST(TraceFormat, TrailingGarbageThrows)
{
    std::string bytes = tinyTraceBytes();
    bytes += '\0';
    EXPECT_THROW(TraceReader::fromBytes(std::move(bytes)), TraceError);
}

/** Check @p reader against a homogeneous @p nthreads-thread workload
 *  whose profile hashes to @p profile_hash. */
void
requireHomogeneous(const TraceReader &reader, std::uint64_t profile_hash,
                   int nthreads, SchedPolicy policy)
{
    reader.requireCompatibleWorkload(
        WorkloadRole::kReplicated,
        {{nthreads, profile_hash, reader.meta().label}}, policy, 0);
}

TEST(TraceFormat, Version1HeaderStillReadable)
{
    // v1 predates the scheduler fields: header is magic, version,
    // nthreads, profileHash, label, streams. The reader must default
    // the missing fields (affinity-fifo, seed 0) — this is the branch
    // keeping every pre-v2 .sstt recording usable.
    std::string out;
    out.append(trace::kMagic, sizeof(trace::kMagic));
    trace::putU32(out, 1); // version 1: no sched fields follow the hash
    trace::putU32(out, 1); // nthreads
    trace::putU64(out, 0xfeedULL);
    trace::putVarint(out, 0); // empty label
    for (int stream = 0; stream < 2; ++stream) {
        OpEncoder enc;
        enc.encode(Op::compute(1));
        enc.encode(Op::end());
        trace::putVarint(out, enc.opCount);
        trace::putVarint(out, enc.bytes.size());
        out += enc.bytes;
    }

    const TraceReader reader = TraceReader::fromBytes(std::move(out));
    EXPECT_EQ(reader.meta().version, 1u);
    EXPECT_EQ(reader.meta().nthreads, 1);
    EXPECT_EQ(reader.meta().schedPolicy, SchedPolicy::kAffinityFifo);
    EXPECT_EQ(reader.meta().schedSeed, 0u);
    EXPECT_NO_THROW(requireHomogeneous(reader, 0xfeedULL, 1,
                                       SchedPolicy::kAffinityFifo));
}

TEST(TraceFormat, MissingEndMarkerThrows)
{
    // Hand-build a container whose stream claims 1 op that is not kEnd.
    std::string out;
    out.append(trace::kMagic, sizeof(trace::kMagic));
    trace::putU32(out, trace::kTraceVersion);
    trace::putU32(out, 1); // nthreads
    trace::putU64(out, 0); // profile hash
    trace::putU32(out, 0); // sched policy (affinity-fifo)
    trace::putU64(out, 0); // sched seed
    trace::putVarint(out, 0); // empty label
    for (int stream = 0; stream < 2; ++stream) {
        OpEncoder enc;
        enc.encode(Op::compute(1)); // no kEnd
        trace::putVarint(out, enc.opCount);
        trace::putVarint(out, enc.bytes.size());
        out += enc.bytes;
    }
    EXPECT_THROW(TraceReader::fromBytes(std::move(out)), TraceError);
}

TEST(TraceFormat, CompatibilityChecks)
{
    const TraceReader reader = TraceReader::fromBytes(tinyTraceBytes());
    EXPECT_NO_THROW(requireHomogeneous(reader, 0xfeedULL, 2,
                                       SchedPolicy::kAffinityFifo));

    // Thread-count mismatch names both counts.
    try {
        requireHomogeneous(reader, 0xfeedULL, 4,
                           SchedPolicy::kAffinityFifo);
        FAIL() << "expected TraceError";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("thread-count"),
                  std::string::npos);
    }
    // Profile mismatch (stale trace).
    EXPECT_THROW(requireHomogeneous(reader, 0xbeefULL, 2,
                                    SchedPolicy::kAffinityFifo),
                 TraceError);
    // Scheduler-policy mismatch names both policies.
    try {
        requireHomogeneous(reader, 0xfeedULL, 2, SchedPolicy::kRandom);
        FAIL() << "expected TraceError";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("scheduler-policy"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("random"),
                  std::string::npos);
    }
    // Replay thread id outside the recorded range.
    EXPECT_THROW(reader.parallelSource(2), TraceError);
    EXPECT_THROW(reader.parallelSource(-1), TraceError);
}

TEST(TraceFormat, MissingFileThrows)
{
    EXPECT_THROW(TraceReader("/nonexistent/definitely-not-here.sstt"),
                 TraceError);
}

TEST(TraceRun, ProfileHashTracksOpStreamKnobs)
{
    const BenchmarkProfile a = test::computeOnlyProfile();
    BenchmarkProfile b = a;
    EXPECT_EQ(traceProfileHash(a), traceProfileHash(b));
    b.seed += 1;
    EXPECT_NE(traceProfileHash(a), traceProfileHash(b));
    BenchmarkProfile c = a;
    c.totalIters += 1;
    EXPECT_NE(traceProfileHash(a), traceProfileHash(c));
}

TEST(TraceRun, TracePathUsesLabelAndThreads)
{
    const BenchmarkProfile p = test::computeOnlyProfile();
    const WorkloadSpec t4 = WorkloadSpec::homogeneous(p, 4);
    EXPECT_EQ(tracePathFor("/tmp/traces", t4),
              "/tmp/traces/t-compute_t4.sstt");
    EXPECT_EQ(tracePathFor("/tmp/traces/", WorkloadSpec::homogeneous(p, 16)),
              "/tmp/traces/t-compute_t16.sstt");
    // Replication streams get their own recordings.
    EXPECT_EQ(tracePathFor("/tmp/traces", t4, 3),
              "/tmp/traces/t-compute_t4_s3.sstt");
}

// ---- checks made while a stream decodes -----------------------------------

/** Write @p bytes to a fresh file in the test temp dir; returns it. */
std::string
writeTempTrace(const std::string &name, const std::string &bytes)
{
    const std::string path =
        std::string(::testing::TempDir()) + "sst_format_" + name + ".sstt";
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    return path;
}

/** Drain @p src to its end marker; returns the ops it yielded. */
std::vector<Op>
drainOps(OpSource &src)
{
    std::vector<Op> ops;
    while (!src.finished())
        ops.push_back(src.nextOp());
    return ops;
}

/**
 * A 2-thread container whose thread-0 stream carries @p bad, counted
 * as one op, between 500 valid ops on each side. Every other stream is
 * valid, and every stream still ends in the kEnd tag.
 */
std::string
traceWithBadOp(const std::string &bad)
{
    TraceMeta meta;
    meta.nthreads = 2;
    meta.profileHash = 0xfeedULL;
    meta.label = "t-bad";
    TraceWriter writer(std::move(meta));
    auto corrupt = std::make_shared<OpEncoder>();
    for (int i = 0; i < 1000; ++i) {
        if (i == 500) {
            corrupt->bytes += bad;
            ++corrupt->opCount;
        }
        corrupt->encode(Op::load(addrmap::privateBase(0) + 64 * i, 0x40000));
    }
    corrupt->encode(Op::end());
    writer.setStream(0, corrupt);
    for (int stream = 1; stream < 3; ++stream) {
        writer.append(stream, Op::compute(8));
        writer.append(stream, Op::end());
    }
    return writer.serialize();
}

TEST(TraceValidation, MalformedOpsOpenButFailWhenDecoded)
{
    const std::string overflow =
        std::string(1, static_cast<char>(OpType::kLoad)) +
        std::string(9, '\x80') + "\x7e" + std::string(1, '\0');
    const struct
    {
        const char *name;
        std::string bad;
    } cases[] = {
        {"bad_tag", std::string(1, '\x2a')},
        {"early_end", std::string(1, static_cast<char>(OpType::kEnd))},
        {"varint_overflow", overflow},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        const std::string bytes = traceWithBadOp(c.bad);
        const std::string path = writeTempTrace(c.name, bytes);
        // The structure is intact, so both kinds of reader open it.
        ASSERT_NO_THROW(TraceReader::fromBytes(bytes));
        ASSERT_NO_THROW(TraceReader{path});
        for (const TraceReader &reader :
             {TraceReader::fromBytes(bytes), TraceReader(path)}) {
            // The streams without the bad op replay in full.
            EXPECT_EQ(drainOps(*reader.parallelSource(1)).size(), 2u);
            EXPECT_EQ(drainOps(*reader.baselineSource()).size(), 2u);
            // Replaying the bad stream throws at the bad op.
            const std::unique_ptr<OpSource> src = reader.parallelSource(0);
            for (int i = 0; i < 500; ++i)
                ASSERT_EQ(src->nextOp().type, OpType::kLoad);
            try {
                src->nextOp();
                FAIL() << "expected TraceError";
            } catch (const TraceError &e) {
                EXPECT_NE(std::string(e.what()).find("malformed trace"),
                          std::string::npos)
                    << e.what();
            }
            // validate() rejects the file up front.
            EXPECT_THROW(reader.validate(), TraceError);
        }
        std::filesystem::remove(path);
    }
    EXPECT_NO_THROW(TraceReader::fromBytes(tinyTraceBytes()).validate());

    // A table op count above the stream's ops: the end marker arrives,
    // last, but early by the count.
    TraceMeta meta;
    meta.nthreads = 1;
    TraceWriter writer(meta);
    auto overcounted = std::make_shared<OpEncoder>();
    overcounted->encode(Op::compute(1));
    overcounted->encode(Op::end());
    overcounted->opCount = 3; // 3 bytes: enough for 3 ops at open
    writer.setStream(0, overcounted);
    writer.append(1, Op::end());
    const TraceReader reader = TraceReader::fromBytes(writer.serialize());
    const std::unique_ptr<OpSource> src = reader.parallelSource(0);
    EXPECT_EQ(src->nextOp().type, OpType::kCompute);
    EXPECT_THROW(src->nextOp(), TraceError);
    EXPECT_THROW(reader.validate(), TraceError);

    // A load cut short by its stream's end, whose last byte (the
    // address varint) happens to equal the kEnd tag.
    TraceWriter cut_writer(meta);
    auto cut = std::make_shared<OpEncoder>();
    cut->bytes = {static_cast<char>(OpType::kLoad),
                  static_cast<char>(OpType::kEnd)};
    cut->opCount = 1;
    cut_writer.setStream(0, cut);
    cut_writer.append(1, Op::end());
    const TraceReader cut_reader =
        TraceReader::fromBytes(cut_writer.serialize());
    try {
        cut_reader.parallelSource(0)->nextOp();
        FAIL() << "expected TraceError";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("malformed trace"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceValidation, StructuralDamageFailsAtOpen)
{
    // A stream whose last byte is not the kEnd tag, and a stream
    // claiming more ops than it has bytes, fail before any replay.
    TraceMeta meta;
    meta.nthreads = 1;
    TraceWriter no_end(meta);
    auto open_ended = std::make_shared<OpEncoder>();
    open_ended->encode(Op::compute(1));
    open_ended->encode(Op::compute(1)); // counted, but no kEnd
    no_end.setStream(0, open_ended);
    no_end.append(1, Op::end());
    EXPECT_THROW(TraceReader::fromBytes(no_end.serialize()), TraceError);

    TraceWriter overcounted(meta);
    auto dense = std::make_shared<OpEncoder>();
    dense->encode(Op::end());
    dense->opCount = 2; // two ops in one byte
    overcounted.setStream(0, dense);
    overcounted.append(1, Op::end());
    EXPECT_THROW(TraceReader::fromBytes(overcounted.serialize()),
                 TraceError);
}

TEST(TraceValidation, WindowBoundariesDecodeIdentically)
{
    // Address and PC deltas near 2^62 zigzag to 10-byte varints, so a
    // load takes 21 bytes and ops straddle every 64 KB refill at
    // varying offsets. The stream spans more than three windows.
    OpEncoder enc;
    std::vector<Op> want;
    Addr addr = 0;
    PC pc = 0;
    for (int i = 0; enc.bytes.size() < 3 * TraceProgram::kWindowBytes + 4096;
         ++i) {
        addr += (std::uint64_t(1) << 62) + 64 * static_cast<Addr>(i);
        pc += (std::uint64_t(1) << 62) + 4 * static_cast<PC>(i % 13);
        want.push_back(i % 7 == 3 ? Op::compute(i) : Op::load(addr, pc));
        enc.encode(want.back());
    }
    want.push_back(Op::end());
    enc.encode(want.back());

    TraceMeta meta;
    meta.nthreads = 1;
    TraceWriter writer(meta);
    writer.setStream(0, std::make_shared<const OpEncoder>(enc));
    writer.append(1, Op::end());
    const std::string bytes = writer.serialize();
    const std::string path = writeTempTrace("windows", bytes);

    auto expectSame = [&want](const Op &got, std::size_t i) {
        ASSERT_LT(i, want.size());
        EXPECT_EQ(got.type, want[i].type) << "op " << i;
        EXPECT_EQ(got.count, want[i].count) << "op " << i;
        EXPECT_EQ(got.addr, want[i].addr) << "op " << i;
        EXPECT_EQ(got.pc, want[i].pc) << "op " << i;
    };

    // Whole-image decoder: the reference.
    OpDecoder whole(enc.bytes.data(), enc.bytes.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        expectSame(whole.decode(), i);
    EXPECT_EQ(whole.cursor.remaining(), 0u);

    for (const TraceReader &reader :
         {TraceReader(path), TraceReader::fromBytes(bytes)}) {
        EXPECT_NO_THROW(reader.validate());
        const std::unique_ptr<OpSource> src = reader.parallelSource(0);
        const auto *program = dynamic_cast<const TraceProgram *>(src.get());
        ASSERT_NE(program, nullptr);
        std::size_t i = 0, peak = 0;
        while (!src->finished()) {
            expectSame(src->nextOp(), i++);
            peak = std::max(peak, program->bufferedBytes());
            ASSERT_LE(program->bufferedBytes(), TraceProgram::kWindowBytes);
        }
        EXPECT_EQ(i, want.size());
        EXPECT_EQ(peak, TraceProgram::kWindowBytes); // it did window
    }
    std::filesystem::remove(path);
}

} // namespace
} // namespace sst
