#include "trace_format.hh"

namespace sst {
namespace trace {

namespace {

/** Write @p v LEB128-encoded at @p out; returns the byte past it. */
char *
writeVarint(char *out, std::uint64_t v)
{
    while (v >= 0x80) {
        *out++ = static_cast<char>((v & 0x7f) | 0x80);
        v >>= 7;
    }
    *out++ = static_cast<char>(v);
    return out;
}

} // namespace

void
putVarint(std::string &out, std::uint64_t v)
{
    char buf[10];
    out.append(buf, static_cast<std::size_t>(writeVarint(buf, v) - buf));
}

void
putSvarint(std::string &out, std::int64_t v)
{
    putVarint(out, zigzagBits(static_cast<std::uint64_t>(v)));
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xff);
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint8_t
ByteCursor::getByte()
{
    if (pos >= size)
        throw TraceError("truncated trace: unexpected end of data");
    return data[pos++];
}

std::uint32_t
ByteCursor::getU32()
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(getByte()) << (8 * i);
    return v;
}

std::uint64_t
ByteCursor::getU64()
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(getByte()) << (8 * i);
    return v;
}

std::uint64_t
ByteCursor::getVarint()
{
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        const std::uint8_t b = getByte();
        // The 10th byte (shift 63) may only contribute bit 63: any
        // higher value bit or a continuation bit would overflow u64.
        if (shift == 63 && (b & 0xfe))
            throw TraceError("malformed trace: varint overflows 64 bits");
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
    }
    throw TraceError("malformed trace: varint longer than 64 bits");
}

std::int64_t
ByteCursor::getSvarint()
{
    return static_cast<std::int64_t>(unzigzagBits(getVarint()));
}

void
OpEncoder::encode(const Op &op)
{
    // Encode into a stack buffer, then append the whole op at once.
    char buf[kMaxOpBytes];
    char *end = buf;
    *end++ = static_cast<char>(op.type);
    ++opCount;
    switch (op.type) {
      case OpType::kCompute:
        end = writeVarint(end, op.count);
        break;
      case OpType::kLoad:
      case OpType::kStore:
        // Deltas in u64 wraparound arithmetic: defined for any address
        // distance, unlike signed subtraction.
        end = writeVarint(end, zigzagBits(op.addr - prevAddr));
        end = writeVarint(end, zigzagBits(op.pc - prevPc));
        prevAddr = op.addr;
        prevPc = op.pc;
        break;
      case OpType::kLockAcquire:
      case OpType::kLockRelease:
      case OpType::kBarrier:
        end = writeVarint(end, static_cast<std::uint64_t>(op.id));
        break;
      case OpType::kRoiBegin:
        break;
      case OpType::kEnd:
        sawEnd = true;
        break;
    }
    bytes.append(buf, static_cast<std::size_t>(end - buf));
}

Op
OpDecoder::decode(ByteCursor &cursor)
{
    const std::uint8_t tag = cursor.getByte();
    if (tag > static_cast<std::uint8_t>(OpType::kEnd))
        throw TraceError("malformed trace: unknown op tag " +
                         std::to_string(tag));
    Op op;
    op.type = static_cast<OpType>(tag);
    switch (op.type) {
      case OpType::kCompute: {
        const std::uint64_t count = cursor.getVarint();
        if (count > ~std::uint32_t(0))
            throw TraceError("malformed trace: compute count overflow");
        op.count = static_cast<std::uint32_t>(count);
        break;
      }
      case OpType::kLoad:
      case OpType::kStore:
        prevAddr += unzigzagBits(cursor.getVarint());
        prevPc += unzigzagBits(cursor.getVarint());
        op.addr = prevAddr;
        op.pc = prevPc;
        break;
      case OpType::kLockAcquire:
      case OpType::kLockRelease:
      case OpType::kBarrier: {
        const std::uint64_t id = cursor.getVarint();
        if (id > static_cast<std::uint64_t>(~0u >> 1))
            throw TraceError("malformed trace: sync id overflow");
        op.id = static_cast<int>(id);
        break;
      }
      case OpType::kRoiBegin:
      case OpType::kEnd:
        break;
    }
    return op;
}

} // namespace trace
} // namespace sst
