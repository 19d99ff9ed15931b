/**
 * @file
 * WarmupStream: the pre-RoI warmup every op-stream frontend emits. A
 * thread's warmup is a handful of line-granular sweeps (private region,
 * hot re-touch, shared window, lock-protected data), each a
 * (base, line count, PC) segment, closed by an optional rendezvous
 * barrier and kRoiBegin. The stream hands the loads out a bounded chunk
 * at a time, so a frontend's op buffer never holds a whole region's
 * sweep — the warmup of an 8 MB private region is 131 K loads. The
 * closing ops come in a fill of their own that shrinks the buffer to
 * them, so steady refills regrow it only to what they need.
 */

#ifndef SST_WORKLOAD_WARMUP_HH
#define SST_WORKLOAD_WARMUP_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/types.hh"
#include "workload/op.hh"

namespace sst {

/** Deterministic, incrementally emitted pre-RoI warmup sequence. */
class WarmupStream
{
  public:
    /** Most warmup loads one fill() appends. */
    static constexpr std::size_t kChunkOps = 256;

    /** Sweep @p lines consecutive cache lines from @p base, one load at
     *  @p pc per line, after the sweeps added before. */
    void
    addSweep(Addr base, std::uint64_t lines, PC pc)
    {
        if (lines > 0)
            segments_.push_back(Segment{base, lines, pc});
    }

    /** Close the warmup with a rendezvous on barrier @p id before
     *  kRoiBegin (parallel programs only). */
    void
    setBarrier(BarrierId id)
    {
        barrier_ = id;
    }

    /**
     * Append the next at most kChunkOps warmup loads to @p out. Once the
     * sweeps are exhausted, the next fill appends only the closing
     * barrier (if any) and kRoiBegin, shrinks @p out to fit them and
     * returns true: the warmup is over, and the chunks' capacity is
     * released.
     */
    bool
    fill(std::vector<Op> &out)
    {
        if (seg_ < segments_.size()) {
            for (std::size_t n = 0;
                 n < kChunkOps && seg_ < segments_.size(); ++n) {
                const Segment &s = segments_[seg_];
                out.push_back(Op::load(s.base + line_ * kLineBytes, s.pc));
                if (++line_ == s.lines) {
                    ++seg_;
                    line_ = 0;
                }
            }
            return false;
        }
        if (barrier_)
            out.push_back(Op::barrier(*barrier_));
        out.push_back(Op::roiBegin());
        out.shrink_to_fit();
        return true;
    }

  private:
    struct Segment
    {
        Addr base;
        std::uint64_t lines;
        PC pc;
    };

    std::vector<Segment> segments_;
    std::size_t seg_ = 0;      ///< segment being swept
    std::uint64_t line_ = 0;   ///< next line within it
    std::optional<BarrierId> barrier_;
};

} // namespace sst

#endif // SST_WORKLOAD_WARMUP_HH
