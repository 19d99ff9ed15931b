#include "thread_program.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace sst {

namespace {

/** Stateless 64-bit mix for phase-level decisions shared by all threads. */
std::uint64_t
mix64(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0)
{
    std::uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + 0x5157 + c * 0xabcdef;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/** Deterministic value in [-1, 1] from a hash. */
double
signedUnit(std::uint64_t h)
{
    return ((h >> 11) * (1.0 / 9007199254740992.0)) * 2.0 - 1.0;
}

} // namespace

int
ThreadProgram::activeThreads(const BenchmarkProfile &p, int nthreads,
                             int phase)
{
    if (p.parallelismCap <= 0.0 || nthreads <= 1)
        return nthreads;
    const double u = signedUnit(mix64(p.seed, 0xCA9, phase));
    double cap = p.parallelismCap;
    if (nthreads < 16 && p.capScale > 0.0)
        cap *= std::pow(nthreads / 16.0, p.capScale);
    cap *= 1.0 + p.capJitter * u;
    int active = static_cast<int>(std::lround(cap));
    return std::clamp(active, 1, nthreads);
}

ThreadProgram::ThreadProgram(const BenchmarkProfile &profile, ThreadId tid,
                             int nthreads, const ThreadScope &scope)
    : prof_(profile), tid_(tid), nthreads_(nthreads), scope_(scope),
      dataTid_(scope.dataTid == kInvalidId ? tid : scope.dataTid),
      rng_(mix64(profile.seed, 0x7EAD, static_cast<std::uint64_t>(tid)))
{
    sstAssert(nthreads >= 1, "ThreadProgram needs nthreads >= 1");
    sstAssert(tid >= 0 && tid < nthreads, "ThreadProgram tid out of range");
    for (int ph = 0; ph < prof_.barrierPhases; ++ph)
        plannedIters_ += itersInPhase(ph);

    // Pre-RoI warmup, mirroring SPLASH-2/PARSEC methodology: every
    // thread sweeps its private region once so the measured region of
    // interest starts with warm caches (the paper's results are gathered
    // from the parallel fraction with the same property). A barrier
    // aligns the threads, then kRoiBegin resets the measurements.
    const Addr pbase = addrmap::privateBase(dataTid_);
    const std::uint64_t lines =
        std::max<std::uint64_t>(prof_.privateBytes, kLineBytes) /
        kLineBytes;
    warmup_.addSweep(pbase, lines, 0x30000);
    // Re-touch the hot window last so it is MRU when measurement
    // starts; otherwise the LRU sweep order would leave exactly the
    // lines the RoI uses first in line for eviction, creating an
    // artificial inter-thread miss burst at RoI start.
    const std::uint64_t priv_hot =
        (prof_.privateHotBytes == 0
             ? std::max<std::uint64_t>(prof_.privateBytes, kLineBytes)
             : std::min<std::uint64_t>(prof_.privateHotBytes,
                                       prof_.privateBytes)) /
        kLineBytes;
    if (priv_hot < lines)
        warmup_.addSweep(pbase, priv_hot, 0x30001);
    // Also sweep the initial shared hot window so steady-state
    // positive interference reflects window movement, not the
    // first-touch transient (each core's ATD must know the lines a
    // private cache would already hold).
    const std::uint64_t hot = std::min<std::uint64_t>(
        prof_.sharedHotBytes, prof_.sharedBytes);
    if (prof_.sharedFrac > 0.0)
        warmup_.addSweep(scope_.sharedBase, hot / kLineBytes, 0x30010);
    // Lock-protected data regions are shared too: sweep them so CS
    // accesses do not register as first-touch positive interference.
    // lockDataBase is linear in the lock id, so the locks' 4 KB regions
    // form one contiguous sweep.
    if (prof_.numLocks > 0) {
        warmup_.addSweep(
            addrmap::lockDataBase(scope_.lockIdOffset),
            static_cast<std::uint64_t>(prof_.numLocks) * (4096 / kLineBytes),
            0x30020);
    }
    if (parallelMode())
        warmup_.setBarrier(kWarmupBarrierId + scope_.barrierIdOffset);
}

std::uint64_t
ThreadProgram::itersInPhase(int phase) const
{
    const int phases = std::max(1, prof_.barrierPhases);
    std::uint64_t phase_iters = prof_.totalIters / phases;
    if (phase == phases - 1)
        phase_iters += prof_.totalIters % phases;

    if (nthreads_ == 1)
        return phase_iters;

    const int active = activeThreads(prof_, nthreads_, phase);
    // Rotate the active window across phases so no thread is permanently
    // starved; thread `i` is active iff its rotated index falls below
    // `active`.
    const int rot = (tid_ + phase) % nthreads_;
    if (rot >= active)
        return 0;

    // Skewed division of the phase's iterations over the active threads.
    // All threads compute the same weight vector from shared hashes, so
    // the division is consistent without communication.
    double wsum = 0.0;
    std::vector<double> w(static_cast<std::size_t>(active));
    for (int slot = 0; slot < active; ++slot) {
        const double u = signedUnit(mix64(prof_.seed, 0x5E3 + slot, phase));
        w[static_cast<std::size_t>(slot)] =
            1.0 + prof_.imbalanceSkew * u;
        wsum += w[static_cast<std::size_t>(slot)];
    }

    // Deterministic rounding: earlier slots take floor(share); the last
    // slot absorbs the remainder so the total is conserved exactly.
    std::uint64_t others = 0;
    for (int slot = 0; slot < active - 1; ++slot) {
        const std::uint64_t share = static_cast<std::uint64_t>(
            std::floor(phase_iters * w[static_cast<std::size_t>(slot)] /
                       wsum));
        if (slot == rot)
            return share;
        others += share;
    }
    return phase_iters - others;
}

Op
ThreadProgram::nextOp()
{
    if (finished_)
        return Op::end();
    if (cursor_ >= buf_.size())
        refill();
    if (finished_)
        return Op::end();
    return buf_[cursor_++];
}

void
ThreadProgram::refill()
{
    buf_.clear();
    cursor_ = 0;

    if (!warmupDone_) {
        warmupDone_ = warmup_.fill(buf_);
        return;
    }

    const int phases = std::max(1, prof_.barrierPhases);
    for (;;) {
        if (phase_ >= phases) {
            finished_ = true;
            return;
        }
        if (!phaseInitDone_) {
            phaseItersLeft_ = itersInPhase(phase_);
            phaseInitDone_ = true;
        }
        if (phaseItersLeft_ > 0) {
            --phaseItersLeft_;
            emitIteration();
            return;
        }
        // Phase complete: emit the phase barrier (multi-threaded only) and
        // move on. The very last barrier is controlled by finalBarrier.
        const bool last = (phase_ == phases - 1);
        ++phase_;
        phaseInitDone_ = false;
        if (parallelMode() && (!last || prof_.finalBarrier)) {
            buf_.push_back(Op::barrier(phase_ - 1 +
                                       scope_.barrierIdOffset));
            return;
        }
    }
}

void
ThreadProgram::emitIteration()
{
    // Loop bookkeeping plus parallelization overhead (parallel mode only):
    // extra instructions for work division, communication and redundant
    // computation, per Section 3.5 of the paper.
    std::uint32_t overhead_instr = 4;
    if (parallelMode()) {
        overhead_instr += static_cast<std::uint32_t>(std::lround(
            prof_.parOverheadFrac *
            (prof_.computePerIter + prof_.memPerIter)));
    }
    buf_.push_back(Op::compute(overhead_instr));
    instrEmitted_ += overhead_instr;

    // First half of the iteration's compute.
    const std::uint32_t c1 = static_cast<std::uint32_t>(
        prof_.computePerIter / 2);
    const std::uint32_t c2 = static_cast<std::uint32_t>(
        prof_.computePerIter - static_cast<int>(c1));
    if (c1 > 0) {
        buf_.push_back(Op::compute(c1));
        instrEmitted_ += c1;
    }

    // Memory references. Shared data is read-mostly: the store
    // probability depends on the region the reference targets.
    for (int m = 0; m < prof_.memPerIter; ++m) {
        const Addr addr = pickDataAddr();
        const bool shared = addr >= scope_.sharedBase &&
                            addr < scope_.sharedBase + prof_.sharedBytes;
        emitMemRef(rng_.chance(shared ? prof_.sharedStoreFrac
                                      : prof_.storeFrac),
                   addr);
    }

    if (c2 > 0) {
        buf_.push_back(Op::compute(c2));
        instrEmitted_ += c2;
    }

    // Critical section (parallel mode); in the sequential program the same
    // work is done without lock operations.
    if (prof_.numLocks > 0 && rng_.chance(prof_.lockFreq)) {
        const LockId lock = static_cast<LockId>(
            rng_.below(static_cast<std::uint64_t>(prof_.numLocks)));
        if (parallelMode()) {
            buf_.push_back(Op::lockAcquire(lock + scope_.lockIdOffset));
            instrEmitted_ += kLockOpInstrs;
        }
        if (prof_.csCompute > 0) {
            buf_.push_back(Op::compute(
                static_cast<std::uint32_t>(prof_.csCompute)));
            instrEmitted_ += static_cast<std::uint32_t>(prof_.csCompute);
        }
        for (int m = 0; m < prof_.csMem; ++m)
            emitMemRef(rng_.chance(0.5), pickCsAddr(lock));
        if (parallelMode()) {
            buf_.push_back(Op::lockRelease(lock + scope_.lockIdOffset));
            instrEmitted_ += kLockOpInstrs;
        }
    }
}

void
ThreadProgram::emitMemRef(bool is_store, Addr addr)
{
    const PC pc = 0x40000 + (memSlot_ % 64) * 4;
    ++memSlot_;
    if (is_store)
        buf_.push_back(Op::store(addr, pc));
    else
        buf_.push_back(Op::load(addr, pc));
    instrEmitted_ += 1;
}

Addr
ThreadProgram::pickDataAddr()
{
    if (prof_.sharedBytes > 0 && rng_.chance(prof_.sharedFrac)) {
        const std::uint64_t hot =
            std::min<std::uint64_t>(prof_.sharedHotBytes,
                                    prof_.sharedBytes);
        if (hot > 0 && rng_.chance(prof_.sharedHotFrac)) {
            // The hot window moves across the shared region every phase
            // (blocked algorithms touch fresh shared data each step), so
            // cross-thread prefetching — positive interference — keeps
            // occurring in steady state: the first thread to touch a
            // window line misses, the others hit.
            const std::uint64_t span =
                prof_.sharedBytes > hot ? prof_.sharedBytes - hot : 1;
            const std::uint64_t window =
                prof_.sharedWindowPhases > 0
                    ? static_cast<std::uint64_t>(phase_) /
                          static_cast<std::uint64_t>(
                              prof_.sharedWindowPhases)
                    : 0;
            const std::uint64_t base = (window * hot) % span;
            return scope_.sharedBase + base + rng_.below(hot);
        }
        return scope_.sharedBase + rng_.below(prof_.sharedBytes);
    }
    // Private region. In the sequential run the single thread owns region
    // 0, which is also what thread 0 of the parallel run uses; regions are
    // per-thread so the parallel footprint grows with the thread count
    // (per-thread state, ghost zones, replicated buffers).
    const std::uint64_t size = std::max<std::uint64_t>(prof_.privateBytes,
                                                       kLineBytes);
    const std::uint64_t hot =
        prof_.privateHotBytes == 0
            ? size
            : std::min<std::uint64_t>(prof_.privateHotBytes, size);

    if (!rng_.chance(prof_.privateHotFrac)) {
        // Cold tail: a far reference into the full region.
        return addrmap::privateBase(dataTid_) + rng_.below(size);
    }
    if (rng_.chance(prof_.streamFrac)) {
        // Sequential sweep through the hot window with wraparound.
        const Addr a = addrmap::privateBase(dataTid_) +
                       (streamCursor_ % hot);
        streamCursor_ += kLineBytes;
        return a;
    }
    return addrmap::privateBase(dataTid_) + rng_.below(hot);
}

Addr
ThreadProgram::pickCsAddr(LockId lock)
{
    return addrmap::lockDataBase(lock + scope_.lockIdOffset) +
           rng_.below(4096);
}

} // namespace sst
