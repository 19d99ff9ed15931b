/**
 * @file
 * ThreadProgram: the per-thread op-stream generator. Given a
 * BenchmarkProfile, a thread id and the thread count, it deterministically
 * produces the thread's op stream: barrier-separated phases of loop
 * iterations mixing compute, private/shared memory references and
 * critical sections.
 *
 * Strong scaling semantics: the profile's totalIters are divided over the
 * threads (restricted to each phase's active set when the profile caps
 * available parallelism), so the single-threaded run executes the same
 * total work. With nThreads == 1 the generator emits the *sequential*
 * program: no lock/barrier ops and no parallelization-overhead
 * instructions, exactly like the original serial code the paper's Ts
 * refers to.
 */

#ifndef SST_WORKLOAD_THREAD_PROGRAM_HH
#define SST_WORKLOAD_THREAD_PROGRAM_HH

#include <cstdint>
#include <vector>

#include "util/rng.hh"
#include "util/types.hh"
#include "workload/op.hh"
#include "workload/op_source.hh"
#include "workload/profile.hh"
#include "workload/warmup.hh"

namespace sst {

/**
 * Placement of one thread's program inside a (possibly heterogeneous)
 * workload. The defaults reproduce the historical homogeneous stream
 * bit for bit; heterogeneous workloads (mixes, pipelines) scope each
 * group into disjoint data regions and sync-id namespaces:
 *
 *  - dataTid: the *global* thread id the private working set is based
 *    at (kInvalidId = the constructor's tid). Groups construct their
 *    programs with group-local tids for work division but global data
 *    tids, so private regions never collide across groups.
 *  - sharedBase: base of the program's shared region (groups get
 *    disjoint regions via addrmap::groupSharedBase).
 *  - lockIdOffset / barrierIdOffset: added to every emitted sync id
 *    (multiples of kGroupSyncStride). Mixes offset both; pipelines
 *    offset locks only, so phase barriers span all stages.
 *  - forceParallel: emit the parallel program (sync ops, overhead)
 *    even when the group has one thread — a 1-thread pipeline stage
 *    still takes part in a parallel run's barriers.
 */
struct ThreadScope
{
    ThreadId dataTid = kInvalidId;
    Addr sharedBase = addrmap::kSharedBase;
    int lockIdOffset = 0;
    int barrierIdOffset = 0;
    bool forceParallel = false;
};

/** Deterministic generator of one thread's op stream. */
class ThreadProgram : public OpSource
{
  public:
    ThreadProgram(const BenchmarkProfile &profile, ThreadId tid,
                  int nthreads, const ThreadScope &scope = ThreadScope{});

    /** Next op of the stream; returns Op::end() forever once finished. */
    Op nextOp() override;

    /** True once the stream has delivered its kEnd op. */
    bool finished() const override { return finished_; }

    /**
     * Total instructions emitted so far (compute counts + one per memory
     * reference + fixed costs for lock ops). Spin-loop instructions are
     * *not* included — the core model executes and counts those.
     */
    std::uint64_t instructionsEmitted() const { return instrEmitted_; }

    /** Number of iterations this thread executes across all phases. */
    std::uint64_t plannedIters() const { return plannedIters_; }

    /**
     * Number of threads active in phase @p phase for the given
     * configuration (exposed for tests and for reasoning about the
     * parallelism cap).
     */
    static int activeThreads(const BenchmarkProfile &profile, int nthreads,
                             int phase);

    /** Instruction cost charged for a lock acquire/release op. */
    static constexpr std::uint32_t kLockOpInstrs = 8;

  private:
    void refill();
    void emitIteration();
    void emitMemRef(bool isStore, Addr addr);
    Addr pickDataAddr();
    Addr pickCsAddr(LockId lock);

    /** Iterations assigned to this thread in @p phase. */
    std::uint64_t itersInPhase(int phase) const;

    /** Parallel program mode: sync ops + parallelization overhead. */
    bool parallelMode() const { return nthreads_ > 1 || scope_.forceParallel; }

    const BenchmarkProfile &prof_;
    ThreadId tid_;
    int nthreads_;
    ThreadScope scope_;
    ThreadId dataTid_; ///< resolved scope_.dataTid (private region base)
    Rng rng_;

    /** Refilled with one warmup chunk or one iteration at a time. */
    std::vector<Op> buf_;
    std::size_t cursor_ = 0;
    WarmupStream warmup_;

    int phase_ = 0;
    std::uint64_t phaseItersLeft_ = 0;
    bool phaseInitDone_ = false;
    bool warmupDone_ = false;
    bool finished_ = false;

    std::uint64_t instrEmitted_ = 0;
    std::uint64_t plannedIters_ = 0;
    std::uint64_t memSlot_ = 0;
    Addr streamCursor_ = 0;
};

} // namespace sst

#endif // SST_WORKLOAD_THREAD_PROGRAM_HH
