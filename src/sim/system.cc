#include "system.hh"

#include <algorithm>
#include <chrono>

#include "sim/phys_map.hh"
#include "telemetry/metrics.hh"
#include "util/logging.hh"
#include "workload/thread_program.hh"

namespace sst {

namespace {

/** PC of the synthetic per-iteration backward branch (Li detector). */
constexpr PC kIterationBranchPc = 0x1000;

std::uint64_t
hashState(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t x = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x7f4a7c15);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
}

} // namespace

System::System(const SimParams &params, const OpSourceFactory &sources,
               int nthreads, const ThreadTopology *topo)
    : params_(params), nthreads_(nthreads),
      hierarchy_(params.ncores, params.cache),
      dram_(params.ncores, params.dram),
      acct_(nthreads, params.accounting),
      events_(params.ncores),
      sched_(params.schedPolicy, params.schedSeed, params.ncores,
             params.timeSliceCycles, nthreads)
{
    sstAssert(nthreads >= 1, "System needs at least one thread");
    sstAssert(params.ncores >= 1, "System needs at least one core");
    sstAssert(static_cast<bool>(sources), "System needs an op-source factory");

    if (topo && !topo->barrierQuorum.empty()) {
        sstAssert(topo->barrierQuorum.size() ==
                      static_cast<std::size_t>(nthreads),
                  "barrier quorum table must cover every thread");
        quorums_ = topo->barrierQuorum;
    } else {
        quorums_.assign(static_cast<std::size_t>(nthreads), nthreads);
    }
    if (topo)
        sched_.setAffinityHints(topo->affinityHint);

    threads_.resize(static_cast<std::size_t>(nthreads));
    for (int t = 0; t < nthreads; ++t) {
        Thread &th = threads_[static_cast<std::size_t>(t)];
        th.tid = t;
        th.program = sources(t, nthreads);
        sstAssert(th.program != nullptr,
                  "op-source factory returned a null stream");
    }
    cores_.resize(static_cast<std::size_t>(params.ncores));
    for (int c = 0; c < params.ncores; ++c)
        cores_[static_cast<std::size_t>(c)].id = c;
}

RunResult
System::run()
{
    sstAssert(!ran_, "System::run() may only be called once");
    ran_ = true;

    // Initial placement: the first ncores threads start on the cores, the
    // rest wait in the ready pool (oversubscription, Figure 7).
    const int placed = std::min(nthreads_, params_.ncores);
    for (int t = 0; t < placed; ++t) {
        Thread &th = threads_[static_cast<std::size_t>(t)];
        th.state = ThreadState::kRunning;
        th.lastCore = t;
        th.sliceStart = 0;
        Core &core = cores_[static_cast<std::size_t>(t)];
        core.thread = t;
        setCoreNext(core, 0);
        sched_.onCoreBusy(core.id);
    }
    for (int t = placed; t < nthreads_; ++t) {
        threads_[static_cast<std::size_t>(t)].state = ThreadState::kReady;
        sched_.enqueue(ReadyThread{t, kInvalidId}, /*preferred=*/false);
    }

    // Telemetry is sampled, never consulted: a null handle (registry
    // disabled) costs one predictable branch per 64Ki events and the
    // simulation result is byte-identical either way.
    telemetry::GaugeHandle simRate = telemetry::Registry::global().gauge(
        "sst_sim_cycles_per_wall_second");
    const auto wallStart = std::chrono::steady_clock::now();

    constexpr Cycles kCycleCap = 60'000'000'000ULL;
    while (finishedThreads_ < nthreads_) {
        const EventQueue::Event ev = events_.peek();
        if (ev.at == kNever)
            panic("simulation deadlock: no runnable events");
        ++engineEvents_;
        if (simRate && (engineEvents_ & 0xFFFFu) == 0) {
            const double secs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wallStart)
                    .count();
            if (secs > 0)
                simRate.set(static_cast<double>(ev.at) / secs);
        }
        if (ev.kind == EventQueue::Kind::kWake) {
            ++engineWakes_;
            events_.popWake();
            wakeThread(ev.id, ev.at);
            continue;
        }
        if (ev.at > kCycleCap)
            fatal("simulation exceeded the cycle cap (livelock?)");
        processCore(cores_[static_cast<std::size_t>(ev.id)], ev.at);
    }

    RunResult res;
    res.nthreads = nthreads_;
    res.ncores = params_.ncores;
    for (int t = 0; t < nthreads_; ++t) {
        const ThreadCounters &c = acct_.counters(t);
        res.executionTime = std::max(res.executionTime, c.finishTime);
        res.threads.push_back(c);
        res.totalInstructions += c.instructions - c.spinInstructions;
        res.totalSpinInstructions += c.spinInstructions;
    }
    for (int c = 0; c < params_.ncores; ++c) {
        res.cacheStats.push_back(hierarchy_.stats(c));
        res.dramStats.push_back(dram_.stats(c));
    }
    res.regions = std::move(regions_);
    res.engineEvents = engineEvents_;
    res.engineWakes = engineWakes_;
    res.enginePreemptions = enginePreemptions_;
    res.engineHeapOps = events_.ops();

    telemetry::Registry &registry = telemetry::Registry::global();
    if (registry.enabled()) {
        registry.counter("sst_sim_events_total").inc(engineEvents_);
        registry.counter("sst_sim_wakes_total").inc(engineWakes_);
        registry.counter("sst_sim_preemptions_total")
            .inc(enginePreemptions_);
        registry.counter("sst_sim_heap_ops_total").inc(events_.ops());
        registry.counter("sst_sim_cycles_total")
            .inc(res.executionTime);
    }
    return res;
}

void
System::processCore(Core &core, Cycles now)
{
    Thread &th = threads_[static_cast<std::size_t>(core.thread)];
    switch (th.state) {
      case ThreadState::kRunning:
        executeFrom(core, th, now);
        break;
      case ThreadState::kSpinLock:
        spinLockCheck(core, th, now);
        break;
      case ThreadState::kSpinBarrier:
        spinBarrierCheck(core, th, now);
        break;
      default:
        panic("core event for a thread in a non-executing state");
    }
}

void
System::chargeInstructions(Thread &th, std::uint32_t count, Cycles &now)
{
    acct_.onInstructions(th.tid, count);
    const int width = params_.dispatchWidth;
    const std::uint64_t total =
        static_cast<std::uint64_t>(th.pendingSlots) + count;
    now += total / static_cast<std::uint64_t>(width);
    th.pendingSlots = static_cast<int>(
        total % static_cast<std::uint64_t>(width));
}

void
System::executeFrom(Core &core, Thread &th, Cycles event_time)
{
    Cycles now = event_time;
    for (;;) {
        if (!th.hasPending) {
            th.pending = th.program->nextOp();
            th.hasPending = true;
        }
        const Op op = th.pending;

        // Preemption (only meaningful when oversubscribed).
        if (op.type != OpType::kEnd && sched_.hasReady() &&
            sched_.shouldPreempt(now, th.sliceStart)) {
            ++enginePreemptions_;
            th.state = ThreadState::kReady;
            th.blockReason = BlockReason::kPreempt;
            th.blockStart = now;
            sched_.enqueue(ReadyThread{th.tid, th.lastCore},
                           /*preferred=*/false);
            scheduleNext(core, now);
            return;
        }

        if (op.type == OpType::kCompute) {
            chargeInstructions(th, op.count, now);
            // Per-iteration backward branch for the Li detector: the
            // instruction count folds into the state hash, so real work
            // never looks like a spin.
            acct_.onBackwardBranch(
                th.tid, kIterationBranchPc,
                hashState(acct_.counters(th.tid).instructions,
                          th.storeSerial),
                now);
            th.hasPending = false;
            continue;
        }

        // Everything below touches globally shared state and must run at
        // the core's scheduled event time. If local execution ran ahead,
        // resubmit the event so other cores' earlier actions go first.
        if (now > event_time) {
            setCoreNext(core, now);
            return;
        }

        switch (op.type) {
          case OpType::kLoad:
          case OpType::kStore:
            if (!doMemRef(core, th, op, now))
                return;
            break;
          case OpType::kLockAcquire:
            if (!doLockAcquire(core, th, op, now))
                return;
            break;
          case OpType::kLockRelease:
            doLockRelease(core, th, op, now);
            break;
          case OpType::kBarrier:
            if (!doBarrier(core, th, op, now))
                return;
            break;
          case OpType::kRoiBegin:
            // Region of interest: measurements start here, caches warm.
            acct_.resetThread(th.tid);
            if (now > roiStart_)
                roiStart_ = now;
            ++roiPassed_;
            if (roiPassed_ == nthreads_) {
                hierarchy_.resetStats();
                dram_.resetStats();
            }
            th.hasPending = false;
            break;
          case OpType::kEnd:
            finishThread(core, th, now);
            return;
          default:
            panic("unhandled op type");
        }
    }
}

bool
System::doMemRef(Core &core, Thread &th, const Op &op, Cycles &now)
{
    const bool is_store = op.type == OpType::kStore;
    const Addr paddr = toPhysical(op.addr);
    const AccessOutcome out = hierarchy_.access(core.id, paddr, is_store);

    if (is_store) {
        acct_.onStore(th.tid, lineNum(op.addr));
        ++th.storeSerial;
    } else {
        acct_.onDataLoad(th.tid, op.pc, lineNum(op.addr), now);
    }

    if (out.coherencyMiss) {
        acct_.onCoherencyMiss(th.tid);
        now += params_.coherencyMissCycles; // 0 by default (Section 4.5)
    }

    Cycles stall_until = 0;
    if (!out.l1Hit) {
        acct_.onLlcAccess(th.tid, out.atdSampled);
        if (out.llcHit) {
            if (!is_store) {
                now += params_.llcHitCycles +
                       (out.dirtyInOtherL1 ? params_.c2cTransferCycles
                                           : 0);
                if (out.interThreadHit)
                    acct_.onInterThreadHit(th.tid);
            }
        } else {
            // DRAM fill; the demand access goes first, the victim
            // writeback drains from the write buffer behind it.
            const DramResult res = dram_.access(core.id, paddr, now);
            if (out.victimWriteback)
                dram_.access(core.id, out.victimLine * kLineBytes, now);

            if (!is_store) {
                const Cycles total = res.completeAt - now;
                const Cycles visible =
                    total > params_.robOverlapCycles
                        ? total - params_.robOverlapCycles
                        : 0;
                const Cycles page_other =
                    res.pageConflictByOther ? res.pageConflictPenalty : 0;
                acct_.onLlcLoadMissComplete(th.tid, visible,
                                            out.atdSampled,
                                            out.interThreadMiss,
                                            res.busWaitOther,
                                            res.bankWaitOther, page_other);
                acct_.gtMemWaitOther(
                    th.tid,
                    std::min(visible, res.busWaitOther +
                                          res.bankWaitOther + page_other));
                if (visible > 0)
                    stall_until = now + visible;
            }
        }
    }

    chargeInstructions(th, 1, now);
    th.hasPending = false;
    if (stall_until > now) {
        setCoreNext(core, stall_until);
        return false;
    }
    return true;
}

Cycles
System::spinBranchHash(const Thread &th, std::uint64_t value) const
{
    return hashState(value, th.storeSerial);
}

bool
System::doLockAcquire(Core &core, Thread &th, const Op &op, Cycles &now)
{
    const Addr word = toPhysical(addrmap::lockWord(op.id));
    if (sync_.tryAcquire(op.id, th.tid)) {
        hierarchy_.access(core.id, word, true); // test-and-set write
        chargeInstructions(th, ThreadProgram::kLockOpInstrs, now);
        th.hasPending = false;
        return true;
    }

    // Contended: read the word, start spinning.
    hierarchy_.access(core.id, word, false);
    acct_.onLoad(th.tid, addrmap::lockSpinPc(op.id), lineNum(word),
                 sync_.lockWord(op.id),
                 sync_.lockWordWriter(op.id) != th.tid, now);
    chargeInstructions(th, ThreadProgram::kLockOpInstrs, now);
    th.state = ThreadState::kSpinLock;
    th.spinStart = now;
    th.waitId = op.id;
    setCoreNext(core, now + params_.spinCheckCycles);
    return false; // pending kLockAcquire stays: retried on success/wake
}

void
System::doLockRelease(Core &core, Thread &th, const Op &op, Cycles &now)
{
    const ThreadId waiter = sync_.release(op.id, th.tid);
    hierarchy_.access(core.id, toPhysical(addrmap::lockWord(op.id)), true);
    if (waiter != kInvalidId)
        enqueueWake(waiter, now);
    chargeInstructions(th, ThreadProgram::kLockOpInstrs, now);
    th.hasPending = false;
}

bool
System::doBarrier(Core &core, Thread &th, const Op &op, Cycles &now)
{
    std::vector<ThreadId> woken;
    const bool last = sync_.barrierArrive(
        op.id, th.tid, quorums_[static_cast<std::size_t>(th.tid)], woken);
    hierarchy_.access(core.id, toPhysical(addrmap::barrierWord(op.id)), true);
    chargeInstructions(th, 4, now);

    if (last) {
        for (const ThreadId w : woken)
            enqueueWake(w, now);
        // Region boundary (Section 4.6): snapshot all counters so
        // per-region stacks can be built from deltas. The warmup
        // barrier precedes the RoI and is not a region.
        if (!isWarmupBarrier(op.id) && roiPassed_ == nthreads_) {
            RegionBoundary rb;
            rb.barrier = op.id;
            rb.at = now > roiStart_ ? now - roiStart_ : 0;
            for (int t = 0; t < nthreads_; ++t)
                rb.counters.push_back(acct_.counters(t));
            regions_.push_back(std::move(rb));
        }
        th.hasPending = false;
        return true;
    }
    th.state = ThreadState::kSpinBarrier;
    th.spinStart = now;
    th.waitId = op.id;
    th.waitGeneration = sync_.barrierWord(op.id);
    setCoreNext(core, now + params_.spinCheckCycles);
    return false;
}

void
System::finishThread(Core &core, Thread &th, Cycles now)
{
    th.state = ThreadState::kFinished;
    th.hasPending = false;
    ++finishedThreads_;
    acct_.setFinishTime(th.tid, now > roiStart_ ? now - roiStart_ : 0);
    scheduleNext(core, now);
}

void
System::spinLockCheck(Core &core, Thread &th, Cycles now)
{
    const LockId lock = th.waitId;
    const Addr word = toPhysical(addrmap::lockWord(lock));

    acct_.onSpinInstructions(th.tid, params_.spinLoopInstrs);
    hierarchy_.access(core.id, word, false);
    const std::uint64_t value = sync_.lockWord(lock);
    const ThreadId writer = sync_.lockWordWriter(lock);
    acct_.onLoad(th.tid, addrmap::lockSpinPc(lock), lineNum(word), value,
                 writer != kInvalidId && writer != th.tid, now);
    acct_.onBackwardBranch(th.tid, addrmap::lockSpinPc(lock) + 8,
                           spinBranchHash(th, value), now);

    if (sync_.tryAcquire(lock, th.tid)) {
        acct_.gtLockSpin(th.tid, now - th.spinStart);
        hierarchy_.access(core.id, word, true);
        th.state = ThreadState::kRunning;
        th.hasPending = false; // acquire op completed
        setCoreNext(core, now + 1);
        return;
    }

    const bool oversubscribed =
        nthreads_ > params_.ncores && sched_.hasReady();
    if (oversubscribed ||
        now - th.spinStart >= params_.lockSpinThreshold) {
        acct_.gtLockSpin(th.tid, now - th.spinStart);
        sync_.addLockWaiter(lock, th.tid);
        blockThread(core, th, BlockReason::kLock, now);
        return;
    }
    setCoreNext(core, now + params_.spinCheckCycles);
}

void
System::spinBarrierCheck(Core &core, Thread &th, Cycles now)
{
    const BarrierId barrier = th.waitId;
    const Addr word = toPhysical(addrmap::barrierWord(barrier));

    acct_.onSpinInstructions(th.tid, params_.spinLoopInstrs);
    hierarchy_.access(core.id, word, false);
    const std::uint64_t value = sync_.barrierWord(barrier);
    const ThreadId writer = sync_.barrierWordWriter(barrier);
    acct_.onLoad(th.tid, addrmap::barrierSpinPc(barrier), lineNum(word),
                 value, writer != kInvalidId && writer != th.tid, now);
    acct_.onBackwardBranch(th.tid, addrmap::barrierSpinPc(barrier) + 8,
                           spinBranchHash(th, value), now);

    if (value != th.waitGeneration) {
        acct_.gtBarrierSpin(th.tid, now - th.spinStart);
        th.state = ThreadState::kRunning;
        th.hasPending = false; // barrier op completed
        setCoreNext(core, now + 1);
        return;
    }

    const bool oversubscribed =
        nthreads_ > params_.ncores && sched_.hasReady();
    if (oversubscribed ||
        now - th.spinStart >= params_.barrierSpinThreshold) {
        acct_.gtBarrierSpin(th.tid, now - th.spinStart);
        sync_.addBarrierWaiter(barrier, th.tid);
        th.hasPending = false; // arrival already registered
        blockThread(core, th, BlockReason::kBarrier, now);
        return;
    }
    setCoreNext(core, now + params_.spinCheckCycles);
}

void
System::blockThread(Core &core, Thread &th, BlockReason reason, Cycles now)
{
    th.state = reason == BlockReason::kLock ? ThreadState::kBlockedLock
                                            : ThreadState::kBlockedBarrier;
    th.blockReason = reason;
    th.blockStart = now;
    acct_.onDescheduled(th.tid);
    scheduleNext(core, now);
}

void
System::scheduleNext(Core &core, Cycles now)
{
    core.thread = kInvalidId;
    sched_.onCoreIdle(core.id);
    // Re-key the core's heap entry once: straight to `resume` when a
    // successor exists, to kNever only when the core actually idles
    // (pickNext/placeWoken never consult the event queue, so deferring
    // is safe and halves the sift work per context switch).
    const ThreadId next = sched_.pickNext(core.id);
    if (next == kInvalidId) {
        setCoreNext(core, kNever);
        return;
    }

    Thread &th = threads_[static_cast<std::size_t>(next)];
    if (params_.migrationFlushesL1 && th.lastCore != core.id)
        hierarchy_.flushL1(core.id);

    const Cycles resume = now + params_.ctxSwitchCycles;
    if (th.blockReason == BlockReason::kLock) {
        acct_.onYield(next, resume - th.blockStart);
        acct_.gtLockYield(next, resume - th.blockStart);
    } else if (th.blockReason == BlockReason::kBarrier) {
        acct_.onYield(next, resume - th.blockStart);
        acct_.gtBarrierYield(next, resume - th.blockStart);
    } else if (th.blockReason == BlockReason::kPreempt) {
        // A time-slice preempted thread waited in the ready pool and
        // pays the context switch on resume; charge that wait as OS
        // yield time so oversubscribed (Figure 7) stacks account every
        // cycle instead of silently losing the ready-queue wait.
        acct_.onYield(next, resume - th.blockStart);
        acct_.gtPreemptYield(next, resume - th.blockStart);
    }
    th.blockReason = BlockReason::kNone;
    th.state = ThreadState::kRunning;
    th.lastCore = core.id;
    th.sliceStart = resume;
    core.thread = next;
    sched_.onCoreBusy(core.id);
    setCoreNext(core, resume);
}

void
System::wakeThread(ThreadId tid, Cycles now)
{
    Thread &th = threads_[static_cast<std::size_t>(tid)];
    sstAssert(th.state == ThreadState::kBlockedLock ||
                  th.state == ThreadState::kBlockedBarrier,
              "wake of a non-blocked thread");
    th.state = ThreadState::kReady;

    const CoreId idle = sched_.placeWoken(tid, th.lastCore);
    if (idle != kInvalidId) {
        // Fast path: hand the idle core to the woken thread directly.
        sched_.enqueue(ReadyThread{tid, th.lastCore},
                       /*preferred=*/true);
        scheduleNext(cores_[static_cast<std::size_t>(idle)], now);
    } else {
        sched_.enqueue(ReadyThread{tid, th.lastCore},
                       /*preferred=*/false);
    }
}

void
System::enqueueWake(ThreadId tid, Cycles now)
{
    events_.pushWake(now + params_.wakeCost(), tid);
}

void
System::setCoreNext(Core &core, Cycles at)
{
    events_.updateCore(core.id, at);
}

RunResult
simulateSources(const SimParams &base, const OpSourceFactory &sources,
                int nthreads, int ncores_override,
                const ThreadTopology *topo)
{
    SimParams p = base;
    p.ncores = ncores_override > 0 ? ncores_override : nthreads;
    System sys(p, sources, nthreads, topo);
    return sys.run();
}

RunResult
simulateWorkload(const SimParams &base, const WorkloadSpec &spec,
                 int ncores_override)
{
    spec.validate();
    const int nthreads = spec.nthreads();
    const int ncores = ncores_override > 0 ? ncores_override : nthreads;
    const ThreadTopology topo = spec.topology(ncores);
    return simulateSources(base, workloadOpSources(spec), nthreads,
                           ncores_override, &topo);
}

} // namespace sst
