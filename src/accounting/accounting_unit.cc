#include "accounting_unit.hh"

#include <algorithm>

#include "util/logging.hh"

namespace sst {

AccountingUnit::AccountingUnit(int nthreads, const AccountingParams &params)
    : params_(params),
      watches_(static_cast<std::size_t>(nthreads) *
               static_cast<std::size_t>(params.tian.tableEntries))
{
    sstAssert(nthreads >= 1, "AccountingUnit needs >= 1 thread");
    threads_.resize(static_cast<std::size_t>(nthreads));
    tian_.reserve(static_cast<std::size_t>(nthreads));
    for (int t = 0; t < nthreads; ++t) {
        tian_.emplace_back(params.tian, &watches_,
                           static_cast<std::uint32_t>(
                               t * params.tian.tableEntries));
        li_.emplace_back(params.li);
    }
}

void
AccountingUnit::onInstructions(ThreadId tid, std::uint64_t n)
{
    threads_[static_cast<std::size_t>(tid)].instructions += n;
}

void
AccountingUnit::onSpinInstructions(ThreadId tid, std::uint64_t n)
{
    auto &c = threads_[static_cast<std::size_t>(tid)];
    c.spinInstructions += n;
    c.instructions += n;
}

void
AccountingUnit::onLoad(ThreadId tid, PC pc, Addr addr, std::uint64_t value,
                       bool written_by_other, Cycles now)
{
    auto &c = threads_[static_cast<std::size_t>(tid)];
    c.spinDetectedTian += tian_[static_cast<std::size_t>(tid)].observeLoad(
        pc, addr, value, written_by_other, now);
}

void
AccountingUnit::onDataLoad(ThreadId tid, PC pc, Addr line, Cycles now)
{
    threads_[static_cast<std::size_t>(tid)].spinDetectedTian +=
        tian_[static_cast<std::size_t>(tid)].observeDataLoad(pc, line, tid,
                                                             now);
}

void
AccountingUnit::onStore(ThreadId tid, Addr line)
{
    watches_.onStore(line, tid);
}

void
AccountingUnit::onBackwardBranch(ThreadId tid, PC pc,
                                 std::uint64_t state_hash, Cycles now)
{
    auto &c = threads_[static_cast<std::size_t>(tid)];
    c.spinDetectedLi +=
        li_[static_cast<std::size_t>(tid)].observeBackwardBranch(
            pc, state_hash, now);
}

void
AccountingUnit::onLlcAccess(ThreadId tid, bool sampled)
{
    auto &c = threads_[static_cast<std::size_t>(tid)];
    ++c.llcAccesses;
    if (sampled)
        ++c.atdSampledAccesses;
}

void
AccountingUnit::onLlcLoadMissComplete(ThreadId tid, Cycles visible_stall,
                                      bool sampled, bool inter_thread,
                                      Cycles bus_wait_other,
                                      Cycles bank_wait_other,
                                      Cycles page_conflict_other)
{
    auto &c = threads_[static_cast<std::size_t>(tid)];
    c.llcLoadMissStall += visible_stall;
    ++c.llcLoadMisses;
    if (!sampled)
        return;

    if (inter_thread) {
        // Would be a hit with a private LLC: the entire ROB-blocking
        // stall is negative cache interference.
        c.negLlcSampledStall += visible_stall;
        ++c.interThreadMissesSampled;
        return;
    }

    // Would miss privately too: only the waiting behind other cores is
    // interference, clamped to the ROB-blocking portion.
    Cycles budget = visible_stall;
    const Cycles bus = std::min(bus_wait_other, budget);
    budget -= bus;
    const Cycles bank = std::min(bank_wait_other, budget);
    budget -= bank;
    const Cycles page = std::min(page_conflict_other, budget);
    c.busWaitOther += bus;
    c.bankWaitOther += bank;
    c.pageConflictOther += page;
}

void
AccountingUnit::onInterThreadHit(ThreadId tid)
{
    ++threads_[static_cast<std::size_t>(tid)].interThreadHitsSampled;
}

void
AccountingUnit::onYield(ThreadId tid, Cycles cycles)
{
    threads_[static_cast<std::size_t>(tid)].yieldCycles += cycles;
}

void
AccountingUnit::onCoherencyMiss(ThreadId tid)
{
    ++threads_[static_cast<std::size_t>(tid)].coherencyMisses;
}

void
AccountingUnit::resetThread(ThreadId tid)
{
    threads_[static_cast<std::size_t>(tid)] = ThreadCounters{};
}

void
AccountingUnit::onDescheduled(ThreadId tid)
{
    tian_[static_cast<std::size_t>(tid)].reset();
    li_[static_cast<std::size_t>(tid)] = LiSpinDetector(params_.li);
}

void
AccountingUnit::gtLockSpin(ThreadId tid, Cycles cycles)
{
    threads_[static_cast<std::size_t>(tid)].gtLockSpin += cycles;
}

void
AccountingUnit::gtBarrierSpin(ThreadId tid, Cycles cycles)
{
    threads_[static_cast<std::size_t>(tid)].gtBarrierSpin += cycles;
}

void
AccountingUnit::gtLockYield(ThreadId tid, Cycles cycles)
{
    threads_[static_cast<std::size_t>(tid)].gtLockYield += cycles;
}

void
AccountingUnit::gtBarrierYield(ThreadId tid, Cycles cycles)
{
    threads_[static_cast<std::size_t>(tid)].gtBarrierYield += cycles;
}

void
AccountingUnit::gtPreemptYield(ThreadId tid, Cycles cycles)
{
    threads_[static_cast<std::size_t>(tid)].gtPreemptYield += cycles;
}

void
AccountingUnit::gtMemWaitOther(ThreadId tid, Cycles cycles)
{
    threads_[static_cast<std::size_t>(tid)].gtMemWaitOther += cycles;
}

void
AccountingUnit::setFinishTime(ThreadId tid, Cycles when)
{
    threads_[static_cast<std::size_t>(tid)].finishTime = when;
}

const ThreadCounters &
AccountingUnit::counters(ThreadId tid) const
{
    return threads_[static_cast<std::size_t>(tid)];
}

} // namespace sst
