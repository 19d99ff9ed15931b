#include "dram.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/logging.hh"

namespace sst {

void
BusTimeline::pruneBefore(Cycles t)
{
    // Only safe with a watermark no later than any future reserve() time:
    // callers use the (monotone) request issue time.
    std::size_t keep = 0;
    for (std::size_t i = head_; i < busy_.size(); ++i) {
        if (busy_[i].end > t)
            busy_[keep++] = busy_[i];
    }
    busy_.resize(keep);
    head_ = 0;
}

void
BusTimeline::pruneFront(Cycles t)
{
    while (head_ < busy_.size() && busy_[head_].end <= t)
        ++head_;
    // Compact once the dead prefix dominates; amortized O(1) per call.
    if (head_ >= 64 && head_ * 2 >= busy_.size()) {
        busy_.erase(busy_.begin(),
                    busy_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
}

Cycles
BusTimeline::reserve(Cycles t, Cycles len, CoreId who, CoreId &blocker)
{
    blocker = kInvalidId;

    // First-fit gap search along the sorted busy list.
    Cycles cur = t;
    std::size_t pos = head_;
    for (; pos < busy_.size(); ++pos) {
        const Interval &iv = busy_[pos];
        if (iv.end <= cur)
            continue;
        if (iv.start >= cur + len)
            break; // the gap before iv fits
        if (iv.end > cur) {
            cur = iv.end;
            blocker = iv.owner;
        }
    }
    if (cur == t)
        blocker = kInvalidId; // no wait, no blocker

    // Insert keeping the start order.
    Interval mine{cur, cur + len, who};
    auto it = busy_.begin() + static_cast<std::ptrdiff_t>(head_);
    while (it != busy_.end() && it->start < mine.start)
        ++it;
    busy_.insert(it, mine);
    return cur;
}

DramModel::DramModel(int ncores, const DramParams &params)
    : ncores_(ncores), params_(params),
      banks_(static_cast<std::size_t>(params.nbanks)),
      stats_(static_cast<std::size_t>(ncores))
{
    sstAssert(params.nbanks > 0, "DRAM needs at least one bank");
    ora_.resize(static_cast<std::size_t>(ncores));
    for (auto &per_core : ora_)
        per_core.resize(static_cast<std::size_t>(params.nbanks));

    const std::uint64_t nb = static_cast<std::uint64_t>(params.nbanks);
    if (isPow2(nb)) {
        bankMask_ = nb - 1;
        bankBits_ = log2i(nb);
    }
    const std::uint64_t lines_per_row = params.rowBytes / kLineBytes;
    if (lines_per_row > 1 && isPow2(lines_per_row))
        rowShift_ = log2i(lines_per_row);
}

int
DramModel::bankOf(Addr addr) const
{
    if (bankMask_ != 0 || params_.nbanks == 1)
        return static_cast<int>(lineNum(addr) & bankMask_);
    return static_cast<int>(lineNum(addr) %
                            static_cast<std::uint64_t>(params_.nbanks));
}

std::uint64_t
DramModel::rowOf(Addr addr) const
{
    const std::uint64_t lines_per_row = params_.rowBytes / kLineBytes;
    if ((bankMask_ != 0 || params_.nbanks == 1) && rowShift_ != 0)
        return (lineNum(addr) >> bankBits_) >> rowShift_;
    return lineNum(addr) / static_cast<std::uint64_t>(params_.nbanks) /
           lines_per_row;
}

DramResult
DramModel::access(CoreId core, Addr addr, Cycles now)
{
    DramResult res;
    auto &st = stats_[static_cast<std::size_t>(core)];
    ++st.accesses;

    res.bank = bankOf(addr);
    res.row = rowOf(addr);
    Bank &bank = banks_[static_cast<std::size_t>(res.bank)];

    bus_.pruneFront(now);

    // ---- command transfer on the shared bus -----------------------------
    CoreId blocker = kInvalidId;
    const Cycles cmd_start =
        bus_.reserve(now, params_.busCycles, core, blocker);
    res.busWait = cmd_start - now;
    if (res.busWait > 0 && blocker != kInvalidId && blocker != core)
        res.busWaitOther = res.busWait;
    const Cycles cmd_done = cmd_start + params_.busCycles;

    // ---- bank access with open-page policy --------------------------------
    const Cycles bank_start = std::max(cmd_done, bank.freeAt);
    res.bankWait = bank_start - cmd_done;
    if (res.bankWait > 0 && bank.holder != kInvalidId &&
        bank.holder != core) {
        res.bankWaitOther = res.bankWait;
    }

    Cycles service;
    if (!bank.anyOpen) {
        service = params_.rowEmptyCycles;
    } else if (bank.openRow == res.row) {
        service = params_.rowHitCycles;
        ++st.rowHits;
    } else {
        service = params_.rowConflictCycles;
        res.rowConflict = true;
        ++st.rowConflicts;
        res.pageConflictPenalty =
            params_.rowConflictCycles - params_.rowHitCycles;

        // ORA attribution (Section 4.1): this core opened the row it now
        // needs most recently, and another core has since opened a
        // different one -> the precharge/activate penalty is negative
        // interference caused by that other core.
        const OraEntry &oe =
            ora_[static_cast<std::size_t>(core)]
                [static_cast<std::size_t>(res.bank)];
        if (oe.valid && oe.row == res.row && bank.lastOpener != core)
            res.pageConflictByOther = true;
    }

    const Cycles bank_done = bank_start + service;
    bank.freeAt = bank_done;
    bank.holder = core;
    bank.openRow = res.row;
    bank.anyOpen = true;
    bank.lastOpener = core;
    ora_[static_cast<std::size_t>(core)]
        [static_cast<std::size_t>(res.bank)] = {res.row, true};

    // ---- data burst back over the shared bus -------------------------------
    const Cycles data_start =
        bus_.reserve(bank_done, params_.dataCycles, core, blocker);
    const Cycles data_wait = data_start - bank_done;
    res.busWait += data_wait;
    if (data_wait > 0 && blocker != kInvalidId && blocker != core)
        res.busWaitOther += data_wait;
    res.completeAt = data_start + params_.dataCycles;

    res.serviceCycles = res.completeAt - now;

    st.busWaitOther += res.busWaitOther;
    st.bankWaitOther += res.bankWaitOther;
    if (res.pageConflictByOther)
        st.pageConflictOtherCycles += res.pageConflictPenalty;
    return res;
}

void
DramModel::resetStats()
{
    for (auto &st : stats_)
        st = DramStats{};
}

} // namespace sst
