#include "dram.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/logging.hh"

namespace sst {

namespace {

/** Bus cycles the ring covers before it first grows. */
constexpr Cycles kInitialRingCycles = 1024;

} // namespace

BusTimeline::BusTimeline()
    : busy_(kInitialRingCycles / 64), ends_(kInitialRingCycles / 64),
      owner_(kInitialRingCycles), mask_(kInitialRingCycles - 1)
{
}

std::uint64_t
BusTimeline::bitsFrom(const std::vector<std::uint64_t> &ring,
                      Cycles c) const
{
    if (c >= horizon_)
        return 0;
    const Cycles pos = c & mask_;
    const Cycles shift = pos & 63;
    const Cycles word = pos >> 6;
    std::uint64_t bits = ring[word] >> shift;
    if (shift != 0)
        bits |= ring[(word + 1) & (mask_ >> 6)] << (64 - shift);
    // Bits from the horizon on belong to wrapped cycles; those cycles
    // hold nothing.
    const Cycles ahead = horizon_ - c;
    return ahead < 64 ? bits & ~(~std::uint64_t(0) << ahead) : bits;
}

void
BusTimeline::markRange(std::vector<std::uint64_t> &ring, Cycles from,
                       Cycles to, bool on)
{
    while (from < to) {
        const Cycles pos = from & mask_;
        const Cycles bit = pos & 63;
        const Cycles n = std::min<Cycles>(64 - bit, to - from);
        const std::uint64_t m =
            (n == 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << n) - 1)
            << bit;
        if (on)
            ring[pos >> 6] |= m;
        else
            ring[pos >> 6] &= ~m;
        from += n;
    }
}

void
BusTimeline::grow(Cycles cycles)
{
    Cycles size = mask_ + 1;
    while (size < cycles)
        size *= 2;
    std::vector<std::uint64_t> busy(size / 64), ends(size / 64);
    std::vector<std::uint8_t> owner(size);
    for (Cycles c = base_; c < horizon_; ++c) {
        const Cycles pos = c & (size - 1);
        busy[pos >> 6] |= std::uint64_t{bitAt(busy_, c)} << (pos & 63);
        ends[pos >> 6] |= std::uint64_t{bitAt(ends_, c)} << (pos & 63);
        owner[pos] = owner_[c & mask_];
    }
    busy_ = std::move(busy);
    ends_ = std::move(ends);
    owner_ = std::move(owner);
    mask_ = size - 1;
}

void
BusTimeline::pruneFront(Cycles t)
{
    if (t <= base_)
        return;
    baseInside_ = bitAt(busy_, t - 1) && !bitAt(ends_, t - 1);
    const Cycles stop = std::min(t, horizon_);
    markRange(busy_, base_, stop, false);
    markRange(ends_, base_, stop, false);
    base_ = t;
    horizon_ = std::max(horizon_, t);
    // A point at or before the watermark can neither be straddled nor
    // end where a later reservation starts.
    if (!points_.empty())
        points_.erase(points_.begin(), points_.upper_bound(t));
}

std::size_t
BusTimeline::liveReservations() const
{
    std::size_t n = points_.size();
    for (Cycles c = base_; c < horizon_; ++c)
        n += bitAt(ends_, c);
    return n;
}

Cycles
BusTimeline::firstFit(Cycles t, Cycles len) const
{
    Cycles c = t;
    for (;;) {
        // The first free cycle at or after c; cycles past the horizon
        // are all free.
        std::uint64_t free = freeFrom(c);
        while (free == 0) {
            c += 64;
            free = freeFrom(c);
        }
        c += static_cast<Cycles>(__builtin_ctzll(free));
        // The first busy cycle, or point, that the run from c reaches.
        Cycles stop = c + len;
        for (Cycles d = c; d < stop && d < horizon_; d += 64) {
            const std::uint64_t busy = bitsFrom(busy_, d);
            if (busy != 0) {
                stop = std::min(
                    stop, d + static_cast<Cycles>(__builtin_ctzll(busy)));
                break;
            }
        }
        if (!points_.empty()) {
            const auto p = points_.upper_bound(c);
            if (p != points_.end() && p->first < stop)
                stop = p->first;
        }
        if (stop == c + len)
            return c;
        c = stop;
    }
}

CoreId
BusTimeline::ownerEndingAt(Cycles c) const
{
    // A reservation that ends at c was passed before any point at c.
    if (bitAt(ends_, c - 1))
        return owner_[(c - 1) & mask_];
    const auto p = points_.find(c);
    sstAssert(p != points_.end(), "bus reservation start follows nothing");
    return p->second;
}

Cycles
BusTimeline::reserve(Cycles t, Cycles len, CoreId who, CoreId &blocker)
{
    sstAssert(t >= base_, "bus reservation before the watermark");
    sstAssert(who >= 0 && who <= 0xff, "bus owner must fit in a byte");
    Cycles start = t;
    if (len > 0) {
        // Most requests find the bus free at t.
        const std::uint64_t run =
            len >= 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << len) - 1;
        if (len > 64 || !points_.empty() || (freeFrom(t) & run) != run)
            start = firstFit(t, len);
    } else if (bitAt(busy_, t) &&
               (t > base_ ? bitAt(busy_, t - 1) && !bitAt(ends_, t - 1)
                          : baseInside_)) {
        // Strictly inside a reservation: start where it ends.
        std::uint64_t ends = bitsFrom(ends_, t);
        while (ends == 0) {
            start += 64;
            ends = bitsFrom(ends_, start);
        }
        start += static_cast<Cycles>(__builtin_ctzll(ends)) + 1;
    }
    blocker = start > t ? ownerEndingAt(start) : kInvalidId;

    if (len == 0) {
        if (start > base_)
            points_[start] = who;
        return start;
    }
    const Cycles end = start + len;
    if (end - base_ > mask_ + 1)
        grow(end - base_);
    markRange(busy_, start, end, true);
    ends_[((end - 1) & mask_) >> 6] |= std::uint64_t(1) << ((end - 1) & 63);
    owner_[(end - 1) & mask_] = static_cast<std::uint8_t>(who);
    horizon_ = std::max(horizon_, end);
    return start;
}

DramModel::DramModel(int ncores, const DramParams &params)
    : ncores_(ncores), params_(params),
      banks_(static_cast<std::size_t>(params.nbanks)),
      stats_(static_cast<std::size_t>(ncores))
{
    sstAssert(params.nbanks > 0, "DRAM needs at least one bank");
    ora_.resize(static_cast<std::size_t>(ncores) *
                static_cast<std::size_t>(params.nbanks));

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
    const std::size_t ora_slot =
        static_cast<std::size_t>(core) * banks_.size() +
        static_cast<std::size_t>(res.bank);

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
        const OraEntry &oe = ora_[ora_slot];
        if (oe.valid && oe.row == res.row && bank.lastOpener != core)
            res.pageConflictByOther = true;
    }

    const Cycles bank_done = bank_start + service;
    bank.freeAt = bank_done;
    bank.holder = core;
    bank.openRow = res.row;
    bank.anyOpen = true;
    bank.lastOpener = core;
    ora_[ora_slot] = {res.row, true};

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
