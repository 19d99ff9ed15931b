#include "hierarchy.hh"

#include <utility>

#include "util/logging.hh"

namespace sst {

namespace {

std::uint64_t
bit(CoreId core)
{
    return std::uint64_t(1) << static_cast<unsigned>(core);
}

} // namespace

CacheHierarchy::CacheHierarchy(int ncores, const CacheParams &params)
    : ncores_(ncores), params_(params),
      llc_(params.llcBytes, params.llcWays),
      sharers_(llc_.slots(), 0), dirtyOwner_(llc_.slots(), kInvalidId)
{
    sstAssert(ncores >= 1 && ncores <= kMaxSimCores,
              "CacheHierarchy supports 1.." +
                  std::to_string(kMaxSimCores) + " cores");
    l1s_.reserve(static_cast<std::size_t>(ncores));
    for (int c = 0; c < ncores; ++c) {
        SetAssocArray l1(params.l1Bytes, params.l1Ways);
        std::vector<Slot> links(l1.slots(), kNoSlot);
        l1s_.push_back({std::move(l1), std::move(links)});
        atds_.push_back(std::make_unique<Atd>(
            params.llcBytes, params.llcWays, params.atdSamplingFactor));
        if (params.oracleAtds) {
            oracleAtds_.push_back(std::make_unique<Atd>(
                params.llcBytes, params.llcWays, 1));
        }
    }
    stats_.resize(static_cast<std::size_t>(ncores));
}

Slot
CacheHierarchy::linkedLlcSlot(Slot link, Addr line) const
{
    sstAssert(link < llc_.slots() && llc_.line(link) == line &&
                  llc_.valid(link),
              "inclusion violated: an L1 line is not valid at its LLC slot");
    return link;
}

void
CacheHierarchy::makeExclusive(Addr line, CoreId writer, Slot dir)
{
    // Walk set bits (ascending core id, like the old full-core loop)
    // instead of scanning all ncores per upgrade.
    for (std::uint64_t rest = sharers_[dir]; rest != 0; rest &= rest - 1) {
        const int c = __builtin_ctzll(rest);
        if (c != writer &&
            l1s_[static_cast<std::size_t>(c)].array.invalidate(
                line, /*keep_tag=*/true))
            ++stats_[static_cast<std::size_t>(c)].invalidationsReceived;
    }
    sharers_[dir] = bit(writer);
    dirtyOwner_[dir] = static_cast<std::int8_t>(writer);
    llc_.setDirty(dir, true);
}

void
CacheHierarchy::dropL1Copy(CoreId core, Slot dir, bool dirty)
{
    sharers_[dir] &= ~bit(core);
    if (dirty) {
        llc_.setDirty(dir, true);
        if (dirtyOwner_[dir] == core)
            dirtyOwner_[dir] = kInvalidId;
    }
}

void
CacheHierarchy::insertIntoL1(CoreId core, Addr line, Slot resident,
                             bool dirty, Slot dir)
{
    L1Cache &l1 = l1s_[static_cast<std::size_t>(core)];
    SetAssocArray::Victim victim;
    const Slot s = l1.array.fill(line, resident, &victim);

    if (victim.valid) {
        // The way still holds the victim's LLC link.
        dropL1Copy(core, linkedLlcSlot(l1.llcSlot[s], victim.line),
                   victim.dirty);
    }
    l1.array.setDirty(s, dirty);
    l1.llcSlot[s] = dir;
}

AccessOutcome
CacheHierarchy::access(CoreId core, Addr addr, bool is_write)
{
    AccessOutcome out;
    const Addr line = lineNum(addr);
    out.line = line;

    auto &st = stats_[static_cast<std::size_t>(core)];
    L1Cache &l1 = l1s_[static_cast<std::size_t>(core)];
    ++st.l1Accesses;

    // One resident probe serves both the hit test and the
    // coherency-miss classification (the stale tag case).
    const Slot resident = l1.array.findAny(line);

    // ---- L1 hit path ----------------------------------------------------
    if (resident != kNoSlot && l1.array.valid(resident)) {
        out.l1Hit = true;
        ++st.l1Hits;
        l1.array.touch(resident);
        if (is_write && !l1.array.dirty(resident)) {
            // Upgrade: gain exclusivity by invalidating other copies.
            makeExclusive(line, core,
                          linkedLlcSlot(l1.llcSlot[resident], line));
            l1.array.setDirty(resident, true);
        }
        return out;
    }

    // ---- L1 miss: classify a possible coherency miss ---------------------
    if (resident != kNoSlot && l1.array.coherenceInvalidated(resident)) {
        out.coherencyMiss = true;
        ++st.coherencyMisses;
    }

    // ---- shared LLC access ------------------------------------------------
    ++st.llcAccesses;
    const Atd::Probe probe = atds_[static_cast<std::size_t>(core)]->access(
        line);
    out.atdSampled = probe.sampled;
    out.atdHit = probe.hit;
    Atd::Probe oracle;
    if (params_.oracleAtds) {
        oracle = oracleAtds_[static_cast<std::size_t>(core)]->access(line);
    }

    const Slot llc_resident = llc_.findAny(line);
    if (llc_resident != kNoSlot && llc_.valid(llc_resident)) {
        const Slot dir = llc_resident;
        out.llcHit = true;
        ++st.llcHits;
        llc_.touch(dir);

        // Dirty copy lives in another core's L1: cache-to-cache transfer
        // through the LLC (M -> S on a read, M -> I on a write).
        const CoreId owner = dirtyOwner_[dir];
        if (owner != kInvalidId && owner != core) {
            out.dirtyInOtherL1 = true;
            SetAssocArray &owner_l1 =
                l1s_[static_cast<std::size_t>(owner)].array;
            if (is_write) {
                if (owner_l1.invalidate(line, /*keep_tag=*/true)) {
                    ++stats_[static_cast<std::size_t>(owner)]
                          .invalidationsReceived;
                }
                sharers_[dir] &= ~bit(owner);
            } else if (const Slot os = owner_l1.findValid(line);
                       os != kNoSlot) {
                owner_l1.setDirty(os, false); // downgrade to shared
            }
            llc_.setDirty(dir, true);
            dirtyOwner_[dir] = kInvalidId;
        }

        if (is_write)
            makeExclusive(line, core, dir);
        else
            sharers_[dir] |= bit(core);

        if (probe.sampled && !probe.hit) {
            out.interThreadHit = true;
            ++st.interThreadHitsSampled;
        }
        if (params_.oracleAtds && !oracle.hit) {
            out.oracleInterThreadHit = true;
            ++st.oracleInterThreadHits;
        }
        insertIntoL1(core, line, resident, is_write, dir);
        return out;
    }

    // ---- LLC miss: fill from DRAM -----------------------------------------
    ++st.llcMisses;
    if (probe.sampled && probe.hit) {
        out.interThreadMiss = true;
        ++st.interThreadMissesSampled;
    }
    if (params_.oracleAtds && oracle.hit) {
        out.oracleInterThreadMiss = true;
        ++st.oracleInterThreadMisses;
    }

    SetAssocArray::Victim victim;
    const Slot dir = llc_.fill(line, llc_resident, &victim);
    if (victim.valid) {
        // Inclusive LLC: back-invalidate every L1 copy of the victim.
        for (std::uint64_t rest = sharers_[dir]; rest != 0;
             rest &= rest - 1) {
            const int c = __builtin_ctzll(rest);
            l1s_[static_cast<std::size_t>(c)].array.invalidate(
                victim.line, /*keep_tag=*/false);
        }
        if (victim.dirty || dirtyOwner_[dir] != kInvalidId) {
            out.victimWriteback = true;
            out.victimLine = victim.line;
            ++st.writebacks;
        }
    }
    sharers_[dir] = bit(core);
    dirtyOwner_[dir] = static_cast<std::int8_t>(is_write ? core : kInvalidId);
    llc_.setDirty(dir, is_write);
    insertIntoL1(core, line, resident, is_write, dir);
    return out;
}

void
CacheHierarchy::resetStats()
{
    for (auto &st : stats_)
        st = CacheStats{};
}

void
CacheHierarchy::flushL1(CoreId core)
{
    L1Cache &l1 = l1s_[static_cast<std::size_t>(core)];
    for (Slot s = 0; s < l1.array.slots(); ++s) {
        if (l1.array.valid(s))
            dropL1Copy(core, linkedLlcSlot(l1.llcSlot[s], l1.array.line(s)),
                       l1.array.dirty(s));
    }
    l1.array.reset();
}

std::string
CacheHierarchy::checkInvariants() const
{
    // Dirty L1 copies per LLC slot, for the single-writer check.
    std::vector<int> dirty_copies(llc_.slots(), 0);
    for (CoreId c = 0; c < ncores_; ++c) {
        const L1Cache &l1 = l1s_[static_cast<std::size_t>(c)];
        for (Slot s = 0; s < l1.array.slots(); ++s) {
            if (!l1.array.valid(s))
                continue;
            const Slot dir = llc_.findValid(l1.array.line(s));
            const char *broken =
                dir == kNoSlot                ? "not valid in the LLC"
                : !(sharers_[dir] & bit(c))   ? "sharer bit clear"
                : l1.llcSlot[s] != dir        ? "stale LLC link"
                : l1.array.dirty(s) && ++dirty_copies[dir] > 1
                    ? "a second dirty L1 copy"
                    : nullptr;
            if (broken)
                return "core " + std::to_string(c) + " line " +
                       std::to_string(l1.array.line(s)) + ": " + broken;
        }
    }
    for (Slot dir = 0; dir < llc_.slots(); ++dir) {
        const CoreId owner = dirtyOwner_[dir];
        if (!llc_.valid(dir) || owner == kInvalidId)
            continue;
        const SetAssocArray &l1 = l1s_[static_cast<std::size_t>(owner)].array;
        const Slot s = l1.findValid(llc_.line(dir));
        if (s == kNoSlot || !l1.dirty(s))
            return "line " + std::to_string(llc_.line(dir)) +
                   ": dirty owner has no valid dirty copy";
    }
    return "";
}

} // namespace sst
