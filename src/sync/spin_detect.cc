#include "spin_detect.hh"

namespace sst {

LineWatches::LineWatches(std::size_t watchers) : watchers_(watchers)
{
    std::size_t buckets = 2;
    int bits = 1;
    while (buckets < 2 * watchers) {
        buckets *= 2;
        ++bits;
    }
    heads_.assign(buckets, kNone);
    shift_ = 64 - bits;
}

std::size_t
LineWatches::bucket(Addr line) const
{
    // Fibonacci hashing: the top bits of the product spread strided
    // line numbers over the buckets.
    return static_cast<std::size_t>((line * 0x9e3779b97f4a7c15ULL) >>
                                    shift_);
}

void
LineWatches::watch(std::uint32_t w, Addr line)
{
    std::uint32_t &head = heads_[bucket(line)];
    watchers_[w] = Watcher{line, 0, kInvalidId, head};
    head = w;
}

void
LineWatches::unwatch(std::uint32_t w)
{
    std::uint32_t *link = &heads_[bucket(watchers_[w].line)];
    while (*link != w)
        link = &watchers_[*link].next;
    *link = watchers_[w].next;
}

void
LineWatches::onStore(Addr line, ThreadId tid)
{
    for (std::uint32_t w = heads_[bucket(line)]; w != kNone;
         w = watchers_[w].next) {
        Watcher &x = watchers_[w];
        if (x.line == line) {
            ++x.stores;
            x.lastWriter = tid;
        }
    }
}

TianSpinDetector::TianSpinDetector(const Params &params,
                                   LineWatches *watches,
                                   std::uint32_t first_watcher)
    : params_(params), watches_(watches), firstWatcher_(first_watcher),
      table_(static_cast<std::size_t>(params.tableEntries))
{
}

TianSpinDetector::Entry &
TianSpinDetector::entryFor(PC pc, bool &hit)
{
    Entry *lru = &table_[0];
    for (auto &e : table_) {
        if (e.valid && e.pc == pc) {
            hit = true;
            return e;
        }
        if (!e.valid || e.lastUse < lru->lastUse)
            lru = &e;
    }
    // Allocate (LRU replacement).
    hit = false;
    unwatch(*lru);
    *lru = Entry{};
    lru->valid = true;
    lru->pc = pc;
    return *lru;
}

void
TianSpinDetector::restart(Entry &e, Addr addr, std::uint64_t value,
                          Cycles now)
{
    e.addr = addr;
    e.value = value;
    e.count = 1;
    e.marked = false;
    e.firstSeen = now;
}

Cycles
TianSpinDetector::compare(Entry &e, std::uint64_t value,
                          bool written_by_other, Cycles now)
{
    if (e.value == value) {
        ++e.count;
        if (!e.marked && e.count >= params_.markThreshold)
            e.marked = true;
        return 0;
    }

    // The value changed. For a marked load whose new value was produced
    // by another core, the whole interval since the first occurrence was
    // a spin (the paper's detection condition).
    Cycles spin = 0;
    if (e.marked && written_by_other) {
        spin = now - e.firstSeen;
        detected_ += spin;
    }
    restart(e, e.addr, value, now);
    return spin;
}

std::uint32_t
TianSpinDetector::watcherOf(const Entry &e) const
{
    return firstWatcher_ + static_cast<std::uint32_t>(&e - table_.data());
}

void
TianSpinDetector::unwatch(Entry &e)
{
    if (e.watching)
        watches_->unwatch(watcherOf(e));
    e.watching = false;
}

Cycles
TianSpinDetector::observeLoad(PC pc, Addr addr, std::uint64_t value,
                              bool written_by_other, Cycles now)
{
    bool hit = false;
    Entry &e = entryFor(pc, hit);
    e.lastUse = now;
    if (!hit || e.addr != addr || e.watching) {
        // A new load, or the same static load touching a different
        // address: not a spin-loop candidate in its current
        // incarnation; restart tracking.
        unwatch(e);
        restart(e, addr, value, now);
        return 0;
    }
    return compare(e, value, written_by_other, now);
}

Cycles
TianSpinDetector::observeDataLoad(PC pc, Addr line, ThreadId tid,
                                  Cycles now)
{
    bool hit = false;
    Entry &e = entryFor(pc, hit);
    e.lastUse = now;
    const std::uint32_t w = watcherOf(e);
    if (!hit || e.addr != line || !e.watching) {
        unwatch(e);
        watches_->watch(w, line);
        e.watching = true;
        restart(e, line, 0, now);
        return 0;
    }
    const ThreadId writer = watches_->lastWriter(w);
    return compare(e, watches_->stores(w),
                   writer != kInvalidId && writer != tid, now);
}

void
TianSpinDetector::reset()
{
    for (Entry &e : table_)
        unwatch(e);
    table_.assign(table_.size(), Entry{});
    detected_ = 0;
}

std::uint64_t
TianSpinDetector::hardwareBits(const Params &params)
{
    // Per entry: 64-bit PC + 64-bit address + 64-bit data + mark bit +
    // 24-bit timestamp = 217 bits; with the default 8 entries the table
    // is 217 bytes per core, matching Section 4.7.
    const std::uint64_t entry_bits = 64 + 64 + 64 + 1 + 24;
    return entry_bits * static_cast<std::uint64_t>(params.tableEntries);
}

LiSpinDetector::LiSpinDetector(const Params &params)
    : params_(params),
      table_(static_cast<std::size_t>(params.tableEntries))
{
}

Cycles
LiSpinDetector::observeBackwardBranch(PC pc, std::uint64_t state_hash,
                                      Cycles now)
{
    Entry *entry = nullptr;
    Entry *lru = &table_[0];
    for (auto &e : table_) {
        if (e.valid && e.pc == pc) {
            entry = &e;
            break;
        }
        if (!e.valid || e.lastUse < lru->lastUse)
            lru = &e;
    }

    if (!entry) {
        *lru = Entry{};
        lru->valid = true;
        lru->pc = pc;
        lru->stateHash = state_hash;
        lru->lastSeen = now;
        lru->lastUse = now;
        return 0;
    }

    entry->lastUse = now;
    Cycles spin = 0;
    if (entry->stateHash == state_hash) {
        // State unchanged since the last occurrence of this backward
        // branch: the loop body made no progress -> spinning.
        spin = now - entry->lastSeen;
        detected_ += spin;
    }
    entry->stateHash = state_hash;
    entry->lastSeen = now;
    return spin;
}

} // namespace sst
