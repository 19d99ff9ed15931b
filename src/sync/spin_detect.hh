/**
 * @file
 * Spin detection mechanisms (Section 4.3 of the paper).
 *
 * TianSpinDetector implements Tian et al. [14]: a small per-core load
 * table watches load instructions; a load that returns the same value
 * from the same address `markThreshold` times is marked as a potential
 * spin-loop load. When a marked load later observes a *different* value
 * that was written by another core, the interval since the load's first
 * occurrence is reported as spinning time. This is the mechanism the
 * paper adopts (simpler hardware: 8 entries, 217 bytes per core).
 *
 * For ordinary data, the values a Tian entry compares come from
 * LineWatches: the stores to the lines the tables hold right now.
 *
 * LiSpinDetector implements Li et al. [11]: backward branches are
 * monitored; if processor state (register state + intervening stores) is
 * unchanged since the previous occurrence of the same backward branch,
 * the elapsed interval is spinning. Implemented for the paper's
 * comparison and exposed through the spin-detector ablation bench.
 */

#ifndef SST_SYNC_SPIN_DETECT_HH
#define SST_SYNC_SPIN_DETECT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace sst {

/**
 * The data lines the Tian tables of one run watch, shared by all its
 * threads. Each table entry is one watcher: while it tracks a data load
 * it watches that load's line, counting the stores the line takes and
 * recording the last writer. Stores to lines no entry holds cost one
 * bucket probe and are forgotten, so the table never holds more than
 * tableEntries lines per thread, whatever the footprint. An entry
 * compares counts only for the line it watched since it read it, and
 * the count changes if and only if a store hit the line in between:
 * the answers equal those of a tracker of every line ever stored.
 */
class LineWatches
{
  public:
    /** Room for @p watchers watchers, ids 0 .. watchers-1. */
    explicit LineWatches(std::size_t watchers);

    /** Watcher @p w, watching nothing, starts watching line @p line
     *  with a store count of 0. */
    void watch(std::uint32_t w, Addr line);

    /** Watcher @p w stops watching its line. */
    void unwatch(std::uint32_t w);

    /** A store by @p tid to line @p line, counted by its watchers. */
    void onStore(Addr line, ThreadId tid);

    /** Stores to @p w's line since it started watching. */
    std::uint64_t stores(std::uint32_t w) const
    {
        return watchers_[w].stores;
    }

    /** Writer of the last of those stores (kInvalidId before one). */
    ThreadId lastWriter(std::uint32_t w) const
    {
        return watchers_[w].lastWriter;
    }

  private:
    /** End of a bucket's list. */
    static constexpr std::uint32_t kNone = ~std::uint32_t(0);

    struct Watcher
    {
        Addr line = 0;
        std::uint64_t stores = 0;
        ThreadId lastWriter = kInvalidId;
        std::uint32_t next = kNone; ///< next watcher in the bucket
    };

    std::size_t bucket(Addr line) const;

    std::vector<Watcher> watchers_;
    /** First watcher of each bucket's list; at least twice as many
     *  buckets as watchers keeps the lists short. */
    std::vector<std::uint32_t> heads_;
    int shift_ = 0; ///< 64 - log2(heads_.size())
};

/** Load-based spin detector (Tian et al.), one instance per core. */
class TianSpinDetector
{
  public:
    struct Params
    {
        int tableEntries = 8;  ///< spin loops contain at most 8 loads
        int markThreshold = 4; ///< identical loads before marking
    };

    TianSpinDetector() : TianSpinDetector(Params{}) {}
    /** @p watches, when set, serves observeDataLoad(): entry i is its
     *  watcher @p first_watcher + i, so detectors sharing it take
     *  disjoint id ranges. It must outlive this detector. */
    explicit TianSpinDetector(const Params &params,
                              LineWatches *watches = nullptr,
                              std::uint32_t first_watcher = 0);

    /** Entries are linked into the watch table: a copy would unlink
     *  them twice. */
    TianSpinDetector(const TianSpinDetector &) = delete;
    TianSpinDetector &operator=(const TianSpinDetector &) = delete;
    TianSpinDetector(TianSpinDetector &&) = default;

    /**
     * Observe one committed load whose value the caller knows (the
     * simulator's lock and barrier words).
     *
     * @param pc load instruction address
     * @param addr effective address
     * @param value loaded value (a version number is sufficient — the
     *        detector only compares for equality)
     * @param written_by_other the last writer of @p addr is another core
     * @param now current cycle
     * @return detected spinning cycles ending now (0 if none)
     */
    Cycles observeLoad(PC pc, Addr addr, std::uint64_t value,
                       bool written_by_other, Cycles now);

    /**
     * Observe one committed data load by @p tid of line @p line. The
     * entry tracking @p pc watches @p line and compares its store
     * count; the answers equal observeLoad() fed each line's count of
     * all stores so far and its last writer.
     */
    Cycles observeDataLoad(PC pc, Addr line, ThreadId tid, Cycles now);

    /** Empty the table (a context switch), dropping its watches. */
    void reset();

    /** Total spinning cycles reported so far. */
    Cycles detectedCycles() const { return detected_; }

    /** Hardware bits of the load table (Section 4.7: 217 bytes/core). */
    static std::uint64_t hardwareBits() { return hardwareBits(Params{}); }
    static std::uint64_t hardwareBits(const Params &params);

  private:
    struct Entry
    {
        bool valid = false;
        bool marked = false;
        PC pc = 0;
        Addr addr = 0;
        std::uint64_t value = 0;
        int count = 0;
        Cycles firstSeen = 0;
        Cycles lastUse = 0;
        /** Tracks a data load: the entry's watcher watches addr.
         *  Data and sync-word loads never share a PC. */
        bool watching = false;
    };

    /** The entry of @p pc, or its LRU victim emptied for it. */
    Entry &entryFor(PC pc, bool &hit);
    /** Start tracking @p addr at @p value from @p now. */
    void restart(Entry &e, Addr addr, std::uint64_t value, Cycles now);
    /** Same address, a value read: count, mark or report a spin. */
    Cycles compare(Entry &e, std::uint64_t value, bool written_by_other,
                   Cycles now);
    std::uint32_t watcherOf(const Entry &e) const;
    void unwatch(Entry &e);

    Params params_;
    LineWatches *watches_ = nullptr;
    std::uint32_t firstWatcher_ = 0;
    std::vector<Entry> table_;
    Cycles detected_ = 0;
};

/** Backward-branch spin detector (Li et al.), one instance per core. */
class LiSpinDetector
{
  public:
    struct Params
    {
        int tableEntries = 16; ///< monitored backward branches
    };

    LiSpinDetector() : LiSpinDetector(Params{}) {}
    explicit LiSpinDetector(const Params &params);

    /**
     * Observe one backward branch at @p pc with the current compact
     * processor-state hash @p state_hash (callers fold the most recently
     * loaded value and a store serial number into the hash; any non-silent
     * store changes it, per the mechanism's definition).
     * @return spinning cycles accumulated since the branch's previous
     *         occurrence if state is unchanged, else 0
     */
    Cycles observeBackwardBranch(PC pc, std::uint64_t state_hash,
                                 Cycles now);

    Cycles detectedCycles() const { return detected_; }

  private:
    struct Entry
    {
        bool valid = false;
        PC pc = 0;
        std::uint64_t stateHash = 0;
        Cycles lastSeen = 0;
        Cycles lastUse = 0;
    };

    Params params_;
    std::vector<Entry> table_;
    Cycles detected_ = 0;
};

} // namespace sst

#endif // SST_SYNC_SPIN_DETECT_HH
