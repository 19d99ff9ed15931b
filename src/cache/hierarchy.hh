/**
 * @file
 * The two-level cache hierarchy of the simulated CMP: per-core private
 * L1 data caches and a shared, inclusive last-level cache (LLC) with a
 * directory-based MSI write-invalidate coherence protocol. The hierarchy
 * also hosts the per-core ATDs (and optional full-shadow oracle ATDs used
 * by tests and ablations) and classifies every access for the accounting
 * architecture: inter-thread hits/misses, coherency misses, writebacks.
 *
 * Latency is *not* applied here — the hierarchy reports what happened and
 * the core model / DRAM model translate outcomes into cycles. This keeps
 * tag manipulation single-pass and testable in isolation.
 */

#ifndef SST_CACHE_HIERARCHY_HH
#define SST_CACHE_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/atd.hh"
#include "cache/set_assoc.hh"
#include "util/types.hh"

namespace sst {

/**
 * Hard cap on simulated cores: the LLC directory tracks L1 copies in a
 * 64-bit sharers bitmap. Layers that accept a core/thread count from
 * users (driver validation, CLIs) check against this instead of letting
 * the constructor assert abort the process.
 */
inline constexpr int kMaxSimCores = 64;


/** Geometry of the cache hierarchy; defaults follow the paper (Sec. 5). */
struct CacheParams
{
    std::uint64_t l1Bytes = 64 * 1024; ///< private L1D, 64KB
    int l1Ways = 8;
    std::uint64_t llcBytes = 2 * 1024 * 1024; ///< shared L2 = LLC, 2MB
    int llcWays = 16;
    int atdSamplingFactor = 32; ///< monitor every 32nd LLC set
    bool oracleAtds = false;    ///< also keep full-shadow ATDs (testing)
};

/** Everything the rest of the system needs to know about one access. */
struct AccessOutcome
{
    Addr line = 0;
    bool l1Hit = false;
    bool llcHit = false;          ///< meaningful when !l1Hit
    bool coherencyMiss = false;   ///< L1 tag resident but invalidated
    bool dirtyInOtherL1 = false;  ///< needed a cache-to-cache transfer
    bool atdSampled = false;
    bool atdHit = false;
    bool interThreadMiss = false; ///< LLC miss, ATD hit (negative interf.)
    bool interThreadHit = false;  ///< LLC hit, ATD miss (positive interf.)
    bool oracleInterThreadMiss = false; ///< full-shadow classification
    bool oracleInterThreadHit = false;
    bool victimWriteback = false; ///< LLC evicted a dirty line
    Addr victimLine = 0;

    /** Did the access go to DRAM? */
    bool dramAccess() const { return !l1Hit && !llcHit; }
};

/** Per-core ground-truth counters kept by the hierarchy. */
struct CacheStats
{
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t coherencyMisses = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t interThreadHitsSampled = 0;
    std::uint64_t interThreadMissesSampled = 0;
    std::uint64_t oracleInterThreadHits = 0;
    std::uint64_t oracleInterThreadMisses = 0;
    std::uint64_t invalidationsReceived = 0;
    std::uint64_t writebacks = 0;
};

/**
 * Private L1s + shared LLC + coherence + ATDs.
 *
 * The LLC is inclusive: every valid L1 line is valid in the LLC, and its
 * LLC way's directory entry (sharers bitmap, dirty owner) records it.
 * Only the LLC keeps directory fields, in arrays indexed by LLC slot.
 * Each L1 way stores the LLC slot of its line, so L1 evictions, write
 * upgrades and flushes update the directory without searching the LLC.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(int ncores, const CacheParams &params);

    /**
     * Perform one access by @p core to byte address @p addr.
     * Updates all tag state (L1, LLC, directory, ATDs) and returns the
     * outcome classification.
     */
    AccessOutcome access(CoreId core, Addr addr, bool is_write);

    /**
     * Drop all of @p core's L1 contents (thread migration cost model:
     * the next thread starts with a cold L1).
     */
    void flushL1(CoreId core);

    /** Zero all per-core counters (region-of-interest start). */
    void resetStats();

    const CacheStats &stats(CoreId core) const
    {
        return stats_[static_cast<std::size_t>(core)];
    }

    const Atd &atd(CoreId core) const
    {
        return *atds_[static_cast<std::size_t>(core)];
    }

    int ncores() const { return ncores_; }
    const CacheParams &params() const { return params_; }

    /**
     * Check the coherence invariants over the whole hierarchy:
     *  - every valid L1 line is valid in the LLC, its sharer bit is set
     *    and its LLC link points at it;
     *  - a line's dirty owner holds a valid, dirty copy;
     *  - at most one L1 copy of a line is dirty.
     * @return the first violation found, or "" when all hold
     */
    std::string checkInvariants() const;

  private:
    /** One core's private L1: its tags plus, per way, the LLC slot of
     *  the line held there (meaningful only while the way is valid). */
    struct L1Cache
    {
        SetAssocArray array;
        std::vector<Slot> llcSlot;
    };

    /** @p link, after checking that inclusion holds: it is the LLC slot
     *  of a valid copy of @p line. */
    Slot linkedLlcSlot(Slot link, Addr line) const;
    /** Invalidate every L1 copy of @p line but @p writer's and record
     *  @p writer as the dirty owner of LLC slot @p dir. */
    void makeExclusive(Addr line, CoreId writer, Slot dir);
    /** Directory update for @p core's L1 dropping its copy of the line
     *  at LLC slot @p dir: a clean copy goes silently; a dirty one
     *  writes back, and the LLC then owns the only up-to-date copy. */
    void dropL1Copy(CoreId core, Slot dir, bool dirty);
    /** Fill @p line into @p core's L1, where findAny() found it at
     *  @p resident, as the copy of LLC slot @p dir. */
    void insertIntoL1(CoreId core, Addr line, Slot resident, bool dirty,
                      Slot dir);

    int ncores_;
    CacheParams params_;
    std::vector<L1Cache> l1s_;
    SetAssocArray llc_;
    /** LLC directory, per LLC slot: bitmap of the L1s holding a copy. */
    std::vector<std::uint64_t> sharers_;
    /** LLC directory, per LLC slot: core with the modified copy, in a
     *  byte (cores are at most kMaxSimCores). */
    std::vector<std::int8_t> dirtyOwner_;
    std::vector<std::unique_ptr<Atd>> atds_;
    std::vector<std::unique_ptr<Atd>> oracleAtds_;
    std::vector<CacheStats> stats_;
};

} // namespace sst

#endif // SST_CACHE_HIERARCHY_HH
