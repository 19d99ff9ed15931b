/**
 * @file
 * WDL — the workload description language. A `.wdl` file describes a
 * parallel scenario as text: named locks and barriers, thread groups,
 * loop/phase structure, and compute/memory/lock/barrier/yield statements
 * with constant or distribution arguments (including a `zipf(theta)`
 * key->lock generator and `rw_ratio`/`txn_ops` sugar for DBx1000-style
 * transactional contention). The compiler lowers a validated program to
 * deterministic per-thread OpSource streams, so any scenario a user can
 * type runs through the same simulator/accounting/trace/cache stack as
 * the registered C++ profiles: scenario = text file + `sst run --spec`.
 *
 * Determinism contract: op streams are pure functions of (compiled IR,
 * group seed, thread placement). Fingerprints hash the *compiled IR*
 * (canonicalText), never the file path, so identical content at
 * different paths dedups to one cache entry and `sst serve` reschedules
 * WDL jobs safely.
 */

#ifndef SST_WDL_WDL_HH
#define SST_WDL_WDL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.hh"
#include "workload/op_source.hh"
#include "workload/workload_spec.hh"

namespace sst {
namespace wdl {

/** Language/IR version, reported by `sst --version` and fingerprinted
 *  with every WDL job (bump on any semantics-visible change). */
inline constexpr int kWdlVersion = 1;

/** Largest workload file the loader accepts. Keeps the canonical IR
 *  comfortably inside the result cache's canonical-text bound. */
inline constexpr std::size_t kMaxFileBytes = 256 * 1024;

/** Most lock ids one program may declare (arrays count their size);
 *  bounds warmup sweeps and the sync-id namespace. */
inline constexpr std::uint64_t kMaxLockIds = 1024;

/** Largest private/shared region a group may request. */
inline constexpr std::uint64_t kMaxRegionBytes = 64ull * 1024 * 1024;

/** A cycle/count argument: a constant or a uniform integer range. */
struct Dist
{
    enum class Kind : std::uint8_t { kConst, kUniform };
    Kind kind = Kind::kConst;
    std::uint64_t a = 0; ///< constant value / uniform lo
    std::uint64_t b = 0; ///< uniform hi (inclusive)

    bool isConst() const { return kind == Kind::kConst; }
    std::uint64_t draw(Rng &rng) const;
};

/** How a `lock name[...]` statement selects a key in a lock array. */
struct LockSel
{
    enum class Kind : std::uint8_t { kFixed, kUniform, kZipf };
    Kind kind = Kind::kFixed;
    std::uint64_t index = 0; ///< kFixed: 0-based key
    double theta = 0.0;      ///< kZipf: skew in [0, 1)
};

/** Target region of a `memory` statement. */
enum class Region : std::uint8_t {
    kPrivate, ///< the thread's private working set
    kShared,  ///< the group's shared region
    kData,    ///< the innermost held lock's protected data (in-lock only)
};

/** One statement of a group body (a tree: lock/phase/loop have bodies). */
struct Stmt
{
    enum class Kind : std::uint8_t {
        kCompute, ///< `compute <dist>` ALU instructions
        kMemory,  ///< `memory <dist> [shared|data] [store=F]` references
        kLock,    ///< `lock name[sel] { body }` critical section
        kBarrier, ///< `barrier name` arrival at a declared barrier
        kYield,   ///< `yield` group rendezvous (implicit barrier)
        kPhase,   ///< `phase { body }` body then implicit barrier
        kLoop,    ///< `loop <dist> [each] { body }` repetition
        kTxn,     ///< `txn txn_ops=.. rw_ratio=.. locks=.. zipf(t) ..`
    };

    Kind kind = Kind::kCompute;
    int line = 0; ///< 1-based source line, for diagnostics

    Dist count;                      ///< compute/memory/loop/txn_ops amount
    Region region = Region::kPrivate; ///< memory target
    double storeFrac = 0.0;          ///< memory: store probability
    int lock = -1;                   ///< lock/txn: index into Program::locks
    LockSel sel;                     ///< lock: key selector
    int barrier = -1;                ///< barrier/yield/phase: barrier id
    bool each = false;               ///< loop: literal per-thread trips
    double rwRatio = 1.0;            ///< txn: fraction of read transactions
    double theta = 0.0;              ///< txn: zipf skew over the lock array
    Dist csCompute;                  ///< txn: compute per operation
    Dist csMemory;                   ///< txn: data references per operation
    std::vector<Stmt> body;          ///< lock/phase/loop children
};

/** `lock name` (size 1) or `lock name[N]`: N consecutive lock ids. */
struct LockDecl
{
    std::string name;
    std::uint64_t size = 1;
    int firstId = 0; ///< dense, declaration order
};

/** `barrier name`: id = declaration index. */
struct BarrierDecl
{
    std::string name;
};

/** One thread group and its body. */
struct GroupIR
{
    std::string name;
    int nthreads = 1;
    std::uint64_t seed = 0;               ///< resolved (file or program seed)
    std::uint64_t privateBytes = 64 * 1024;
    std::uint64_t sharedBytes = 0;
    std::vector<Stmt> body;
};

/** A parsed, validated workload program. */
struct Program : CompiledWorkload
{
    std::string name;                           ///< `workload "..."`, may be empty
    WorkloadRole role = WorkloadRole::kReplicated;
    std::uint64_t seed = 1;                     ///< default group seed
    std::vector<LockDecl> locks;
    std::vector<BarrierDecl> barriers;
    /** Declared barriers + the widest implicit (yield/phase) sequence;
     *  the end-of-run rendezvous uses id == barrierSlots. */
    int barrierSlots = 0;
    std::vector<GroupIR> groups;

    /**
     * Deterministic serialization of the compiled IR. Re-parsing the
     * canonical text yields a program with identical canonical text
     * (fixed point); fingerprints and trace hashes are built from it.
     */
    std::string canonicalText() const override;

    /** FNV-1a over canonicalText(), with the offset basis of
     *  parser.cc's fnv1a (recorded trace names carry this hash). */
    std::uint64_t irHash() const override;

    /**
     * Op-source factory for the parallel run of @p spec (whose
     * wdlProgram must be this program). Per-thread streams are
     * deterministic in the group seeds and placement; with a single
     * 1-thread group the stream is the sequential program (no sync
     * ops), matching ThreadProgram semantics.
     */
    OpSourceFactory sources(const WorkloadSpec &spec) const override;

    /**
     * 1-thread sequential baseline factory for @p group: full
     * (undivided) loop counts, critical-section bodies kept,
     * lock/barrier/yield ops elided — the serial program the paper's
     * Ts refers to.
     */
    OpSourceFactory groupBaselineSources(const WorkloadSpec &spec,
                                         int group) const override;
};

/**
 * Parse and validate @p text. @p filename is used in diagnostics only.
 * Throws std::invalid_argument with single-line messages of the form
 * "file:line: message (near 'token')".
 */
Program parseProgram(const std::string &text, const std::string &filename);

/** Read @p path (<= kMaxFileBytes) and parse it. */
Program loadProgram(const std::string &path);

/**
 * Wrap a parsed program as a WorkloadSpec: one WorkloadGroup per WDL
 * group with a placeholder profile carrying the group's name (labels),
 * suite "wdl" and the group seed (so JobSpec seed-offset mixing works
 * unchanged), plus the compiled program itself (WorkloadSpec::wdlProgram).
 */
WorkloadSpec toWorkloadSpec(std::shared_ptr<const Program> program,
                            std::string source_path);

/** loadProgram + toWorkloadSpec in one step. */
WorkloadSpec loadWorkloadFile(const std::string &path);

} // namespace wdl
} // namespace sst

#endif // SST_WDL_WDL_HH
