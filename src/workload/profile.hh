/**
 * @file
 * Benchmark profiles: tunable synthetic stand-ins for the SPLASH-2,
 * PARSEC and Rodinia benchmark/input pairs evaluated in the paper
 * (Figure 6 lists 28 rows). Each profile parameterizes the workload
 * generator so that the profile exercises the same scaling delimiters the
 * real benchmark exhibits: lock contention drives spinning, long waits
 * drive yielding, barrier skew drives synchronization imbalance, working
 * set sizes drive LLC interference, shared hot data drives positive
 * interference, and memory intensity drives bus/bank conflicts.
 */

#ifndef SST_WORKLOAD_PROFILE_HH
#define SST_WORKLOAD_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/registry.hh"
#include "util/types.hh"

namespace sst {

/**
 * All knobs of one synthetic benchmark. The `paper*` fields record the
 * reference values from the paper (Figure 6) so the bench harness can
 * print paper-vs-measured side by side.
 */
struct BenchmarkProfile
{
    std::string name;         ///< benchmark name, e.g. "facesim"
    std::string suite;        ///< "parsec" | "splash2" | "rodinia"
    std::string input;        ///< "small" | "medium" | "" (one input)
    double paperSpeedup16 = 0.0; ///< speedup @16 threads reported in Fig. 6
    std::string paperClass;   ///< "good" | "moderate" | "poor"

    // --- work shape -----------------------------------------------------
    std::uint64_t totalIters = 0; ///< total loop iterations (strong scaling)
    int computePerIter = 0;   ///< ALU instructions per iteration
    int memPerIter = 0;       ///< memory references per iteration
    double storeFrac = 0.1;   ///< fraction of private refs that are stores
    /**
     * Fraction of *shared-region* references that are stores. Shared
     * data is read-mostly in the modelled workloads; every shared store
     * invalidates the other threads' L1 copies (coherence ping-pong), a
     * cost the accounting deliberately does not measure (Section 4.5),
     * so this knob directly controls one of the paper's documented
     * estimation-error sources.
     */
    double sharedStoreFrac = 0.02;

    // --- data footprint ---------------------------------------------------
    std::uint64_t privateBytes = 0; ///< per-thread private working set
    /**
     * Hot window inside the private region (0 = the whole region is
     * hot). References hit the hot window with probability
     * privateHotFrac and the full region otherwise; the cold tail is
     * what generates steady DRAM traffic, so the two knobs decouple
     * footprint (cache pressure) from memory intensity (bus pressure).
     */
    std::uint64_t privateHotBytes = 0;
    double privateHotFrac = 1.0;
    /**
     * Fraction of hot-window references that stream sequentially through
     * it (line after line) instead of hitting a random offset.
     * Streaming references enjoy DRAM row-buffer hits; random ones
     * mostly cause row conflicts.
     */
    double streamFrac = 0.7;
    std::uint64_t sharedBytes = 0;  ///< shared read-mostly working set
    double sharedFrac = 0.0;  ///< fraction of refs going to shared region
    double sharedHotFrac = 0.0; ///< of shared refs, fraction into hot subset
    std::uint64_t sharedHotBytes = 64 * 1024; ///< hot subset size
    /**
     * Phases between movements of the shared hot window (0 = static).
     * A static window produces almost no steady-state positive
     * interference (each private cache would hold it after first touch);
     * a moving window models blocked algorithms touching fresh shared
     * data, the paper's Figure 8 benchmarks.
     */
    int sharedWindowPhases = 0;

    // --- synchronization --------------------------------------------------
    int numLocks = 0;         ///< lock granularity (0 = lock-free)
    double lockFreq = 0.0;    ///< probability of a critical section per iter
    int csCompute = 0;        ///< ALU instructions inside a critical section
    int csMem = 0;            ///< memory refs inside a critical section
    int barrierPhases = 1;    ///< number of barrier-separated phases
    double imbalanceSkew = 0.0; ///< per-phase work skew in [0, 1)

    /**
     * Average available task parallelism (0 = unlimited). When positive,
     * each barrier phase activates only ~parallelismCap of the N threads;
     * the rest go straight to the barrier and yield. This models the
     * limited-parallelism behaviour the paper observes for yield-dominated
     * benchmarks ("the speedup number is an approximation of the average
     * number of active threads", Section 7.2). The work itself is
     * conserved: active threads split the phase's iterations.
     */
    double parallelismCap = 0.0;
    double capJitter = 0.0;   ///< relative per-phase jitter on the cap
    /**
     * How the available parallelism scales below 16 threads:
     * effective cap = parallelismCap * (nthreads/16)^capScale. Zero
     * means the cap is a pure application property (pipeline width);
     * positive values model work partitions whose parallelism shrinks
     * with fewer threads (e.g. domain decompositions).
     */
    double capScale = 0.4;
    bool finalBarrier = true; ///< emit a barrier at the very end of the run

    // --- parallelization overhead ------------------------------------------
    double parOverheadFrac = 0.0; ///< extra instructions per iter when N > 1

    std::uint64_t seed = 1;   ///< base RNG seed

    /** "name" or "name_input" for display, matching the paper's labels. */
    std::string label() const;
};

/**
 * The full 28-row benchmark suite of the paper's Figure 6 (benchmark x
 * input). Order matches the paper's tree listing.
 */
const std::vector<BenchmarkProfile> &benchmarkSuite();

/**
 * Benchmark-profile registry: every suite label in suite order, plus
 * each bare name as an alias of its first input variant ("facesim" ->
 * "facesim_small"). Its find/at/names/namesJoined are the one lookup
 * and the one unknown-label message.
 */
const NamedRegistry<const BenchmarkProfile *> &profileRegistry();

/**
 * Look up a profile by label ("cholesky", "facesim_medium", ...).
 * Fatal error if not found.
 */
const BenchmarkProfile &profileByLabel(const std::string &label);

/**
 * Canonical `key=value` serialization of every outcome-relevant
 * profile field: what job fingerprints and trace workload hashes
 * encode a profile as.
 */
void encodeProfile(std::string &out, const BenchmarkProfile &profile);

} // namespace sst

#endif // SST_WORKLOAD_PROFILE_HH
