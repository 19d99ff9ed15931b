/**
 * @file
 * Shared helpers for the test suite: small controlled benchmark profiles
 * that exercise one mechanism at a time.
 */

#ifndef SST_TESTS_TEST_UTIL_HH
#define SST_TESTS_TEST_UTIL_HH

#include <cstdint>

#include "workload/op_source.hh"
#include "workload/profile.hh"

namespace sst {
namespace test {

/** Fold @p v into the running order-sensitive hash @p h. */
inline std::uint64_t
hashMix(std::uint64_t h, std::uint64_t v)
{
    h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 29);
}

/**
 * Drain @p src and fold every field of every op, kEnd included, into
 * @p h. Golden values of this hash pin op streams exactly.
 */
inline std::uint64_t
hashStream(OpSource &src, std::uint64_t h)
{
    for (;;) {
        const Op op = src.nextOp();
        h = hashMix(h, static_cast<std::uint64_t>(op.type));
        h = hashMix(h, op.count);
        h = hashMix(h, op.addr);
        h = hashMix(h, op.pc);
        h = hashMix(h, static_cast<std::uint64_t>(op.id));
        if (op.type == OpType::kEnd)
            return h;
    }
}

/** A tiny compute-only profile (no sync, no sharing). */
inline BenchmarkProfile
computeOnlyProfile()
{
    BenchmarkProfile p;
    p.name = "t-compute";
    p.suite = "test";
    p.totalIters = 2000;
    p.computePerIter = 100;
    p.memPerIter = 4;
    p.privateBytes = 8 * 1024;
    p.barrierPhases = 1;
    p.seed = 7;
    return p;
}

/** One hot lock, every iteration enters a short critical section. */
inline BenchmarkProfile
lockHeavyProfile()
{
    BenchmarkProfile p = computeOnlyProfile();
    p.name = "t-lock";
    p.totalIters = 3000;
    p.numLocks = 1;
    p.lockFreq = 1.0;
    p.csCompute = 60;
    p.csMem = 1;
    return p;
}

/** Many short barrier phases with skewed work. */
inline BenchmarkProfile
barrierHeavyProfile()
{
    BenchmarkProfile p = computeOnlyProfile();
    p.name = "t-barrier";
    p.totalIters = 4000;
    p.barrierPhases = 16;
    p.imbalanceSkew = 0.3;
    return p;
}

/** Shared-heavy profile with a moving hot window (positive interf.). */
inline BenchmarkProfile
sharingProfile()
{
    BenchmarkProfile p = computeOnlyProfile();
    p.name = "t-sharing";
    p.totalIters = 4000;
    p.memPerIter = 12;
    p.sharedBytes = 512 * 1024;
    p.sharedFrac = 0.5;
    p.sharedHotFrac = 0.5;
    p.sharedHotBytes = 32 * 1024;
    p.sharedWindowPhases = 2;
    p.barrierPhases = 8;
    return p;
}

/** Footprint far beyond the LLC: steady DRAM traffic. */
inline BenchmarkProfile
memoryHeavyProfile()
{
    BenchmarkProfile p = computeOnlyProfile();
    p.name = "t-memory";
    p.totalIters = 2000;
    p.memPerIter = 16;
    p.privateBytes = 4 * 1024 * 1024;
    p.privateHotBytes = 16 * 1024;
    p.privateHotFrac = 0.9;
    return p;
}

} // namespace test
} // namespace sst

#endif // SST_TESTS_TEST_UTIL_HH
