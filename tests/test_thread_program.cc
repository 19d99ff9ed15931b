/**
 * @file
 * Unit and property tests for the workload generator: strong-scaling
 * work conservation, sequential-program purity, warmup/RoI structure,
 * determinism, the parallelism cap, golden op-stream hashes and a
 * bounded heap while many programs are drained.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#if __GLIBC_PREREQ(2, 33)
#define SST_HAVE_MALLINFO2 1
#endif
#endif

#include "test_util.hh"
#include "workload/thread_program.hh"

namespace sst {
namespace {

/** Consume a whole program; returns op-type counts. */
std::map<OpType, std::uint64_t>
consume(ThreadProgram &prog, std::uint64_t cap = 10'000'000)
{
    std::map<OpType, std::uint64_t> counts;
    for (std::uint64_t i = 0; i < cap; ++i) {
        const Op op = prog.nextOp();
        ++counts[op.type];
        if (op.type == OpType::kEnd)
            break;
    }
    return counts;
}

TEST(ThreadProgram, SequentialProgramHasNoSyncOps)
{
    const BenchmarkProfile p = test::lockHeavyProfile();
    ThreadProgram prog(p, 0, 1);
    const auto counts = consume(prog);
    EXPECT_EQ(counts.count(OpType::kLockAcquire), 0u);
    EXPECT_EQ(counts.count(OpType::kLockRelease), 0u);
    EXPECT_EQ(counts.count(OpType::kBarrier), 0u);
    EXPECT_EQ(counts.at(OpType::kEnd), 1u);
    EXPECT_EQ(counts.at(OpType::kRoiBegin), 1u);
}

TEST(ThreadProgram, ParallelProgramBalancesLockOps)
{
    const BenchmarkProfile p = test::lockHeavyProfile();
    ThreadProgram prog(p, 0, 4);
    const auto counts = consume(prog);
    EXPECT_GT(counts.at(OpType::kLockAcquire), 0u);
    EXPECT_EQ(counts.at(OpType::kLockAcquire),
              counts.at(OpType::kLockRelease));
}

TEST(ThreadProgram, BarrierPerPhasePlusWarmup)
{
    BenchmarkProfile p = test::barrierHeavyProfile();
    ThreadProgram prog(p, 1, 4);
    const auto counts = consume(prog);
    // 16 phase barriers (incl. final) + 1 warmup barrier.
    EXPECT_EQ(counts.at(OpType::kBarrier),
              static_cast<std::uint64_t>(p.barrierPhases) + 1);
}

TEST(ThreadProgram, NoFinalBarrierWhenDisabled)
{
    BenchmarkProfile p = test::barrierHeavyProfile();
    p.finalBarrier = false;
    ThreadProgram prog(p, 0, 4);
    const auto counts = consume(prog);
    EXPECT_EQ(counts.at(OpType::kBarrier),
              static_cast<std::uint64_t>(p.barrierPhases - 1) + 1);
}

TEST(ThreadProgram, DeterministicStreams)
{
    const BenchmarkProfile p = test::sharingProfile();
    ThreadProgram a(p, 2, 8), b(p, 2, 8);
    for (int i = 0; i < 50000; ++i) {
        const Op oa = a.nextOp();
        const Op ob = b.nextOp();
        ASSERT_EQ(static_cast<int>(oa.type), static_cast<int>(ob.type));
        ASSERT_EQ(oa.addr, ob.addr);
        ASSERT_EQ(oa.count, ob.count);
        if (oa.type == OpType::kEnd)
            break;
    }
}

TEST(ThreadProgram, EndIsSticky)
{
    BenchmarkProfile p = test::computeOnlyProfile();
    p.totalIters = 10;
    ThreadProgram prog(p, 0, 1);
    consume(prog);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(prog.nextOp().type, OpType::kEnd);
    EXPECT_TRUE(prog.finished());
}

/** Property: total iterations are conserved across thread counts. */
class WorkConservation : public ::testing::TestWithParam<int>
{
};

TEST_P(WorkConservation, PlannedItersSumToTotal)
{
    const int nthreads = GetParam();
    for (const BenchmarkProfile &p :
         {test::computeOnlyProfile(), test::barrierHeavyProfile(),
          test::sharingProfile()}) {
        std::uint64_t total = 0;
        for (int t = 0; t < nthreads; ++t) {
            ThreadProgram prog(p, t, nthreads);
            total += prog.plannedIters();
        }
        EXPECT_EQ(total, p.totalIters) << p.name << " @ " << nthreads;
    }
}

TEST_P(WorkConservation, CappedProfilesConserveWorkToo)
{
    const int nthreads = GetParam();
    BenchmarkProfile p = test::computeOnlyProfile();
    p.parallelismCap = 3.0;
    p.capJitter = 0.3;
    p.barrierPhases = 10;
    p.imbalanceSkew = 0.25;
    std::uint64_t total = 0;
    for (int t = 0; t < nthreads; ++t) {
        ThreadProgram prog(p, t, nthreads);
        total += prog.plannedIters();
    }
    EXPECT_EQ(total, p.totalIters);
}

INSTANTIATE_TEST_SUITE_P(Threads, WorkConservation,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

TEST(ThreadProgram, ParallelismCapLimitsActiveThreads)
{
    BenchmarkProfile p = test::computeOnlyProfile();
    p.parallelismCap = 4.0;
    p.capJitter = 0.0;
    p.capScale = 0.0;
    p.barrierPhases = 8;
    for (int phase = 0; phase < 8; ++phase) {
        EXPECT_EQ(ThreadProgram::activeThreads(p, 16, phase), 4);
        // With fewer threads than the cap, everyone is active.
        EXPECT_EQ(ThreadProgram::activeThreads(p, 2, phase), 2);
    }
    // Exactly `active` threads get work: with a single phase there is
    // no rotation, so precisely `parallelismCap` of the 16 threads plan
    // any iterations at all.
    BenchmarkProfile single = p;
    single.barrierPhases = 1;
    int with_work = 0;
    for (int t = 0; t < 16; ++t) {
        ThreadProgram prog(single, t, 16);
        with_work += prog.plannedIters() > 0;
    }
    EXPECT_EQ(with_work, 4);
}

TEST(ThreadProgram, InstructionsGrowWithParallelOverhead)
{
    BenchmarkProfile p = test::computeOnlyProfile();
    p.parOverheadFrac = 0.25;
    ThreadProgram seq(p, 0, 1);
    consume(seq);
    std::uint64_t par_instr = 0;
    for (int t = 0; t < 4; ++t) {
        ThreadProgram prog(p, t, 4);
        consume(prog);
        par_instr += prog.instructionsEmitted();
    }
    // Parallel emits >= ~20% more instructions than sequential.
    EXPECT_GT(static_cast<double>(par_instr),
              1.15 * static_cast<double>(seq.instructionsEmitted()));
}

TEST(ThreadProgram, WarmupSweepsPrivateRegion)
{
    BenchmarkProfile p = test::computeOnlyProfile();
    p.privateBytes = 4096; // 64 lines
    ThreadProgram prog(p, 0, 1);
    int warmup_loads = 0;
    for (;;) {
        const Op op = prog.nextOp();
        if (op.type == OpType::kRoiBegin)
            break;
        if (op.type == OpType::kLoad)
            ++warmup_loads;
    }
    EXPECT_GE(warmup_loads, 64);
}

/** Hash of all @p nthreads streams of profile @p label, each followed
 *  by the thread's instruction count. */
std::uint64_t
programHash(const char *label, int nthreads)
{
    const BenchmarkProfile &p = profileByLabel(label);
    std::uint64_t h = 0;
    for (int t = 0; t < nthreads; ++t) {
        ThreadProgram prog(p, t, nthreads);
        h = test::hashStream(prog, h);
        h = test::hashMix(h, prog.instructionsEmitted());
    }
    return h;
}

TEST(ThreadProgram, StreamsMatchGoldenHashes)
{
    // Captured from the generator that built each thread's whole warmup
    // sweep in one buffer; streaming the warmup in chunks (and any
    // later refactor) must reproduce every op bit for bit.
    struct Golden
    {
        const char *label;
        int nthreads;
        std::uint64_t hash;
    };
    const Golden golden[] = {
        {"radix", 1, 0xb68b0b69e29d2e5eULL},
        {"radix", 16, 0x8fa48cab8f82c180ULL},
        {"radix", 64, 0xcdbe1f4c10a0ce8fULL},
        {"cholesky", 1, 0xb307dbf727002e77ULL},
        {"cholesky", 16, 0x8ed4682527f61089ULL},
        {"cholesky", 64, 0x7194bd0e7dc9c404ULL},
        {"canneal_small", 1, 0xd5ebeebb587e62e5ULL},
        {"canneal_small", 16, 0x7afec8c71f941017ULL},
        {"canneal_small", 64, 0x178ca6a1b1bae2f5ULL},
    };
    for (const Golden &g : golden) {
        EXPECT_EQ(programHash(g.label, g.nthreads), g.hash)
            << g.label << " @" << g.nthreads;
    }
}

#ifdef SST_HAVE_MALLINFO2
/** Bytes the process currently holds in malloc'd blocks. */
std::size_t
liveHeapBytes()
{
    const struct mallinfo2 m = mallinfo2();
    return m.uordblks + m.hblkhd;
}
#endif

TEST(ThreadProgram, DrainingManyProgramsKeepsTheHeapBounded)
{
#ifdef SST_HAVE_MALLINFO2
    // 64 radix threads each sweep an 8 MB private region (131 K loads)
    // before the RoI. Drained round-robin, as the simulator interleaves
    // them, buffering whole sweeps would hold ~270 MB at once.
    const BenchmarkProfile &p = profileByLabel("radix");
    constexpr int kThreads = 64;
    const std::size_t base = liveHeapBytes();
    std::vector<std::unique_ptr<ThreadProgram>> progs;
    for (int t = 0; t < kThreads; ++t)
        progs.push_back(std::make_unique<ThreadProgram>(p, t, kThreads));
    std::size_t peak = 0;
    for (std::uint64_t round = 0;; ++round) {
        int live = 0;
        for (const auto &prog : progs)
            live += prog->nextOp().type != OpType::kEnd;
        if (round % 1024 == 0 || live == 0) {
            const std::size_t now = liveHeapBytes();
            peak = std::max(peak, now > base ? now - base : 0);
        }
        if (live == 0)
            break;
    }
    EXPECT_LT(peak, std::size_t{16} << 20);
#else
    GTEST_SKIP() << "needs glibc mallinfo2";
#endif
}

} // namespace
} // namespace sst
