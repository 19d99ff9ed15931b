/**
 * @file
 * Host-memory policy of a process that runs experiments: every driver
 * worker allocates from one shared glibc malloc arena, so freed per-job
 * arrays return to one pool instead of staying in a per-thread arena,
 * and a finished job keeps only its stored form, so what a batch
 * returns grows with its jobs' threads, not with their barriers.
 *
 * This is its own test binary on purpose: an arena belongs to the first
 * thread that allocates in it, so the check only means something in a
 * process where no earlier test's threads have allocated yet.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "driver/driver.hh"
#include "tests/test_util.hh"

namespace sst {
namespace {

#if defined(__GLIBC__)
/** The `<heap>` elements of malloc_info(): one per malloc arena. */
int
mallocHeaps()
{
    char *buf = nullptr;
    std::size_t len = 0;
    FILE *out = open_memstream(&buf, &len);
    if (out == nullptr)
        return -1;
    malloc_info(0, out);
    std::fclose(out);
    const std::string xml(buf, len);
    std::free(buf);
    int heaps = 0;
    for (std::size_t at = xml.find("<heap nr="); at != std::string::npos;
         at = xml.find("<heap nr=", at + 1))
        ++heaps;
    return heaps;
}
#endif

TEST(HostMemory, FourWorkerBatchSharesOneMallocArena)
{
#if !defined(__GLIBC__)
    GTEST_SKIP() << "malloc arenas are a glibc notion";
#else
    std::vector<JobSpec> specs;
    for (int nthreads : {2, 4})
        for (std::uint64_t seed = 0; seed < 4; ++seed) {
            JobSpec spec = JobSpec::forProfile(test::computeOnlyProfile(),
                                               nthreads);
            spec.seedOffset = seed;
            specs.push_back(spec);
        }
    DriverOptions opts;
    opts.jobs = 4;
    const std::vector<JobResult> results = runExperimentBatch(specs, opts);
    for (const JobResult &r : results)
        ASSERT_EQ(r.status, JobStatus::kOk) << r.error;

    EXPECT_EQ(mallocHeaps(), 1)
        << "each driver worker allocated from an arena of its own";
#endif
}

#if defined(__GLIBC__)
/** Heap bytes in use: small chunks plus mmapped ones. */
std::size_t
heapInUse()
{
    const struct mallinfo2 m = mallinfo2();
    return m.uordblks + m.hblkhd;
}
#endif

TEST(HostMemory, FinishedJobsHoldCountersNotBarrierSnapshots)
{
#if !defined(__GLIBC__)
    GTEST_SKIP() << "mallinfo2 is a glibc call";
#else
    // 64 threads crossing 48 barriers: a full run holds 48 snapshots of
    // 64 threads' counters, the stored form one set.
    constexpr int kThreads = 64;
    BenchmarkProfile profile = test::barrierHeavyProfile();
    profile.barrierPhases = 48;
    profile.totalIters = 48 * kThreads;
    std::vector<JobSpec> specs;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        JobSpec spec = JobSpec::forProfile(profile, kThreads);
        spec.seedOffset = seed;
        specs.push_back(spec);
    }
    DriverOptions opts;
    opts.jobs = 2;

    const std::size_t before = heapInUse();
    const std::vector<JobResult> results = runExperimentBatch(specs, opts);
    const std::size_t held = heapInUse() - before;
    for (const JobResult &r : results)
        ASSERT_EQ(r.status, JobStatus::kOk) << r.error;

    // O(threads) per job: the parallel and baseline counters, with room
    // for the labels and allocator overhead. One job's barrier
    // snapshots alone would take 48x the counters.
    const std::size_t perJob =
        4 * (kThreads + 1) * sizeof(ThreadCounters);
    EXPECT_LT(held, specs.size() * perJob)
        << "a batch of " << specs.size() << " jobs holds " << held
        << " heap bytes after it returned";
#endif
}

} // namespace
} // namespace sst
