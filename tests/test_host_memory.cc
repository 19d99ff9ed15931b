/**
 * @file
 * Host-memory policy of a process that runs experiments: every driver
 * worker allocates from one shared glibc malloc arena, so freed per-job
 * arrays return to one pool instead of staying in a per-thread arena.
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

} // namespace
} // namespace sst
