/**
 * @file
 * Tests of the scheduler subsystem (src/sched/) and the unified event
 * engine. The load-bearing property is bit-exact reproducibility: the
 * default affinity-fifo policy must reproduce the golden speedup
 * numbers the pre-refactor hard-wired scheduler produced (anchored here
 * as exact Ts/Tp cycle counts), alternative policies must conserve the
 * workload (same committed instructions) and terminate, and the
 * preemption-wait bugfix must account every descheduled cycle.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/experiment.hh"
#include "sched/policy.hh"
#include "sim/event_queue.hh"
#include "sim/system.hh"
#include "test_util.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"
#include "workload/profile.hh"

namespace sst {
namespace {

/** @p nthreads threads of the cholesky profile. */
WorkloadSpec
cholesky(int nthreads)
{
    return WorkloadSpec::homogeneous(profileByLabel("cholesky"), nthreads);
}

// ---- golden anchors --------------------------------------------------------

/**
 * Exact Ts/Tp of the paper-default machine, captured from the
 * pre-refactor scheduler (verified bit-identical across the event
 * engine + sched/ extraction). Any change here is a behavioural change
 * of the default configuration and must be deliberate.
 */
struct Golden
{
    const char *label;
    int nthreads;
    Cycles ts;
    Cycles tp;
};

constexpr Golden kGolden[] = {
    {"cholesky", 1, 3432501, 3432501},
    {"cholesky", 4, 3432501, 1077672},
    {"cholesky", 16, 3432501, 640758},
    {"fft", 1, 1963196, 1963196},
    {"fft", 4, 1963196, 527328},
    {"fft", 16, 1963196, 207740},
    {"lu.cont", 1, 3227759, 3227759},
    {"lu.cont", 4, 3227759, 893794},
    {"lu.cont", 16, 3227759, 558743},
};

TEST(SchedGolden, DefaultPolicyReproducesGoldenStacks)
{
    for (const Golden &g : kGolden) {
        const SpeedupExperiment e = runExperiment(
            SimParams{},
            WorkloadSpec::homogeneous(profileByLabel(g.label), g.nthreads));
        EXPECT_EQ(e.ts, g.ts) << g.label << " x" << g.nthreads;
        EXPECT_EQ(e.tp, g.tp) << g.label << " x" << g.nthreads;
        EXPECT_TRUE(e.stack.sumsToHeight(1e-9))
            << g.label << " x" << g.nthreads;
    }
}

TEST(SchedGolden, ExplicitAffinityFifoMatchesDefault)
{
    SimParams params;
    params.schedPolicy = SchedPolicy::kAffinityFifo;
    const SpeedupExperiment e = runExperiment(params, cholesky(4));
    EXPECT_EQ(e.ts, 3432501u);
    EXPECT_EQ(e.tp, 1077672u);
}

TEST(SchedGolden, OversubscribedGolden)
{
    // 16 threads on 4 cores (Figure 7 regime): preemption, wake
    // placement and migration all active.
    const RunResult r = simulateWorkload(SimParams{}, cholesky(16), 4);
    EXPECT_EQ(r.executionTime, 1547168u);
    EXPECT_EQ(r.totalInstructions, 8267294u);
}

TEST(SchedGolden, OversubscribedEngineCounters)
{
    // Cholesky at 2 threads per core: the scheduler, wake and
    // preemption paths all hot. Every engine counter is deterministic.
    struct Expected
    {
        int ncores;
        std::uint64_t events, cycles, wakes, preemptions, heapOps;
    };
    constexpr Expected kExpected[] = {
        {4, 323462, 1317383, 2409, 336, 325915},
        {16, 423099, 1797299, 3751, 5186, 427059},
        {64, 718325, 2723735, 5432, 38736, 724648},
    };
    for (const Expected &x : kExpected) {
        SCOPED_TRACE(std::to_string(x.ncores) + " cores");
        const RunResult r = simulateWorkload(
            SimParams{}, cholesky(2 * x.ncores), x.ncores);
        EXPECT_EQ(r.engineEvents, x.events);
        EXPECT_EQ(r.executionTime, x.cycles);
        EXPECT_EQ(r.engineWakes, x.wakes);
        EXPECT_EQ(r.enginePreemptions, x.preemptions);
        EXPECT_EQ(r.engineHeapOps, x.heapOps);
    }
}

// ---- preemption-wait accounting (the satellite bugfix) ---------------------

TEST(SchedAccounting, PreemptionWaitIsCharged)
{
    const RunResult r = simulateWorkload(SimParams{}, cholesky(16), 4);
    Cycles preempt = 0;
    for (const ThreadCounters &t : r.threads) {
        // The OS-visible yield counter must cover every descheduled
        // wait, including time-slice preemptions — each thread's
        // hardware counter equals the exact ground-truth sum.
        EXPECT_EQ(t.yieldCycles, t.gtYield());
        preempt += t.gtPreemptYield;
    }
    EXPECT_GT(preempt, 0u);
}

TEST(SchedAccounting, NoPreemptionWhenNotOversubscribed)
{
    const RunResult r = simulateWorkload(SimParams{}, cholesky(4), 4);
    for (const ThreadCounters &t : r.threads)
        EXPECT_EQ(t.gtPreemptYield, 0u);
}

// ---- alternative policies --------------------------------------------------

class SchedPolicies : public ::testing::TestWithParam<SchedPolicy>
{
};

TEST_P(SchedPolicies, OversubscribedRunConservesInstructions)
{
    // Without locks the op streams are schedule-independent (barrier
    // arrivals are charged exactly once), so every policy must commit
    // exactly the same program instructions; completing at all shows
    // the policy neither deadlocks nor starves a thread.
    const WorkloadSpec w =
        WorkloadSpec::homogeneous(test::barrierHeavyProfile(), 16);
    const RunResult ref = simulateWorkload(SimParams{}, w, 4);

    SimParams params;
    params.schedPolicy = GetParam();
    const RunResult r = simulateWorkload(params, w, 4);
    EXPECT_EQ(r.totalInstructions, ref.totalInstructions);
    EXPECT_GT(r.executionTime, 0u);
    for (const ThreadCounters &t : r.threads)
        EXPECT_GT(t.finishTime, 0u);
}

TEST_P(SchedPolicies, LockRetriesPerturbInstructionsOnlyMarginally)
{
    // With locks, a failed acquire re-charges the lock op on retry, so
    // committed instructions are schedule-dependent — but only through
    // that sync overhead. Policies must stay within 1% of each other on
    // a full lock-bearing benchmark.
    const RunResult ref = simulateWorkload(SimParams{}, cholesky(16), 4);
    SimParams params;
    params.schedPolicy = GetParam();
    const RunResult r = simulateWorkload(params, cholesky(16), 4);
    const double rel =
        static_cast<double>(r.totalInstructions) /
        static_cast<double>(ref.totalInstructions);
    EXPECT_GT(rel, 0.99);
    EXPECT_LT(rel, 1.01);
}

TEST_P(SchedPolicies, BalancedRunConservesInstructions)
{
    const WorkloadSpec w =
        WorkloadSpec::homogeneous(test::barrierHeavyProfile(), 4);
    const RunResult ref = simulateWorkload(SimParams{}, w, 4);
    SimParams params;
    params.schedPolicy = GetParam();
    const RunResult r = simulateWorkload(params, w, 4);
    EXPECT_EQ(r.totalInstructions, ref.totalInstructions);
}

TEST_P(SchedPolicies, DeterministicAcrossRuns)
{
    SimParams params;
    params.schedPolicy = GetParam();
    const WorkloadSpec w =
        WorkloadSpec::homogeneous(profileByLabel("lu.cont"), 16);
    const RunResult a = simulateWorkload(params, w, 4);
    const RunResult b = simulateWorkload(params, w, 4);
    EXPECT_EQ(a.executionTime, b.executionTime);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_EQ(a.totalSpinInstructions, b.totalSpinInstructions);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SchedPolicies,
                         ::testing::Values(SchedPolicy::kAffinityFifo,
                                           SchedPolicy::kRoundRobin,
                                           SchedPolicy::kRandom),
                         [](const auto &info) {
                             std::string n =
                                 schedPolicyLabel(info.param);
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(SchedPolicies, RandomSeedSelectsDistinctSchedules)
{
    SimParams a;
    a.schedPolicy = SchedPolicy::kRandom;
    SimParams b = a;
    b.schedSeed = 1;
    const WorkloadSpec w =
        WorkloadSpec::homogeneous(test::barrierHeavyProfile(), 16);
    const RunResult ra = simulateWorkload(a, w, 4);
    const RunResult rb = simulateWorkload(b, w, 4);
    // Same workload either way...
    EXPECT_EQ(ra.totalInstructions, rb.totalInstructions);
    // ...but an independent schedule (equal times would be an
    // astronomical coincidence for a 16/4 oversubscribed run).
    EXPECT_NE(ra.executionTime, rb.executionTime);
}

// ---- policy parsing --------------------------------------------------------

TEST(SchedPolicy, LabelsRoundTrip)
{
    for (const std::string &label : schedulerRegistry().names())
        EXPECT_EQ(schedPolicyLabel(schedulerRegistry().at(label)), label);
}

TEST(SchedPolicy, UnknownLabelListsAllPolicies)
{
    try {
        schedulerRegistry().at("fifo");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        for (const std::string &label : schedulerRegistry().names())
            EXPECT_NE(what.find(label), std::string::npos) << what;
    }
}

TEST(SchedPolicy, RawDecodingRejectsOutOfRange)
{
    EXPECT_NO_THROW(schedPolicyFromRaw(0));
    EXPECT_THROW(schedPolicyFromRaw(99), std::invalid_argument);
}

// ---- trace header carries the policy ---------------------------------------

/** The one group of the 1-thread recordings below. */
const std::vector<trace::TraceGroup> kOneThread = {{1, 0x1234, "t"}};

TEST(SchedTrace, PolicyMismatchRejected)
{
    trace::TraceMeta meta;
    meta.nthreads = 1;
    meta.profileHash = 0x1234;
    meta.schedPolicy = SchedPolicy::kRoundRobin;
    meta.schedSeed = 9;
    meta.label = "t";
    TraceWriter writer(std::move(meta));
    Op end;
    end.type = OpType::kEnd;
    writer.append(0, end);
    writer.append(1, end);

    const TraceReader reader = TraceReader::fromBytes(writer.serialize());
    EXPECT_EQ(reader.meta().schedPolicy, SchedPolicy::kRoundRobin);
    EXPECT_EQ(reader.meta().schedSeed, 9u);
    EXPECT_NO_THROW(reader.requireCompatibleWorkload(
        WorkloadRole::kReplicated, kOneThread, SchedPolicy::kRoundRobin,
        9));
    EXPECT_THROW(reader.requireCompatibleWorkload(
                     WorkloadRole::kReplicated, kOneThread,
                     SchedPolicy::kAffinityFifo, 9),
                 TraceError);
    // Deterministic policies ignore the RNG stream: any seed matches.
    EXPECT_NO_THROW(reader.requireCompatibleWorkload(
        WorkloadRole::kReplicated, kOneThread, SchedPolicy::kRoundRobin,
        0));
}

TEST(SchedTrace, RandomSeedMismatchRejected)
{
    trace::TraceMeta meta;
    meta.nthreads = 1;
    meta.profileHash = 0x1234;
    meta.schedPolicy = SchedPolicy::kRandom;
    meta.schedSeed = 9;
    meta.label = "t";
    TraceWriter writer(std::move(meta));
    Op end;
    end.type = OpType::kEnd;
    writer.append(0, end);
    writer.append(1, end);

    const TraceReader reader = TraceReader::fromBytes(writer.serialize());
    EXPECT_NO_THROW(reader.requireCompatibleWorkload(
        WorkloadRole::kReplicated, kOneThread, SchedPolicy::kRandom, 9));
    EXPECT_THROW(reader.requireCompatibleWorkload(
                     WorkloadRole::kReplicated, kOneThread,
                     SchedPolicy::kRandom, 0),
                 TraceError);
}

// ---- event queue ordering --------------------------------------------------

TEST(EventQueue, WakesFireBeforeCoreEventsAtTheSameCycle)
{
    EventQueue q(4);
    q.updateCore(2, 100);
    q.pushWake(100, 7);
    EventQueue::Event ev = q.peek();
    EXPECT_EQ(ev.kind, EventQueue::Kind::kWake);
    EXPECT_EQ(ev.at, 100u);
    EXPECT_EQ(ev.id, 7);
    q.popWake();
    ev = q.peek();
    EXPECT_EQ(ev.kind, EventQueue::Kind::kCore);
    EXPECT_EQ(ev.id, 2);
}

TEST(EventQueue, SimultaneousEventsBreakTiesByAscendingId)
{
    EventQueue q(4);
    q.pushWake(50, 3);
    q.pushWake(50, 1);
    q.pushWake(50, 2);
    for (const int expected : {1, 2, 3}) {
        const EventQueue::Event ev = q.peek();
        EXPECT_EQ(ev.id, expected);
        q.popWake();
    }

    q.updateCore(3, 60);
    q.updateCore(1, 60);
    EXPECT_EQ(q.peek().id, 1); // lowest core id among equal cycles
}

TEST(EventQueue, CoreRekeyingMovesBothDirections)
{
    EventQueue q(3);
    q.updateCore(0, 10);
    q.updateCore(1, 20);
    q.updateCore(2, 30);
    EXPECT_EQ(q.peek().id, 0);

    q.updateCore(0, 100); // later: core 1 surfaces
    EXPECT_EQ(q.peek().id, 1);

    q.updateCore(2, 5); // earlier: core 2 overtakes
    EXPECT_EQ(q.peek().id, 2);

    q.updateCore(2, kNeverCycles); // idle again
    EXPECT_EQ(q.peek().id, 1);
}

TEST(EventQueue, IdleCoresSitAtNever)
{
    EventQueue q(2);
    EXPECT_EQ(q.peek().at, kNeverCycles);
    EXPECT_EQ(q.pendingWakes(), 0u);
    q.pushWake(1, 0);
    EXPECT_EQ(q.pendingWakes(), 1u);
    EXPECT_EQ(q.peek().at, 1u);
}

} // namespace
} // namespace sst
