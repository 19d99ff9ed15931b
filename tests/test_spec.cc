/**
 * @file
 * Tests of the declarative ExperimentSpec API: canonical-form round
 * trips and stability, the machine-key table, the three named
 * registries (enumeration order, aliasing, generated error messages),
 * spec -> grid expansion, the cores oversubscription axis, and
 * fingerprint-v3 result-cache sharing between spec-driven and
 * flag-driven invocations.
 */

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

#include "driver/driver.hh"
#include "driver/fingerprint.hh"
#include "driver/sweep.hh"
#include "spec/machine_keys.hh"
#include "spec/registries.hh"
#include "spec/spec.hh"
#include "tests/test_util.hh"
#include "workload/profile.hh"

namespace sst {
namespace {

std::string
freshTempDir(const char *name)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "sst_spec_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** A spec with every axis and a few machine overrides populated. */
ExperimentSpec
fullyPopulatedSpec()
{
    ExperimentSpec spec;
    spec.profiles = {"cholesky", "facesim_medium"};
    spec.threads = {2, 4, 8, 16};
    spec.cores = {2, 16};
    spec.llcBytes = {1u << 20, 2u << 20};
    spec.seedOffset = 7;
    spec.machine.schedPolicy = SchedPolicy::kRandom;
    spec.machine.schedSeed = 99;
    spec.machine.cache.llcBytes = 4u << 20;
    spec.machine.timeSliceCycles = 8000;
    spec.machine.migrationFlushesL1 = true;
    spec.machine.accounting.stackDetector =
        AccountingParams::Detector::kLi;
    spec.csvPath = "out.csv";
    spec.quiet = true;
    return spec;
}

// ---- round trip and canonical form -----------------------------------------

TEST(Spec, DefaultSpecRoundTrips)
{
    const ExperimentSpec s;
    EXPECT_EQ(parseSpec(serializeSpec(s)), s);
}

TEST(Spec, FullyPopulatedSpecRoundTrips)
{
    const ExperimentSpec s = fullyPopulatedSpec();
    const ExperimentSpec back = parseSpec(serializeSpec(s));
    EXPECT_EQ(back, s);
    // Spot-check fields actually survived (not just text equality).
    EXPECT_EQ(back.cores, (std::vector<int>{2, 16}));
    EXPECT_EQ(back.machine.schedPolicy, SchedPolicy::kRandom);
    EXPECT_EQ(back.machine.schedSeed, 99u);
    EXPECT_EQ(back.machine.cache.llcBytes, 4u << 20);
    EXPECT_EQ(back.machine.timeSliceCycles, 8000u);
    EXPECT_TRUE(back.machine.migrationFlushesL1);
    EXPECT_EQ(back.machine.accounting.stackDetector,
              AccountingParams::Detector::kLi);
    EXPECT_EQ(back.csvPath, "out.csv");
    EXPECT_TRUE(back.quiet);
}

TEST(Spec, SerializationIsAFixedPoint)
{
    const std::string text = serializeSpec(fullyPopulatedSpec());
    EXPECT_EQ(serializeSpec(parseSpec(text)), text);
}

TEST(Spec, KeyOrderAndFormattingDoNotMatter)
{
    const ExperimentSpec a = parseSpec("profiles = cholesky\n"
                                       "threads = 2, 4\n"
                                       "machine.llc-bytes = 4M\n");
    const ExperimentSpec b =
        parseSpec("  machine.llc-bytes=4194304   # normalized\n"
                  "\n"
                  "threads=2,4\n"
                  "profiles =   cholesky\n");
    EXPECT_EQ(a, b);
}

TEST(Spec, CommentsAndBlankLinesIgnored)
{
    const ExperimentSpec s = parseSpec("# a comment\n"
                                       "\n"
                                       "threads = 8   # trailing\n");
    EXPECT_EQ(s.threads, (std::vector<int>{8}));
}

TEST(Spec, NegativeIntegersAreRejectedNotWrapped)
{
    // strtoull would silently wrap "-1" to 2^64-1; the spec parsers
    // must reject the sign instead.
    ExperimentSpec s;
    EXPECT_THROW(applySpecValue(s, "machine.dispatch-width", "-1"),
                 std::invalid_argument);
    EXPECT_THROW(applySpecValue(s, "seed-offset", "-2"),
                 std::invalid_argument);
    EXPECT_THROW(applySpecValue(s, "sched-seed", "-3"),
                 std::invalid_argument);
    EXPECT_THROW(applySpecValue(s, "llc", "-5M"),
                 std::invalid_argument);
}

TEST(Spec, HashInsideValuesSurvivesOnlyCommentsAreStripped)
{
    const ExperimentSpec s =
        parseSpec("output.csv = run#1.csv   # the real comment\n");
    EXPECT_EQ(s.csvPath, "run#1.csv");
    EXPECT_EQ(parseSpec(serializeSpec(s)), s);

    // A value parse would read back as a comment cannot serialize —
    // failing loudly keeps parse(serialize(s)) == s exact.
    ExperimentSpec bad;
    bad.csvPath = "run #1.csv";
    EXPECT_THROW(serializeSpec(bad), std::invalid_argument);
}

TEST(Spec, TraceFrontendRejectsCoresAxis)
{
    // Recordings embed a #cores == #threads schedule; oversubscribed
    // jobs would silently regenerate live, so the spec is rejected.
    ExperimentSpec s;
    s.frontend = "trace";
    s.traceDir = "/tmp/traces";
    s.cores = {2, 4};
    EXPECT_THROW(validateSpec(s), std::invalid_argument);
    s.cores.clear();
    EXPECT_NO_THROW(validateSpec(s));
}

TEST(Spec, ProfilesAllMeansWholeSuite)
{
    const ExperimentSpec s = parseSpec("profiles = all\n");
    EXPECT_TRUE(s.profiles.empty());
    EXPECT_EQ(specGrid(s).profiles, allProfileLabels());
}

TEST(Spec, ParseErrorsCarryLineNumbers)
{
    try {
        parseSpec("threads = 4\nnot-a-key = 1\n");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Spec, UnknownKeysListValidKeys)
{
    try {
        ExperimentSpec s;
        applySpecValue(s, "not-a-key", "1");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("profiles"), std::string::npos) << what;
        EXPECT_NE(what.find("sched"), std::string::npos) << what;
        EXPECT_NE(what.find("machine.llc-bytes"), std::string::npos)
            << what;
    }
}

TEST(Spec, UnknownMachineKeysListMachineKeys)
{
    try {
        ExperimentSpec s;
        applySpecValue(s, "machine.not-a-knob", "1");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("machine.dispatch-width"),
                  std::string::npos)
            << e.what();
    }
}

// ---- machine-key table ------------------------------------------------------

TEST(MachineKeys, SizeTextRoundTripsThroughParseSize)
{
    for (const std::uint64_t v :
         {std::uint64_t(1), std::uint64_t(1536), std::uint64_t(64) << 10,
          std::uint64_t(2) << 20, std::uint64_t(3) << 30}) {
        EXPECT_EQ(parseSize(sizeText(v)), v) << sizeText(v);
    }
}

TEST(MachineKeys, EveryKeyRoundTripsItsValue)
{
    SimParams params;
    std::string blob;
    encodeMachineParams(blob, params);
    SimParams decoded;
    // Perturb a couple of fields so decoding proves it restores them.
    decoded.dispatchWidth = 1;
    decoded.cache.llcBytes = 1;
    for (const MachineKey &k : machineKeys())
        setMachineValue(decoded, k, machineValueText(k, params));
    std::string blob2;
    encodeMachineParams(blob2, decoded);
    EXPECT_EQ(blob, blob2);
}

TEST(MachineKeys, BadValuesAreRejected)
{
    SimParams params;
    EXPECT_THROW(
        setMachineValue(params, *findMachineKey("dispatch-width"), "x"),
        std::invalid_argument);
    EXPECT_THROW(
        setMachineValue(params, *findMachineKey("oracle-atds"), "maybe"),
        std::invalid_argument);
    EXPECT_THROW(
        setMachineValue(params, *findMachineKey("stack-detector"), "w"),
        std::invalid_argument);
}

// ---- registries -------------------------------------------------------------

TEST(Registries, ProfileRegistryMatchesSuiteOrder)
{
    const auto &names = profileRegistry().names();
    const auto &suite = benchmarkSuite();
    ASSERT_EQ(names.size(), suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i)
        EXPECT_EQ(names[i], suite[i].label());
    // allProfileLabels() is now a thin wrapper over the registry.
    EXPECT_EQ(allProfileLabels(), names);
}

TEST(Registries, BareNamesAliasTheFirstInputVariant)
{
    // "facesim" is not a primary label (it has input variants), but
    // resolves to the first of them — the historical rule.
    const BenchmarkProfile *p = findProfileByLabel("facesim");
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name, "facesim");
    EXPECT_EQ(p->label(), profileByLabel("facesim").label());
}

TEST(Registries, SchedulerRegistryOrderMatchesEnum)
{
    const auto &names = schedulerRegistry().names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "affinity-fifo");
    EXPECT_EQ(names[1], "round-robin");
    EXPECT_EQ(names[2], "random");
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(schedulerRegistry().at(names[i]),
                  static_cast<SchedPolicy>(i));
}

TEST(Registries, OpSourceRegistryListsFrontends)
{
    const auto &names = opSourceRegistry().names();
    ASSERT_EQ(names.size(), 4u);
    EXPECT_EQ(names[0], "program");
    EXPECT_EQ(names[1], "trace");
    EXPECT_EQ(names[2], "pipeline");
    EXPECT_EQ(names[3], "workload-file");
    EXPECT_TRUE(opSourceRegistry().at("trace").needsTraceDir);
    EXPECT_FALSE(opSourceRegistry().at("program").needsTraceDir);
    EXPECT_FALSE(opSourceRegistry().at("pipeline").needsTraceDir);
    EXPECT_FALSE(opSourceRegistry().at("workload-file").needsTraceDir);
}

TEST(Registries, UnknownLabelsListValidNamesEverywhere)
{
    // Profiles (through the spec layer).
    try {
        ExperimentSpec s;
        s.profiles = {"not-a-benchmark"};
        validateSpec(s);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("cholesky"),
                  std::string::npos)
            << e.what();
    }
    // Scheduler policies.
    try {
        ExperimentSpec s;
        applySpecValue(s, "sched", "not-a-policy");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("affinity-fifo"),
                  std::string::npos)
            << e.what();
    }
    // Frontends.
    try {
        ExperimentSpec s;
        applySpecValue(s, "frontend", "not-a-frontend");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("program"), std::string::npos) << what;
        EXPECT_NE(what.find("trace"), std::string::npos) << what;
    }
}

// ---- validation -------------------------------------------------------------

TEST(Spec, TraceFrontendRequiresTraceDir)
{
    ExperimentSpec s;
    s.frontend = "trace";
    EXPECT_THROW(validateSpec(s), std::invalid_argument);
    s.traceDir = "/tmp/traces";
    EXPECT_NO_THROW(validateSpec(s));
}

TEST(Spec, TraceDirReplaysUnderEveryFrontend)
{
    ExperimentSpec s;
    s.traceDir = "/tmp/traces"; // frontend is still "program"
    EXPECT_NO_THROW(validateSpec(s));

    // A .wdl workload replays from trace-dir like any other.
    ExperimentSpec w = parseSpec("workload-file = a.wdl\n"
                                 "trace-dir = /tmp/traces\n");
    EXPECT_EQ(w.frontend, "workload-file");
    EXPECT_NO_THROW(validateSpec(w));
    DriverOptions opts;
    applySpecToDriverOptions(w, opts);
    EXPECT_EQ(opts.traceDir, "/tmp/traces");

    // `frontend = trace` keeps requiring a directory.
    ExperimentSpec t = parseSpec("frontend = trace\n");
    EXPECT_THROW(validateSpec(t), std::invalid_argument);
}

TEST(Spec, TraceDirExcludesTheCoresAxisUnderEveryFrontend)
{
    for (const char *text :
         {"profiles = cholesky\nthreads = 4\ncores = 2\n",
          "profiles = cholesky\nthreads = 4\ncores = 2\n"
          "frontend = trace\n"}) {
        ExperimentSpec s = parseSpec(text);
        s.traceDir = "/tmp/traces";
        try {
            validateSpec(s);
            FAIL() << "expected std::invalid_argument for " << text;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("cores axis"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Spec, ProgramFrontendTakesPipelinesAndMixes)
{
    // The workload's role decides how it runs; `frontend = pipeline`
    // only promises that every workload is a pipeline.
    ExperimentSpec s = parseSpec("workload = ferret4, fig08_cholesky\n");
    EXPECT_NO_THROW(validateSpec(s));
    s.frontend = "pipeline";
    EXPECT_THROW(validateSpec(s), std::invalid_argument);
}

TEST(Spec, SchedSeedWithoutRandomPolicyRejected)
{
    ExperimentSpec s;
    s.machine.schedSeed = 5;
    EXPECT_THROW(validateSpec(s), std::invalid_argument);
    s.machine.schedPolicy = SchedPolicy::kRandom;
    EXPECT_NO_THROW(validateSpec(s));
}

TEST(Spec, DriverOptionsGetTheTraceDir)
{
    ExperimentSpec s;
    s.frontend = "trace";
    s.traceDir = "/tmp/traces";
    DriverOptions opts;
    applySpecToDriverOptions(s, opts);
    EXPECT_EQ(opts.traceDir, "/tmp/traces");

    ExperimentSpec p;
    DriverOptions opts2;
    applySpecToDriverOptions(p, opts2);
    EXPECT_TRUE(opts2.traceDir.empty());
}

// ---- cores axis -------------------------------------------------------------

TEST(Spec, CoresAxisExpandsInnermost)
{
    ExperimentSpec s = parseSpec("profiles = cholesky\n"
                                 "threads = 16\n"
                                 "cores = 2, 4\n");
    const std::vector<JobSpec> jobs = expandGrid(specGrid(s));
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].nthreads(), 16);
    EXPECT_EQ(jobs[0].ncores, 2);
    EXPECT_EQ(jobs[1].ncores, 4);
    EXPECT_EQ(jobs[0].ncoresEffective(), 2);
}

TEST(Fingerprint, SensitiveToCoresAxis)
{
    JobSpec a = JobSpec::forProfile(test::computeOnlyProfile(), 4);
    JobSpec b = a;
    b.ncores = 2;
    EXPECT_NE(fingerprintJob(a).hash, fingerprintJob(b).hash);
    // ncores == nthreads is the same simulation as ncores == 0.
    JobSpec c = a;
    c.ncores = 4;
    EXPECT_EQ(fingerprintJob(a).canonical, fingerprintJob(c).canonical);
    // The baseline always runs on one core either way.
    EXPECT_EQ(fingerprintWorkloadGroupBaseline(a.params,
                                               a.effectiveWorkload(), 0)
                  .canonical,
              fingerprintWorkloadGroupBaseline(b.params,
                                               b.effectiveWorkload(), 0)
                  .canonical);
}

TEST(Driver, OversubscribedJobMatchesDirectRun)
{
    JobSpec spec = JobSpec::forProfile(test::barrierHeavyProfile(), 4);
    spec.ncores = 2;
    const std::vector<JobResult> results =
        runExperimentBatch({spec}, DriverOptions{});
    ASSERT_TRUE(results[0].ok()) << results[0].error;

    const RunResult direct =
        simulateWorkload(spec.params, spec.workload, spec.ncores);
    const SpeedupExperiment full = runExperiment(spec.params, spec.workload);
    EXPECT_EQ(results[0].exp.ts, full.ts);
    EXPECT_EQ(results[0].exp.tp, direct.executionTime);
    EXPECT_EQ(results[0].exp.actualSpeedup,
              static_cast<double>(full.ts) /
                  static_cast<double>(direct.executionTime));
    // Time-sharing 4 threads on 2 cores must cost time vs 4 cores.
    EXPECT_GT(direct.executionTime, full.tp);
}

TEST(Driver, MoreCoresThanThreadsRejected)
{
    JobSpec spec = JobSpec::forProfile(test::computeOnlyProfile(), 2);
    spec.ncores = 4;
    const std::vector<JobResult> results =
        runExperimentBatch({spec}, DriverOptions{});
    ASSERT_FALSE(results[0].ok());
    EXPECT_NE(results[0].error.find("ncores"), std::string::npos);
}

// ---- fingerprint v3: spec- and flag-driven runs share cache entries --------

TEST(Fingerprint, SpecAndFlagGridsProduceIdenticalFingerprints)
{
    // As `sst run --spec` builds it.
    const ExperimentSpec spec = parseSpec("profiles = cholesky\n"
                                          "threads = 2, 4\n"
                                          "sched = round-robin\n");
    const std::vector<JobSpec> specJobs = expandGrid(specGrid(spec));

    // As `sst sweep --profiles cholesky --threads 2,4 --sched
    // round-robin` builds it.
    SweepGrid flags;
    flags.profiles = {"cholesky"};
    flags.threads = {2, 4};
    flags.baseParams.schedPolicy = SchedPolicy::kRoundRobin;
    const std::vector<JobSpec> flagJobs = expandGrid(flags);

    ASSERT_EQ(specJobs.size(), flagJobs.size());
    for (std::size_t i = 0; i < specJobs.size(); ++i) {
        EXPECT_EQ(fingerprintJob(specJobs[i]).canonical,
                  fingerprintJob(flagJobs[i]).canonical);
    }
    // The canonical text embeds the shared machine encoding and v3.
    const std::string canon = fingerprintJob(specJobs[0]).canonical;
    EXPECT_NE(canon.find("fingerprint.version=3"), std::string::npos);
    EXPECT_NE(canon.find("machine.llc-bytes = 2M"), std::string::npos);
    EXPECT_NE(canon.find("sched=round-robin"), std::string::npos);
}

TEST(Driver, SpecDrivenRunReusesFlagDrivenCacheEntries)
{
    const std::string dir = freshTempDir("xcache");
    DriverOptions opts;
    opts.cacheDir = dir;
    opts.jobs = 2;

    // Flag-driven first run populates the cache.
    SweepGrid flags;
    flags.profiles = {"cholesky"};
    flags.threads = {2};
    BatchStats first;
    runExperimentBatch(expandGrid(flags), opts, &first);
    EXPECT_EQ(first.executed, 1u);

    // The equivalent spec-driven run must replay entirely from it.
    const ExperimentSpec spec =
        parseSpec("profiles = cholesky\nthreads = 2\n");
    BatchStats second;
    const std::vector<JobResult> replay =
        runExperimentBatch(expandGrid(specGrid(spec)), opts, &second);
    EXPECT_EQ(second.executed, 0u);
    EXPECT_EQ(second.cached, 1u);
    ASSERT_TRUE(replay[0].fromCache());
    std::filesystem::remove_all(dir);
}

// ---- spec files -------------------------------------------------------------

TEST(Spec, SpecFileParsesAndReportsPathOnError)
{
    const std::string dir = freshTempDir("files");
    std::filesystem::create_directories(dir);
    const std::string good = dir + "/good.spec";
    {
        std::ofstream out(good);
        out << "profiles = cholesky\nthreads = 2\n";
    }
    EXPECT_EQ(parseSpecFile(good).threads, (std::vector<int>{2}));

    const std::string bad = dir + "/bad.spec";
    {
        std::ofstream out(bad);
        out << "threads = nope\n";
    }
    try {
        parseSpecFile(bad);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("bad.spec"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(parseSpecFile(dir + "/missing.spec"),
                 std::invalid_argument);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace sst
