/**
 * @file
 * Tests of the declarative ExperimentSpec API: canonical-form round
 * trips and stability, the machine-key table and its axes, the named
 * registries (enumeration order, aliasing, generated error messages),
 * spec -> grid expansion, the cores oversubscription axis, and
 * fingerprint-v3 result-cache sharing between spec-driven and
 * flag-driven invocations.
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <gtest/gtest.h>

#include "bench/cli_common.hh"
#include "driver/driver.hh"
#include "driver/fingerprint.hh"
#include "driver/sweep.hh"
#include "sim/machine_keys.hh"
#include "spec/spec.hh"
#include "tests/test_util.hh"
#include "util/parse.hh"
#include "workload/profile.hh"
#include "workload/workload_spec.hh"

namespace sst {
namespace {

/** A spec with every axis and a few machine overrides populated. */
ExperimentSpec
fullyPopulatedSpec()
{
    ExperimentSpec spec;
    spec.profiles = {"cholesky", "facesim_medium"};
    spec.threads = {2, 4, 8, 16};
    spec.cores = {2, 16};
    applySpecValue(spec, "llc", "1M, 2M");
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
    const std::vector<JobSpec> jobs = expandGrid(specGrid(s));
    const std::vector<std::string> &names = profileRegistry().names();
    ASSERT_EQ(jobs.size(), names.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].label(), names[i]);
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
        setMachineValue(decoded, k, machineValueText(k, k.get(params)));
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
}

TEST(Registries, BareNamesAliasTheFirstInputVariant)
{
    // "facesim" is not a primary label (it has input variants), but
    // resolves to the first of them — the historical rule.
    const BenchmarkProfile *const *found = profileRegistry().find("facesim");
    ASSERT_NE(found, nullptr);
    const BenchmarkProfile *p = *found;
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

    // As a program builds it, field by field.
    ExperimentSpec flags;
    flags.profiles = {"cholesky"};
    flags.threads = {2, 4};
    flags.machine.schedPolicy = SchedPolicy::kRoundRobin;
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
    const test::TempDir tmp("xcache");
    const std::string &dir = tmp.path();
    DriverOptions opts;
    opts.cacheDir = dir;
    opts.jobs = 2;

    // Flag-driven first run populates the cache.
    ExperimentSpec flags;
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
}

// ---- spec files -------------------------------------------------------------

TEST(Spec, SpecFileParsesAndReportsPathOnError)
{
    const test::TempDir tmp("files");
    const std::string &dir = tmp.path();
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
}

TEST(Spec, SpecFilePathsAreRelativeToTheSpecFile)
{
    const test::TempDir tmp("paths");
    const std::string &dir = tmp.path();
    std::filesystem::create_directories(dir + "/specs");
    const std::string text = "workload-file = ../w/a.wdl, /abs/b.wdl\n"
                             "trace-dir = ./traces\n";
    {
        std::ofstream out(dir + "/specs/run.spec");
        out << text;
    }
    const ExperimentSpec spec = parseSpecFile(dir + "/specs/run.spec");
    EXPECT_EQ(spec.workloadFiles,
              (std::vector<std::string>{dir + "/w/a.wdl", "/abs/b.wdl"}));
    EXPECT_EQ(spec.traceDir, dir + "/specs/traces");
    // Spec text has no file: its paths stay relative to the working
    // directory, as flags are.
    const ExperimentSpec inline_spec = parseSpec(text);
    EXPECT_EQ(inline_spec.workloadFiles,
              (std::vector<std::string>{"../w/a.wdl", "/abs/b.wdl"}));
    EXPECT_EQ(inline_spec.traceDir, "./traces");
}

// ---- report views -----------------------------------------------------------

/** The spec that `sst run ARGS` builds: every flag through specFlag(). */
ExperimentSpec
specFromFlags(std::vector<std::string> args)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    ExperimentSpec spec;
    for (int i = 0; i < static_cast<int>(argv.size()); ++i) {
        std::string key, value;
        EXPECT_TRUE(cli::specFlag(static_cast<int>(argv.size()),
                                  argv.data(), i, key, value))
            << args[i];
        applySpecValue(spec, key, value);
    }
    return spec;
}

/** The message validateSpec() throws for @p spec, or "" when valid. */
std::string
validationError(const ExperimentSpec &spec)
{
    try {
        validateSpec(spec);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

// ---- machine-key axes -------------------------------------------------------

TEST(MachineAxes, TwoAxesRoundTripAsAFixedPoint)
{
    const ExperimentSpec s = parseSpec("profiles = cholesky\n"
                                       "machine.atd-sampling-factor = 1, 8\n"
                                       "machine.llc-ways = 8, 16\n"
                                       "machine.dispatch-width = 2\n");
    ASSERT_EQ(s.machineAxes.size(), 2u);
    const std::string text = serializeSpec(s);
    EXPECT_NE(text.find("\nmachine.llc-ways = 8, 16\n"), std::string::npos)
        << text;
    EXPECT_NE(text.find("\nmachine.atd-sampling-factor = 1, 8\n"),
              std::string::npos)
        << text;
    const ExperimentSpec back = parseSpec(text);
    EXPECT_EQ(back, s);
    EXPECT_EQ(serializeSpec(back), text);
    EXPECT_EQ(back.machineAxes, s.machineAxes);
    EXPECT_EQ(back.machine.dispatchWidth, 2);
}

TEST(MachineAxes, FlagsExpandInTableOrderThenCores)
{
    // llc-bytes precedes atd-sampling-factor in the machine-key table,
    // so it is the outer axis whatever order the flags come in.
    const ExperimentSpec s = specFromFlags(
        {"--profiles", "cholesky", "--threads", "2", "--cores", "1,2",
         "--set", "machine.atd-sampling-factor=1,8", "--machine.llc-bytes",
         "1M,2M"});
    const std::vector<JobSpec> jobs = expandGrid(specGrid(s));
    ASSERT_EQ(jobs.size(), 8u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].params.cache.llcBytes, (i < 4 ? 1u : 2u) << 20)
            << i;
        EXPECT_EQ(jobs[i].params.cache.atdSamplingFactor,
                  i % 4 < 2 ? 1 : 8)
            << i;
        EXPECT_EQ(jobs[i].ncores, i % 2 ? 2 : 1) << i;
    }
}

TEST(MachineAxes, LlcIsTheSpellingOfTheLlcBytesAxis)
{
    const ExperimentSpec llc = parseSpec("profiles = cholesky\n"
                                         "llc = 2M, 4M\n");
    const ExperimentSpec key = parseSpec("profiles = cholesky\n"
                                         "machine.llc-bytes = 2M, 4M\n");
    EXPECT_EQ(serializeSpec(key), serializeSpec(llc));
    EXPECT_NE(serializeSpec(key).find("\nllc = 2M, 4M\n"), std::string::npos);
    const std::vector<JobSpec> a = expandGrid(llc), b = expandGrid(key);
    ASSERT_EQ(a.size(), 2u);
    ASSERT_EQ(b.size(), 2u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(fingerprintJob(a[i]).canonical,
                  fingerprintJob(b[i]).canonical);
    EXPECT_EQ(a[1].params.cache.llcBytes, 4u << 20);
}

TEST(MachineAxes, OneValueIsASetting)
{
    ExperimentSpec s;
    applySpecValue(s, "machine.atd-sampling-factor", "1, 8");
    applySpecValue(s, "machine.atd-sampling-factor", "64");
    EXPECT_TRUE(s.machineAxes.empty());
    ExperimentSpec direct;
    direct.machine.cache.atdSamplingFactor = 64;
    EXPECT_EQ(serializeSpec(s), serializeSpec(direct));
    EXPECT_NE(serializeSpec(s).find("\nmachine.atd-sampling-factor = 64\n"),
              std::string::npos);
    EXPECT_EQ(expandGrid(s).size(), expandGrid(direct).size());

    // `llc =` overrides the machine.llc-bytes setting per job, so that
    // setting leaves it in place.
    applySpecValue(s, "llc", "1M, 2M");
    applySpecValue(s, "machine.llc-bytes", "4M");
    ASSERT_EQ(s.machineAxes.size(), 1u);
    EXPECT_EQ(s.machine.cache.llcBytes, 4u << 20);
    EXPECT_EQ(parseSpec(serializeSpec(s)), s);
}

TEST(MachineAxes, BadListElementNamesTheKey)
{
    const auto errorFor = [](const std::string &key,
                             const std::string &value) {
        ExperimentSpec s;
        try {
            applySpecValue(s, key, value);
        } catch (const std::invalid_argument &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    EXPECT_NE(errorFor("machine.atd-sampling-factor", "1, x")
                  .find("atd-sampling-factor: 'x'"),
              std::string::npos);
    EXPECT_NE(errorFor("machine.atd-sampling-factor", "1,,8")
                  .find("atd-sampling-factor: ''"),
              std::string::npos);
    EXPECT_NE(errorFor("llc", "1M, 2Q").find("llc-bytes: '2Q'"),
              std::string::npos);
    EXPECT_NE(errorFor("machine.stack-detector", "tian, w")
                  .find("stack-detector: 'w'"),
              std::string::npos);
    EXPECT_NE(errorFor("machine.oracle-atds", "true, maybe")
                  .find("oracle-atds: 'maybe'"),
              std::string::npos);
}

// The stack detector never splits a fingerprint: the two jobs of a
// detector axis run once and give a Tian and a Li row.
TEST(MachineAxes, StackDetectorAxisIsOneSimulatedRun)
{
    ExperimentSpec s;
    applySpecValue(s, "profiles", "cholesky");
    applySpecValue(s, "threads", "4");
    applySpecValue(s, "machine.stack-detector", "tian, li");
    const std::vector<JobSpec> jobs = expandGrid(specGrid(s));
    ASSERT_EQ(jobs.size(), 2u);
    BatchStats stats;
    const std::vector<JobResult> results =
        runExperimentBatch(jobs, DriverOptions{}, &stats);
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.deduped, 1u);
    ASSERT_TRUE(results[0].ok() && results[1].ok());
    EXPECT_EQ(results[0].exp.tp, results[1].exp.tp);
    EXPECT_NE(results[0].exp.stack.spin, results[1].exp.stack.spin);
    EXPECT_EQ(jobs[1].params.accounting.stackDetector,
              AccountingParams::Detector::kLi);
}

TEST(Report, DefaultIsTheTableAndEveryViewRoundTrips)
{
    EXPECT_EQ(ExperimentSpec().report, "table");
    for (const std::string &name : reportRegistry().names()) {
        ExperimentSpec s;
        applySpecValue(s, "output.report", name);
        const std::string text = serializeSpec(s);
        EXPECT_NE(text.find("output.report = " + name + "\n"),
                  std::string::npos)
            << text;
        const ExperimentSpec back = parseSpec(text);
        EXPECT_EQ(back, s);
        EXPECT_EQ(back.report, name);
    }
}

TEST(Report, AliasAndKeyFlagsGiveTheSameSpec)
{
    const ExperimentSpec alias = specFromFlags({"--report", "classify"});
    EXPECT_EQ(alias.report, "classify");
    EXPECT_EQ(specFromFlags({"--output.report", "classify"}), alias);
    EXPECT_EQ(specFromFlags({"--output.report=classify"}), alias);
    EXPECT_EQ(specFromFlags({"--set", "output.report=classify"}), alias);
}

TEST(Report, UnknownViewListsTheValidViews)
{
    ExperimentSpec s;
    try {
        applySpecValue(s, "output.report", "fig4");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unknown report view 'fig4'; valid report views: "
                      "table, validation, stacks, classify, overhead"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(s.report, "table");
}

TEST(Report, ViewsRejectAGridTheyCannotLayOutNamingTheAxis)
{
    const auto errorFor = [](const std::string &report,
                             const std::string &key,
                             const std::string &value) {
        ExperimentSpec s;
        s.threads = {2, 4};
        applySpecValue(s, key, value);
        s.report = report;
        return validationError(s);
    };
    for (const char *view : {"validation", "stacks", "classify",
                             "overhead", "detectors", "coherency"}) {
        EXPECT_NE(errorFor(view, "cores", "2").find("the cores axis"),
                  std::string::npos)
            << view;
        EXPECT_NE(errorFor(view, "llc", "1M").find("the llc axis"),
                  std::string::npos)
            << view;
        EXPECT_NE(errorFor(view, "machine.atd-sampling-factor", "1, 8")
                      .find("the machine.atd-sampling-factor axis"),
                  std::string::npos)
            << view;
    }
    ExperimentSpec mix;
    applySpecValue(mix, "workload", "fig08_cholesky");
    mix.report = "stacks";
    EXPECT_NE(validationError(mix).find("the workload axis"),
              std::string::npos);
    for (const char *view : {"classify", "overhead", "detectors",
                             "coherency"})
        EXPECT_NE(errorFor(view, "profiles", "cholesky")
                      .find("the threads axis has 2"),
                  std::string::npos)
            << view;
    // The views lay out any profile list and thread counts they take;
    // the table lays out every grid.
    EXPECT_EQ(errorFor("validation", "threads", "3, 5"), "");
    EXPECT_EQ(errorFor("overhead", "threads", "8"), "");
    EXPECT_EQ(errorFor("table", "cores", "2"), "");
    EXPECT_EQ(errorFor("hw-cost", "machine.llc-ways", "8, 16"), "");
    mix.report = "table";
    EXPECT_EQ(validationError(mix), "");
}

TEST(Report, FailedJobRendersAsFailInEveryView)
{
    // 100 threads exceed the simulator's 64 cores: the job fails, the
    // rest of the batch runs.
    ExperimentSpec spec;
    spec.profiles = {"cholesky"};
    spec.threads = {4, 100};
    validateSpec(spec);
    const std::vector<JobSpec> jobs = expandGrid(spec);
    const std::vector<JobResult> results =
        runExperimentBatch(jobs, DriverOptions{});
    ASSERT_TRUE(results[0].ok());
    ASSERT_FALSE(results[1].ok());

    // One thread count per benchmark: cholesky ran, radix failed.
    ExperimentSpec one;
    one.profiles = {"cholesky", "radix"};
    one.threads = {4};
    const std::vector<JobSpec> oneJobs = expandGrid(one);

    for (const std::string &name : reportRegistry().names()) {
        const ReportView &view = reportRegistry().at(name);
        const std::string out =
            view.oneThreadCount
                ? view.render(one, oneJobs, results)
                : view.render(spec, jobs, results);
        EXPECT_NE(out.find(name == "table" ? "FAILED: " : "fail"),
                  std::string::npos)
            << name << ":\n"
            << out;
        EXPECT_NE(out.find("cholesky"), std::string::npos) << name;
    }
    const std::string stacks =
        reportRegistry().at("stacks").render(spec, jobs, results);
    EXPECT_NE(stacks.find("\n100thr: fail ("), std::string::npos) << stacks;
    EXPECT_NE(stacks.find("4thr"), std::string::npos) << stacks;
    // One benchmark ran: the correlation is undefined, not `nan`.
    const std::string overhead =
        reportRegistry().at("overhead").render(one, oneJobs, results);
    EXPECT_NE(overhead.find("error) = - (positive"), std::string::npos)
        << overhead;
}

TEST(Report, HwCostTotalsFollowTheDramRowSize)
{
    // The ORA's row-number field loses two bits per bank from 1K to 4K
    // rows, so the two points of the axis cost different bytes. The
    // cost columns come from each job's machine, not from its run.
    ExperimentSpec spec;
    spec.profiles = {"cholesky"};
    spec.threads = {2};
    applySpecValue(spec, "machine.dram-row-bytes", "1K, 4K");
    const std::vector<JobSpec> jobs = expandGrid(spec);
    const std::string out = reportRegistry().at("hw-cost").render(
        spec, jobs, std::vector<JobResult>(jobs.size()));
    const auto totalOf = [&out](const std::string &row) {
        const std::size_t at = out.find("\n" + row + " ");
        EXPECT_NE(at, std::string::npos) << row << ":\n" << out;
        std::istringstream line(out.substr(at + 1));
        std::string cell, sets, atd, total;
        line >> cell >> sets >> atd >> total;
        return total;
    };
    EXPECT_EQ(totalOf("1KB"), "3762");
    EXPECT_EQ(totalOf("4KB"), "3760");
}

} // namespace
} // namespace sst
