/**
 * @file
 * The unified `sst` CLI: one binary for every experiment workflow
 * (`sst --help` lists the commands). One dispatcher serves `sst
 * <command>`, `sst list <registry>` and `sst trace <subcommand>` from a
 * Command table each, and every command parses its flags from a Flag
 * table (cli_common.hh), so usage text and unknown-name errors are
 * generated from the same tables that parse.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.hh"
#include "core/experiment.hh"
#include "core/region_stacks.hh"
#include "core/render.hh"
#include "driver/fingerprint.hh"
#include "driver/job.hh"
#include "driver/result_cache.hh"
#include "driver/sweep.hh"
#include "serve/net.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/worker.hh"
#include "trace/trace_format.hh"
#include "sched/policy.hh"
#include "spec/spec.hh"
#include "telemetry/span.hh"
#include "trace/trace_reader.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "wdl/wdl.hh"
#include "workload/profile.hh"

namespace sst {
namespace cli {
namespace {

/** Defaults of the commands' flags, set before parsing; help prints
 *  them from the options they were set in. */
constexpr const char *kDefaultSocket = ".sst-serve.sock";
constexpr const char *kDefaultCacheDir = ".sst-cache";

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot write " + path);
    out << content;
    std::printf("wrote %s\n", path.c_str());
}

void
printBatchStats(const ExperimentDriver &driver)
{
    const BatchStats &stats = driver.stats();
    std::printf(
        "batch: %zu jobs, %zu executed, %zu cached, %zu deduped, "
        "%zu failed, %zu baselines, %zu trace replays, "
        "%zu traces recorded, %d workers\n",
        stats.total, stats.executed, stats.cached, stats.deduped,
        stats.failed, stats.baselinesComputed, stats.traceReplays,
        stats.tracesRecorded, stats.workers);
}

// ---- run / sweep ------------------------------------------------------------

/** How `sst run` executes a spec: none of it changes what a job computes. */
struct RunOptions
{
    DriverOptions driver;
    std::string traceOut;
    bool printSpec = false;
};

/** Validate and run @p spec, print, export. A non-empty
 *  RunOptions::traceOut enables the span tracer for the batch and writes
 *  a Chrome trace_event JSON of every job/driver span afterwards; results
 *  are bit-identical either way (telemetry is write-only). The metrics
 *  registry stays off: nothing in `sst run` renders it. */
int
executeBatch(const ExperimentSpec &spec, RunOptions run)
{
    validateSpec(spec);
    applySpecToDriverOptions(spec, run.driver);
    const bool tracing = !run.traceOut.empty();
    if (tracing)
        telemetry::SpanTracer::global().setEnabled(true);

    const std::vector<JobSpec> jobs = expandGrid(spec);
    ExperimentDriver driver(run.driver);
    const std::vector<JobResult> results = driver.runBatch(jobs);

    if (tracing) {
        telemetry::SpanTracer &tracer = telemetry::SpanTracer::global();
        tracer.setEnabled(false);
        if (tracer.dropped() > 0)
            warn("cli", std::to_string(tracer.dropped()) +
                            " spans dropped (ring buffer full)");
        writeFile(run.traceOut, tracer.chromeTraceJson());
    }

    const ReportView &view = reportRegistry().at(spec.report);
    if (!spec.quiet)
        std::fputs(view.render(spec, jobs, results).c_str(), stdout);
    printBatchStats(driver);

    if (!spec.csvPath.empty())
        writeFile(spec.csvPath, sweepCsv(jobs, results));
    if (!spec.jsonPath.empty())
        writeFile(spec.jsonPath, sweepJson(jobs, results));

    return driver.stats().failed == 0 ? 0 : 2;
}

// ---- trace ------------------------------------------------------------------

int
traceInfo(int argc, char **argv, int first)
{
    std::string inPath;
    parseFlags(argc, argv, first,
               "usage: sst trace info --in FILE\n"
               "decode every stream to check it, then print header and\n"
               "per-stream statistics\n",
               {{"--in", "FILE", "the .sstt trace", into(inPath)}}, nullptr,
               "traces are recorded by `sst sweep --record-dir DIR` and\n"
               "replayed by `--trace-dir DIR`\n");
    if (inPath.empty())
        fatal("info needs --in FILE");

    const TraceReader reader(inPath);
    reader.validate(); // decode every stream: info vouches for the file
    const trace::TraceMeta &meta = reader.meta();
    std::printf("file                %s\n", inPath.c_str());
    std::printf("format_version      %u\n", meta.version);
    std::printf("benchmark           %s\n", meta.label.c_str());
    std::printf("threads             %d\n", meta.nthreads);
    std::printf("profile_hash        %016" PRIx64 "\n", meta.profileHash);
    std::printf("sched_policy        %s\n",
                schedPolicyLabel(meta.schedPolicy));
    std::printf("sched_seed          %" PRIu64 "\n", meta.schedSeed);
    std::printf("workload_role       %s\n", workloadRoleName(meta.role));
    for (std::size_t g = 0; g < meta.groups.size(); ++g) {
        std::printf("group %-2zu            %s: %d threads, profile "
                    "%016" PRIx64 "\n",
                    g, meta.groups[g].label.c_str(),
                    meta.groups[g].nthreads, meta.groups[g].profileHash);
    }
    std::uint64_t total_ops = 0, total_bytes = 0;
    for (int s = 0; s < reader.nstreams(); ++s) {
        const bool baseline = s >= meta.nthreads;
        std::printf("stream %-3d %s  %12" PRIu64 " ops  %12" PRIu64
                    " bytes\n",
                    s, baseline ? "(baseline)" : "          ",
                    reader.opCount(s), reader.streamBytes(s));
        total_ops += reader.opCount(s);
        total_bytes += reader.streamBytes(s);
    }
    std::printf("total               %" PRIu64 " ops, %" PRIu64
                " encoded bytes (%.2f bytes/op)\n",
                total_ops, total_bytes,
                static_cast<double>(total_bytes) /
                    static_cast<double>(total_ops));
    return 0;
}

// ---- dispatch ---------------------------------------------------------------

/** One row of a dispatcher table; its usage text is generated from it.
 *  @c run gets the arguments after the command's name at argv[first]. */
struct Command
{
    const char *name;
    const char *about;
    int (*run)(int argc, char **argv, int first);
};

/**
 * Run the command of @p commands that argv[first] names. `--help`
 * prints `usage: PROG <NOUN>`, one row per command and @p notes, and
 * returns 0; no name prints the same and returns 1; an unknown name is
 * fatal.
 */
int
dispatch(const char *prog, const char *noun,
         const std::vector<Command> &commands, int argc, char **argv,
         int first, const char *notes = "")
{
    std::string usage = std::string("usage: ") + prog + " <" + noun + ">\n";
    std::string names;
    for (const Command &c : commands) {
        usage += usageRow(c.name, c.about);
        names += (names.empty() ? "" : ", ") + std::string(c.name);
    }
    const std::string what = first < argc ? argv[first] : "";
    for (const Command &c : commands)
        if (what == c.name)
            return c.run(argc, argv, first + 1);
    if (first >= argc || what == "--help" || what == "-h") {
        std::fputs((usage + notes).c_str(), stdout);
        return first >= argc ? 1 : 0;
    }
    fatal("unknown " + std::string(noun) + " '" + what + "'; valid: " +
          names);
}

// ---- list -------------------------------------------------------------------

/** Print @p header, then one row per primary name of @p registry, made
 *  by @p row from the name and its value. */
template <class T, class Row>
void
printRegistry(const NamedRegistry<T> &registry,
              std::vector<std::string> header, const Row &row)
{
    TextTable table;
    table.setHeader(std::move(header));
    for (const std::string &name : registry.names())
        table.addRow(row(name, *registry.find(name)));
    std::printf("%s\n", table.render().c_str());
}

void
listProfiles()
{
    printRegistry(profileRegistry(),
                  {"label", "suite", "paper speedup @16", "class"},
                  [](const std::string &name, const auto &p) {
                      return std::vector<std::string>{
                          name, p->suite, fmtDouble(p->paperSpeedup16, 2),
                          p->paperClass};
                  });
}

void
listScheds()
{
    for (const std::string &name : schedulerRegistry().names())
        std::printf("%s\n", name.c_str());
}

/** The description column of a registry whose values have one. */
const auto kDescribed = [](const std::string &name, const auto &value) {
    return std::vector<std::string>{name, value.description};
};

void
listFrontends()
{
    printRegistry(opSourceRegistry(), {"frontend", "description"},
                  kDescribed);
}

void
listReports()
{
    printRegistry(reportRegistry(), {"report", "description"}, kDescribed);
}

void
listMixes()
{
    printRegistry(mixRegistry(), {"mix", "role", "threads", "groups"},
                  [](const std::string &name, const WorkloadSpec &w) {
                      return std::vector<std::string>{
                          name, workloadRoleName(w.role),
                          std::to_string(w.nthreads()), w.descriptor()};
                  });
}

#ifndef SST_EXAMPLE_WORKLOAD_DIR
#define SST_EXAMPLE_WORKLOAD_DIR "examples/workloads"
#endif

/** Directory `sst list workloads` scans for example .wdl files: the
 *  checkout's (set by the build), whatever the working directory. */
constexpr const char *kExampleWorkloadDir = SST_EXAMPLE_WORKLOAD_DIR;

void
listWorkloads()
{
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    std::error_code ec;
    for (fs::directory_iterator it(kExampleWorkloadDir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->path().extension() == ".wdl")
            files.push_back(it->path());
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
        std::printf("no .wdl files under %s/\n\n", kExampleWorkloadDir);
    } else {
        TextTable table;
        table.setHeader({"file", "workload", "role", "threads",
                         "groups"});
        for (const fs::path &path : files) {
            std::string workload = "-", role = "-", threads = "-",
                        groups;
            try {
                const wdl::Program prog = wdl::loadProgram(path.string());
                int total = 0;
                for (const wdl::GroupIR &g : prog.groups) {
                    total += g.nthreads;
                    if (!groups.empty())
                        groups += '+';
                    groups += g.name + ":" + std::to_string(g.nthreads);
                }
                if (!prog.name.empty())
                    workload = prog.name;
                role = workloadRoleName(prog.role);
                threads = std::to_string(total);
            } catch (const std::exception &e) {
                groups = std::string("parse error: ") + e.what();
            }
            table.addRow({path.filename().string(), workload, role,
                          threads, groups});
        }
        std::printf("%s\n", table.render().c_str());
    }
    // The frontends table completes the picture: which engine runs the
    // files (`workload-file =`) next to the other workload sources.
    listFrontends();
}

/** `sst list NAME`: no flags, so anything after NAME but `--help` is an
 *  unknown argument. */
template <void (*print)()>
int
listCommand(int argc, char **argv, int first)
{
    parseFlags(argc, argv, first,
               std::string("usage: sst list ") + argv[first - 1] + "\n", {});
    print();
    return 0;
}

const std::vector<Command> kListCommands = {
    {"profiles", "the Figure 6 benchmark suite", listCommand<listProfiles>},
    {"scheds", "OS scheduler policies (--sched)", listCommand<listScheds>},
    {"frontends", "workload frontends (frontend =)",
     listCommand<listFrontends>},
    {"mixes", "named heterogeneous workloads (workload =)",
     listCommand<listMixes>},
    {"workloads", "example .wdl files + frontends (workload-file =)",
     listCommand<listWorkloads>},
    {"reports", "views of a finished batch (--report)",
     listCommand<listReports>},
};

// ---- serve / worker / submit ------------------------------------------------

/** Set by SIGINT/SIGTERM so `sst serve` shuts down cleanly. */
volatile std::sig_atomic_t gServeStop = 0;

void
serveSignalHandler(int)
{
    gServeStop = 1;
}

/** A `--connect ENDPOINT` flag: a socket path or tcp:host:port. */
FlagTarget
intoEndpoint(serve::Endpoint &dst)
{
    return {[&dst](const char *, const char *v) {
                dst = serve::parseEndpoint(v);
            },
            dst.text()};
}

/** Send one request on a fresh connection (the protocol's unit). */
serve::Socket
clientRequest(const serve::Endpoint &ep, const serve::Request &req)
{
    serve::Socket sock = serve::connectTo(ep);
    sock.writeAll(serve::serializeRequest(req) + "\n");
    sock.shutdownWrite();
    return sock;
}

/** One-line request/reply; prints the reply. Returns 0 on `ok ...`. */
int
simpleRequest(const serve::Endpoint &ep, const serve::Request &req)
{
    serve::Socket sock = clientRequest(ep, req);
    std::string reply;
    if (!sock.readLine(reply))
        fatal("server closed the connection");
    std::printf("%s\n", reply.c_str());
    return reply.rfind("ok", 0) == 0 ? 0 : 2;
}

/**
 * Send @p req and read its multi-line reply: a first line starting
 * with @p ok (any other reply is fatal), the body lines, which are
 * returned, and a line `end` or `end ...`, stored in @p end_line.
 */
std::string
readReply(const serve::Endpoint &ep, const serve::Request &req,
          const char *ok, std::string *end_line = nullptr)
{
    serve::Socket sock = clientRequest(ep, req);
    std::string line, body;
    if (!sock.readLine(line))
        fatal("server closed the connection");
    if (line.rfind(ok, 0) != 0)
        fatal(line);
    while (sock.readLine(line)) {
        if (line == "end" || line.rfind("end ", 0) == 0) {
            if (end_line)
                *end_line = line;
            return body;
        }
        body += line + '\n';
    }
    fatal("reply ended without an end line");
}

/**
 * Stream a campaign's results. The body (header + rows) goes to
 * @p out_path, or stdout when empty — exactly the bytes `sst sweep
 * --csv` would write, so the two are diffable. Returns 0 when the
 * stream ended `end complete`, 3 on a partial stream.
 */
int
streamCampaign(const serve::Endpoint &ep, const std::string &name,
               bool json, bool wait, const std::string &out_path)
{
    serve::Request req;
    req.kind = serve::Request::Kind::kResults;
    req.campaign = name;
    req.json = json;
    req.wait = wait;
    std::string endLine;
    const std::string body = readReply(ep, req, "ok results", &endLine);
    if (out_path.empty())
        std::fputs(body.c_str(), stdout);
    else
        writeFile(out_path, body);

    if (endLine.rfind("end complete", 0) != 0) {
        warn("campaign '" + name + "' is still running (" + endLine +
             "); re-run with --results to fetch the rest");
        return 3;
    }
    return 0;
}

/** Print the body of the multi-line reply to a @p kind request. */
int
printReply(const serve::Endpoint &ep, serve::Request::Kind kind,
           const char *ok)
{
    serve::Request req;
    req.kind = kind;
    std::fputs(readReply(ep, req, ok).c_str(), stdout);
    return 0;
}

/** `sst submit`'s values; the action and switches are the flags given. */
struct SubmitOptions
{
    serve::Endpoint endpoint;
    std::string spec, name, results, cancel, csv;
    int priority = 0;
};

// ---- the commands -----------------------------------------------------------

/**
 * The spec an experiment command line describes: `--spec FILE` or the
 * defaults, then every spec-key flag in command-line order. @p head
 * starts the help text; @p flags are the command's own.
 */
ExperimentSpec
parseSpecCommand(int argc, char **argv, int first, const std::string &head,
                 std::vector<Flag> flags)
{
    std::string specPath;
    // Spec assignments in command-line order, applied once --spec loaded.
    std::vector<std::pair<std::string, std::string>> assignments;
    std::size_t files = std::string::npos; // the --workload-file entry
    std::string keyRows =
        usageRow("--KEY VALUE", "set spec key KEY (also --KEY=VALUE)") +
        usageRow("--set KEY=VALUE", "the same, in spec-file syntax");
    for (const FlagAlias &a : kFlagAliases)
        keyRows += usageRow(std::string(a.flag) + (a.value ? "" : " V"),
                            std::string("same as --") + a.key + " " +
                                (a.value ? a.value : "V"));
    flags.insert(flags.begin(), {"--spec", "FILE",
                                 "start from this spec file, not the defaults",
                                 into(specPath)});

    parseFlags(
        argc, argv, first, head + keyRows, flags,
        [&](int &i) {
            std::string key, value;
            if (!specFlag(argc, argv, i, key, value))
                return false;
            if (key == "workload-file" && files != std::string::npos) {
                // --workload-file repeats: each adds to the first's list.
                assignments[files].second += "," + value;
                return true;
            }
            if (key == "workload-file")
                files = assignments.size();
            assignments.emplace_back(key, value);
            return true;
        },
        "--workload-file repeats, each adding files; a machine key given a\n"
        "list of values is a sweep axis; see `sst list` for names\n"
        "spec keys: " +
            specKeyNamesJoined() + "\n");

    ExperimentSpec spec =
        specPath.empty() ? ExperimentSpec() : parseSpecFile(specPath);
    for (const auto &kv : assignments)
        applySpecValue(spec, kv.first, kv.second);
    return spec;
}

int
runMain(int argc, char **argv, int first)
{
    RunOptions run;
    run.driver.jobs = 0; // hardware concurrency
    run.driver.cacheDir = kDefaultCacheDir;
    const ExperimentSpec spec = parseSpecCommand(
        argc, argv, first,
        std::string("usage: sst ") + argv[first - 1] +
            " [--spec FILE] [options]   (run and sweep are one command)\n"
            "run an experiment grid: the spec file (or the defaults),\n"
            "then every spec-key flag in command-line order\n",
        {
            {"--print-spec", nullptr, "print the canonical spec and exit",
             into(run.printSpec)},
            {"--jobs", "N", "worker threads, 0 = one per hardware thread",
             into(run.driver.jobs, 0, 1 << 20)},
            {"--cache-dir", "DIR", "result cache", into(run.driver.cacheDir)},
            {"--no-cache", nullptr, "disable the result cache",
             clearing(run.driver.cacheDir)},
            {"--refresh", nullptr, "re-run and overwrite cached results",
             into(run.driver.refresh)},
            {"--record-dir", "DIR",
             "capture .sstt traces of live jobs (cache hits skip it)",
             into(run.driver.recordDir)},
            {"--trace-out", "FILE",
             "write a Chrome trace_event JSON of the batch (Perfetto)",
             into(run.traceOut)},
        });
    if (run.printSpec) {
        std::fputs(serializeSpec(spec).c_str(), stdout);
        return 0;
    }
    return executeBatch(spec, run);
}

/** Cache and DRAM ground truth per core of @p run (none in the sum of
 *  a multi-group workload's baselines). */
void
printCoreStats(const char *name, const RunResult &run)
{
    std::printf("-- %s --\n", name);
    TextTable t;
    t.setHeader({"core", "l1acc", "l1hit%", "llcacc", "llchit%", "dram",
                 "rowhit", "rowconf", "coher", "wb"});
    const auto rate = [](std::uint64_t hits, std::uint64_t accesses) {
        return fmtPercent(accesses ? (double)hits / accesses : 0.0);
    };
    for (std::size_t c = 0; c < run.cacheStats.size(); ++c) {
        const auto &cs = run.cacheStats[c];
        const auto &ds = run.dramStats[c];
        t.addRow({std::to_string(c), std::to_string(cs.l1Accesses),
                  rate(cs.l1Hits, cs.l1Accesses),
                  std::to_string(cs.llcAccesses),
                  rate(cs.llcHits, cs.llcAccesses),
                  std::to_string(ds.accesses), std::to_string(ds.rowHits),
                  std::to_string(ds.rowConflicts),
                  std::to_string(cs.coherencyMisses),
                  std::to_string(cs.writebacks)});
    }
    std::printf("%s\n", t.render().c_str());
}

/**
 * `sst inspect`: the one job of a grid, simulated fresh with its full
 * runs kept (DriverOptions::fullRuns; a cache entry holds no per-core
 * stats or region snapshots). Prints the run vitals, per-core cache and
 * DRAM stats, raw per-thread counters, the stack, and the per-region
 * stacks (Section 4.6) with their time-weighted yield.
 */
int
inspectMain(int argc, char **argv, int first)
{
    const ExperimentSpec spec = parseSpecCommand(
        argc, argv, first,
        "usage: sst inspect [--spec FILE] [spec-key flags]\n"
        "simulate a grid of exactly one job, uncached, and print its\n"
        "per-core and per-thread counters, stack and per-region stacks\n"
        "(the output.* keys do not apply)\n",
        {});
    validateSpec(spec);
    const std::vector<JobSpec> jobs = expandGrid(spec);
    if (jobs.size() != 1)
        fatal("inspect runs one job; the grid has " +
              std::to_string(jobs.size()) +
              " jobs (narrow --profiles, --threads or an axis)");
    DriverOptions opts;
    opts.fullRuns = true;
    applySpecToDriverOptions(spec, opts);
    const JobResult result = runExperimentBatch(jobs, opts)[0];
    if (!result.ok())
        fatal(result.error);
    const SpeedupExperiment &exp = result.exp;

    std::printf("== %s @ %d threads ==\n", jobs[0].label().c_str(),
                jobs[0].nthreads());
    std::printf("Ts=%llu Tp=%llu actual=%.2f estimated=%.2f err=%.1f%%\n",
                (unsigned long long)exp.ts, (unsigned long long)exp.tp,
                exp.actualSpeedup, exp.estimatedSpeedup,
                exp.error * 100.0);
    std::printf("instr ST=%llu MT=%llu spin=%llu parOv=%.1f%%\n\n",
                (unsigned long long)exp.single.totalInstructions,
                (unsigned long long)exp.parallel.totalInstructions,
                (unsigned long long)exp.parallel.totalSpinInstructions,
                exp.parOverheadMeasured * 100.0);
    printCoreStats("single-threaded", exp.single);
    printCoreStats("parallel", exp.parallel);

    std::printf("-- per-thread counters (parallel) --\n");
    TextTable threads;
    threads.setHeader({"tid", "instr", "spinInstr", "missStall", "misses",
                       "negSampStall", "itHits", "busO", "bankO", "pageO",
                       "tian", "li", "yield", "gtSpin", "gtYield",
                       "finish"});
    for (int i = 0; i < exp.parallel.nthreads; ++i) {
        const ThreadCounters &c = exp.parallel.threads[(std::size_t)i];
        std::vector<std::string> row = {std::to_string(i)};
        for (const std::uint64_t v :
             {c.instructions, c.spinInstructions, c.llcLoadMissStall,
              c.llcLoadMisses, c.negLlcSampledStall,
              c.interThreadHitsSampled, c.busWaitOther, c.bankWaitOther,
              c.pageConflictOther, c.spinDetectedTian, c.spinDetectedLi,
              c.yieldCycles, c.gtSpin(), c.gtYield(), c.finishTime})
            row.push_back(std::to_string(v));
        threads.addRow(row);
    }
    std::printf("%s\n", threads.render().c_str());
    std::printf("%s\n",
                renderStackTable(exp.stack, exp.actualSpeedup).c_str());

    // The whole-run stack folds barrier waiting into spin and yield;
    // per-region stacks localize it, and their time-weighted yield is
    // the whole run's.
    const std::vector<RegionStack> regions = buildRegionStacks(
        exp.parallel, defaultReportOptions(jobs[0].params));
    std::printf("regions: %zu\n\n", regions.size());
    TextTable table;
    table.setHeader({"region", "span (cycles)", "base", "yield", "spin",
                     "netneg", "mem", "estimated"});
    double wsum_yield = 0.0, wsum = 0.0;
    for (std::size_t i = 0; i < regions.size(); ++i) {
        const RegionStack &r = regions[i];
        const double span = static_cast<double>(r.end - r.begin);
        wsum_yield += r.stack.yield * span;
        wsum += span;
        if (i >= 8 && i + 1 < regions.size())
            continue;
        std::vector<std::string> row = {std::to_string(i),
                                        std::to_string(r.end - r.begin)};
        for (const double v : {r.stack.baseSpeedup, r.stack.yield,
                               r.stack.spin, r.stack.netNegLlc(),
                               r.stack.negMem, r.stack.estimatedSpeedup})
            row.push_back(fmtDouble(v, 2));
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("time-weighted region yield = %.2f vs whole-run yield = "
                "%.2f\n",
                wsum_yield / wsum, exp.stack.yield);
    return 0;
}

int
serveMain(int argc, char **argv, int first)
{
    serve::ServerOptions opts;
    opts.endpoint.path = kDefaultSocket;
    opts.driver.cacheDir = kDefaultCacheDir;
    opts.journalPath = ".sst-serve.journal";
    // The reaper checks external workers' leases once a tick; a lease
    // shorter than three ticks is refused.
    const std::uint64_t leaseFloor = 3 * opts.reaperIntervalMs;
    parseFlags(
        argc, argv, first,
        "usage: sst serve [options]\n"
        "run the persistent sweep service: accepts campaigns over a\n"
        "socket, schedules them on a crash-safe job queue, and streams\n"
        "incremental results (see `sst submit` and `sst worker`)\n",
        {
            {"--socket", "PATH", "Unix socket", into(opts.endpoint.path)},
            {"--tcp", "PORT",
             "listen on TCP 127.0.0.1:PORT instead (0 picks a free port)",
             {[&opts](const char *flag, const char *v) {
                 opts.endpoint.tcp = true;
                 opts.endpoint.port = parseInt(flag, v, 0, 65535);
             }}},
            {"--jobs", "N", "in-process worker threads; 0 = external only",
             into(opts.localWorkers, 0, 1 << 10)},
            {"--cache-dir", "DIR", "result cache; restarts resume from it",
             into(opts.driver.cacheDir)},
            {"--no-cache", nullptr, "disable the result cache",
             clearing(opts.driver.cacheDir)},
            {"--journal", "FILE", "campaign journal; restarts replay it",
             into(opts.journalPath)},
            {"--no-journal", nullptr, "disable crash-safe persistence",
             clearing(opts.journalPath)},
            {"--trace-dir", "DIR", "replay recorded op traces from DIR",
             into(opts.driver.traceDir)},
            {"--lease-ms", "K",
             "worker lease duration, at least " +
                 std::to_string(leaseFloor) + " ms",
             into(opts.queue.leaseMs)},
            {"--max-attempts", "K", "leases before a job fails",
             into(opts.queue.maxAttempts, 1, 1000)},
            {"--backoff-ms", "K", "requeue backoff base",
             into(opts.queue.backoffBaseMs)},
        },
        nullptr,
        "the server exits once drained (`sst submit --drain`) or on "
        "SIGINT\n");
    if (opts.queue.leaseMs < leaseFloor) {
        fatal("--lease-ms " + std::to_string(opts.queue.leaseMs) +
              " is below the floor of " + std::to_string(leaseFloor) +
              " ms (3 x the " + std::to_string(opts.reaperIntervalMs) +
              " ms reaper interval)");
    }

    std::signal(SIGINT, serveSignalHandler);
    std::signal(SIGTERM, serveSignalHandler);

    serve::Server server(opts);
    server.start();
    std::printf("serving on %s\n", server.endpoint().text().c_str());
    std::fflush(stdout);

    while (gServeStop == 0 && !server.finished())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const bool drained = server.finished();
    server.stop();
    std::printf(drained ? "server drained\n" : "server stopped\n");
    return 0;
}

int
workerMain(int argc, char **argv, int first)
{
    serve::WorkerOptions opts;
    opts.endpoint.path = kDefaultSocket;
    parseFlags(
        argc, argv, first,
        "usage: sst worker --connect ENDPOINT [options]\n"
        "lease and execute jobs from a running `sst serve` instance\n",
        {
            {"--connect", "ENDPOINT", "socket path or tcp:host:port",
             intoEndpoint(opts.endpoint)},
            {"--name", "NAME", "worker identity (default: worker-<pid>)",
             into(opts.name)},
            {"--trace-dir", "DIR", "replay recorded op traces from DIR",
             into(opts.driver.traceDir)},
            {"--poll-ms", "K", "retry interval after a failed lease request",
             into(opts.pollMs)},
            {"--retries", "K", "tolerated consecutive connection failures",
             into(opts.connectRetries, 0, 1 << 20)},
            {"--verbose", nullptr, "log every lease and completion",
             into(opts.verbose)},
        },
        nullptr,
        "exits 0 when the server drains, 1 when it stays unreachable\n");
    return serve::runWorker(opts);
}

int
submitMain(int argc, char **argv, int first)
{
    SubmitOptions o;
    o.endpoint.path = kDefaultSocket;
    const std::set<std::string> given = parseFlags(
        argc, argv, first,
        "usage: sst submit [--connect ENDPOINT] <action>\n"
        "client for a running `sst serve` instance; the actions are\n"
        "--spec, --results, --status, --cancel, --drain and --ping\n"
        "(exactly one), and a flag of another action is an error\n",
        {
            {"--connect", "ENDPOINT", "socket path or tcp:host:port",
             intoEndpoint(o.endpoint)},
            {"--spec", "FILE", "submit the spec as a campaign",
             into(o.spec)},
            {"--name", "NAME", "--spec: campaign name (default: file stem)",
             into(o.name)},
            {"--priority", "K", "--spec: queue priority",
             into(o.priority, -1000000, 1000000)},
            {"--wait", nullptr, "--spec: stream results once submitted"},
            {"--results", "NAME", "stream a campaign's results",
             into(o.results)},
            {"--no-wait", nullptr, "--results: don't block on unsettled jobs"},
            {"--json", nullptr, "--results, --wait: JSON rows, not CSV"},
            {"--csv", "FILE", "--results, --wait: write rows to FILE, not "
                              "stdout",
             into(o.csv)},
            {"--status", nullptr, "queue and campaign counters"},
            {"--cancel", "NAME", "cancel a campaign's pending jobs",
             into(o.cancel)},
            {"--drain", nullptr, "stop the server once work finishes"},
            {"--ping", nullptr, "liveness probe"},
        });
    const auto has = [&given](const char *flag) {
        return given.count(flag) != 0;
    };
    const bool spec = !o.spec.empty(), results = has("--results"),
               json = has("--json");
    if (spec + results + has("--status") + has("--cancel") +
            has("--drain") + has("--ping") !=
        1) {
        fatal("exactly one action required (--spec, --results, "
              "--status, --cancel, --drain or --ping)");
    }
    // Checked before connecting: a flag the action would ignore is a
    // mistake, not a no-op.
    for (const char *flag : {"--name", "--priority", "--wait"})
        if (has(flag) && !spec)
            fatal(std::string(flag) + " applies only to --spec");
    if (has("--no-wait") && !results)
        fatal("--no-wait applies only to --results");
    for (const char *flag : {"--json", "--csv"})
        if (has(flag) && !results && !has("--wait"))
            fatal(std::string(flag) +
                  " applies only to --results and --spec --wait");

    if (has("--status"))
        return printReply(o.endpoint, serve::Request::Kind::kStatus, "ok");
    if (results)
        return streamCampaign(o.endpoint, o.results, json,
                              !has("--no-wait"), o.csv);
    serve::Request req;
    if (!spec) {
        req.kind = has("--drain")  ? serve::Request::Kind::kDrain
                   : has("--ping") ? serve::Request::Kind::kPing
                                   : serve::Request::Kind::kCancel;
        req.campaign = o.cancel;
        return simpleRequest(o.endpoint, req);
    }

    // --spec: submit, optionally followed by a blocking results stream.
    // The canonical text carries the paths the spec file resolved.
    req.kind = serve::Request::Kind::kSubmit;
    req.payload = serializeSpec(parseSpecFile(o.spec));
    req.campaign = o.name.empty()
                       ? std::filesystem::path(o.spec).stem().string()
                       : o.name;
    req.priority = o.priority;
    const int rc = simpleRequest(o.endpoint, req);
    if (rc != 0 || !has("--wait"))
        return rc;
    return streamCampaign(o.endpoint, req.campaign, json, /*wait=*/true,
                          o.csv);
}

int
metricsMain(int argc, char **argv, int first)
{
    serve::Endpoint ep;
    ep.path = kDefaultSocket;
    parseFlags(argc, argv, first,
               "usage: sst metrics [ENDPOINT]\n"
               "print the telemetry exposition of a running `sst serve`:\n"
               "counters, gauges and latency histograms in Prometheus text\n"
               "format (deterministically ordered)\n",
               {{"--connect", "ENDPOINT",
                 "socket path or tcp:host:port, also bare",
                 intoEndpoint(ep)}},
               [&](int &i) {
                   if (argv[i][0] == '\0' || argv[i][0] == '-')
                       return false;
                   ep = serve::parseEndpoint(argv[i]);
                   return true;
               });
    return printReply(ep, serve::Request::Kind::kMetrics, "ok metrics");
}

int
versionMain()
{
    std::printf("sst format versions:\n"
                "  fingerprint     %d (homogeneous schema %d)\n"
                "  trace           %u (oldest readable %u)\n"
                "  result cache    %d\n"
                "  serve protocol  %d\n"
                "  wdl language    %d\n",
                kFingerprintVersion, kHomogeneousSchemaVersion,
                trace::kTraceVersion, trace::kMinTraceVersion,
                kResultCacheVersion, serve::kProtocolVersion,
                wdl::kWdlVersion);
    return 0;
}

const std::vector<Command> kCommands = {
    {"run", "run an experiment: a spec file and/or spec-key flags",
     runMain},
    {"sweep", "the same command as run", runMain},
    {"inspect", "one job in detail: per-core, per-thread, per-region",
     inspectMain},
    {"trace", "check and describe recorded op traces",
     [](int argc, char **argv, int first) {
         return dispatch(
             "sst trace", "subcommand",
             {{"info", "check and describe a recorded op trace", traceInfo}},
             argc, argv, first);
     }},
    {"list", "enumerate registered profiles, scheds, frontends, mixes",
     [](int argc, char **argv, int first) {
         return dispatch("sst list", "registry", kListCommands, argc, argv,
                         first);
     }},
    {"serve", "run the persistent sweep service", serveMain},
    {"worker", "lease and execute jobs from a server", workerMain},
    {"submit", "submit campaigns / fetch results from a server",
     submitMain},
    {"metrics", "stream telemetry from a running server", metricsMain},
};

/** Run `sst ARGS` and return its exit code. */
int
sstMain(int argc, char **argv)
{
    if (argc > 1 && (std::strcmp(argv[1], "--version") == 0 ||
                     std::strcmp(argv[1], "-V") == 0))
        return versionMain();
    // The one place where an error escaping a command becomes exit 1.
    try {
        return dispatch(
            "sst", "command", kCommands, argc, argv, 1,
            "`sst <command> --help` shows the command's options;\n"
            "`sst --version` prints every persisted-format version\n");
    } catch (const std::exception &e) {
        fatal(e.what());
    }
}

} // namespace
} // namespace cli
} // namespace sst

int
main(int argc, char **argv)
{
    return sst::cli::sstMain(argc, argv);
}
