#include "cli_commands.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.hh"
#include "core/classify.hh"
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
#include "spec/registries.hh"
#include "spec/spec.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "trace/trace_run.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "wdl/wdl.hh"
#include "workload/profile.hh"

namespace sst {
namespace cli {
namespace {

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot write " + path);
    out << content;
    std::printf("wrote %s\n", path.c_str());
}

/**
 * The per-benchmark result table every batch command prints: speedup,
 * estimation error and top stack components per job, with the optional
 * cores/LLC columns shown only when that axis is actually swept.
 */
void
printBatchTable(const std::vector<JobSpec> &jobs,
                const std::vector<JobResult> &results, bool show_cores,
                bool show_llc)
{
    TextTable table;
    std::vector<std::string> header = {"benchmark", "threads"};
    if (show_cores)
        header.push_back("cores");
    if (show_llc)
        header.push_back("llc");
    for (const char *c : {"paper", "actual", "estimated", "err", "1st",
                          "2nd", "3rd", "base", "pos", "netneg", "mem",
                          "spin", "yield"})
        header.push_back(c);
    table.setHeader(header);

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobSpec &s = jobs[i];
        const JobResult &r = results[i];
        std::vector<std::string> row = {s.label(),
                                        std::to_string(s.nthreads())};
        if (show_cores)
            row.push_back(std::to_string(s.ncoresEffective()));
        if (show_llc)
            row.push_back(fmtBytes(s.params.cache.llcBytes));
        if (!r.ok()) {
            row.push_back("FAILED: " + r.error);
            while (row.size() < header.size())
                row.push_back("-");
            table.addRow(row);
            continue;
        }
        const SpeedupExperiment &e = r.exp;
        const auto ranked = rankedDelimiters(e.stack);
        auto comp = [&](std::size_t k) {
            return k < ranked.size()
                       ? std::string(shortComponentName(ranked[k]))
                       : std::string("-");
        };
        // The paper reports 16-thread speedups per benchmark; mixes,
        // pipelines and user-authored WDL scenarios have no paper row.
        row.push_back(s.workload.isHomogeneous() && !s.workload.wdlProgram
                          ? fmtDouble(s.workload.groups[0]
                                          .profile.paperSpeedup16,
                                      2)
                          : std::string("-"));
        row.push_back(fmtDouble(e.actualSpeedup, 2));
        row.push_back(fmtDouble(e.estimatedSpeedup, 2));
        row.push_back(fmtPercent(e.error, 1));
        row.push_back(comp(0));
        row.push_back(comp(1));
        row.push_back(comp(2));
        row.push_back(fmtDouble(e.stack.baseSpeedup, 2));
        row.push_back(fmtDouble(e.stack.posLlc, 2));
        row.push_back(fmtDouble(e.stack.netNegLlc(), 2));
        row.push_back(fmtDouble(e.stack.negMem, 2));
        row.push_back(fmtDouble(e.stack.spin, 2));
        row.push_back(fmtDouble(e.stack.yield, 2));
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());

    RunningStat err;
    for (const JobResult &r : results)
        if (r.ok())
            err.add(std::fabs(r.exp.error));
    if (err.count() > 0)
        std::printf("average absolute error: %.1f%%\n",
                    err.mean() * 100.0);
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
        stats.tracesRecorded, driver.workerCount());
}

/** Run a grid, print, export — the tail shared by sweep and run.
 *  A non-empty @p trace_out enables telemetry for the batch and writes
 *  a Chrome trace_event JSON of every job/driver span afterwards;
 *  results are bit-identical either way (telemetry is write-only). */
int
executeBatch(const SweepGrid &grid, const DriverOptions &opts, bool quiet,
             const std::string &csv_path, const std::string &json_path,
             const std::string &trace_out)
{
    const bool tracing = !trace_out.empty();
    if (tracing) {
        telemetry::Registry::global().setEnabled(true);
        telemetry::SpanTracer::global().setEnabled(true);
    }

    const std::vector<JobSpec> jobs = expandGrid(grid);
    ExperimentDriver driver(opts);
    const std::vector<JobResult> results = driver.runBatch(jobs);

    if (tracing) {
        telemetry::SpanTracer &tracer = telemetry::SpanTracer::global();
        tracer.setEnabled(false);
        if (tracer.dropped() > 0)
            warn("cli", std::to_string(tracer.dropped()) +
                            " spans dropped (ring buffer full)");
        writeFile(trace_out, tracer.chromeTraceJson());
    }

    if (!quiet)
        printBatchTable(jobs, results, !grid.cores.empty(),
                        !grid.llcBytes.empty());
    printBatchStats(driver);

    if (!csv_path.empty())
        writeFile(csv_path, sweepCsv(jobs, results));
    if (!json_path.empty())
        writeFile(json_path, sweepJson(jobs, results));

    return driver.stats().failed == 0 ? 0 : 2;
}

// ---- sweep ------------------------------------------------------------------

void
sweepUsage()
{
    std::printf(
        "usage: sst sweep [options]\n"
        "  --profiles all|A,B,...  benchmark labels (default: all)\n"
        "  --mix LIST              heterogeneous workloads: registered\n"
        "                          mixes/pipelines (`sst list mixes`) or\n"
        "                          inline a:8+b:8 / s1:1>s2:2 descriptors\n"
        "                          (replaces --profiles/--threads)\n"
        "  --workload-file FILE    compile a .wdl workload description\n"
        "                          (repeatable; see `sst list "
        "workloads`;\n"
        "                          replaces --profiles/--threads)\n"
        "  --threads LIST          thread counts, e.g. 2,4,8,16 "
        "(default: 16)\n"
        "  --cores LIST            core counts (default: = threads;\n"
        "                          fewer cores oversubscribes)\n"
        "  --llc LIST              LLC sizes, e.g. 1M,2M,4M,8M "
        "(default: params default)\n"
        "  --jobs N                worker threads (default: hardware)\n"
        "  --seed-offset K         replication RNG stream (default: 0)\n"
        "  --cache-dir DIR         result cache (default: .sst-cache)\n"
        "  --no-cache              disable the result cache\n"
        "  --refresh               re-run and overwrite cached results\n"
        "  --trace-dir DIR         replay recorded op traces from DIR\n"
        "                          (see `sst trace record --trace-dir`)\n"
        "  --record-dir DIR        capture .sstt traces of live jobs\n"
        "                          into DIR as the batch runs (cache\n"
        "                          hits skip capture)\n"
        "  --sched POLICY          scheduler policy (default:\n"
        "                          affinity-fifo)\n"
        "  --sched-seed K          RNG stream for --sched random\n"
        "  --csv FILE              write results as CSV\n"
        "  --json FILE             write results as JSON\n"
        "  --trace-out FILE        write a Chrome trace_event JSON of\n"
        "                          the batch (load in Perfetto /\n"
        "                          chrome://tracing)\n"
        "  --quiet                 suppress the result table\n"
        "scheduler policies: %s\n",
        allSchedPolicyLabelsJoined().c_str());
}

// ---- trace ------------------------------------------------------------------

void
traceUsage()
{
    std::printf(
        "usage: sst trace <record|replay|info> [options]\n"
        "  record --profile LABEL [--threads N] (--out FILE | "
        "--trace-dir DIR)\n"
        "         [--seed-offset K] [--sched POLICY] [--sched-seed K]\n"
        "         [--quiet]\n"
        "      run the live experiment, write the op trace\n"
        "  replay --in FILE [--sched POLICY] [--quiet]\n"
        "      re-simulate from the trace (no workload generation);\n"
        "      --sched must match the recorded policy (it documents\n"
        "      the expectation, replay always uses the recording's)\n"
        "  info --in FILE\n"
        "      decode every stream to check it, then print header and\n"
        "      per-stream statistics\n"
        "scheduler policies: %s\n",
        allSchedPolicyLabelsJoined().c_str());
}

/**
 * Full-precision experiment dump: every value %.17g/%"PRIu64" so record
 * and replay output can be diffed bit for bit.
 */
void
printExperiment(const SpeedupExperiment &e)
{
    std::printf("benchmark           %s\n", e.label.c_str());
    std::printf("threads             %d\n", e.nthreads);
    std::printf("ts                  %" PRIu64 "\n", e.ts);
    std::printf("tp                  %" PRIu64 "\n", e.tp);
    std::printf("actual_speedup      %.17g\n", e.actualSpeedup);
    std::printf("estimated_speedup   %.17g\n", e.estimatedSpeedup);
    std::printf("error               %.17g\n", e.error);
    std::printf("stack.base          %.17g\n", e.stack.baseSpeedup);
    std::printf("stack.pos_llc       %.17g\n", e.stack.posLlc);
    std::printf("stack.neg_llc       %.17g\n", e.stack.negLlc);
    std::printf("stack.neg_mem       %.17g\n", e.stack.negMem);
    std::printf("stack.spin          %.17g\n", e.stack.spin);
    std::printf("stack.yield         %.17g\n", e.stack.yield);
    std::printf("stack.imbalance     %.17g\n", e.stack.imbalance);
    std::printf("stack.coherency     %.17g\n", e.stack.coherency);
    std::printf("par_overhead        %.17g\n", e.parOverheadMeasured);
}

int
traceRecord(int argc, char **argv, int first)
{
    std::string label, outPath, traceDir;
    int nthreads = 16;
    std::uint64_t seedOffset = 0;
    SimParams params;
    bool quiet = false;

    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--profile") {
            label = argValue(argc, argv, i);
        } else if (arg == "--threads") {
            // The recording runs live on nthreads cores, so the
            // simulator's core cap bounds this (the format itself
            // allows up to trace::kMaxThreads streams).
            nthreads =
                parseInt("--threads", argValue(argc, argv, i), 1,
                         static_cast<long>(kMaxSimCores));
        } else if (arg == "--out") {
            outPath = argValue(argc, argv, i);
        } else if (arg == "--trace-dir") {
            traceDir = argValue(argc, argv, i);
        } else if (arg == "--seed-offset") {
            seedOffset =
                parseU64("--seed-offset", argValue(argc, argv, i));
        } else if (arg == "--sched") {
            params.schedPolicy =
                parseSchedPolicy(argValue(argc, argv, i));
        } else if (arg == "--sched-seed") {
            params.schedSeed =
                parseU64("--sched-seed", argValue(argc, argv, i));
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            traceUsage();
            fatal("unknown record argument '" + arg + "'");
        }
    }
    if (label.empty())
        fatal("record needs --profile (one of: " +
              allProfileLabelsJoined() + ")");
    if (params.schedSeed != 0 &&
        params.schedPolicy != SchedPolicy::kRandom) {
        fatal("--sched-seed only affects --sched random; the "
              "seed would be silently ignored");
    }
    if (outPath.empty() == traceDir.empty())
        fatal("record needs exactly one of --out or --trace-dir");

    BenchmarkProfile profile = profileByLabel(label);
    profile.seed = deriveJobSeed(profile.seed, seedOffset);

    if (!traceDir.empty()) {
        std::filesystem::create_directories(traceDir);
        outPath = tracePathFor(traceDir, profile, nthreads, seedOffset,
                               params.schedPolicy, params.schedSeed);
    }

    std::uint64_t ops = 0;
    const SpeedupExperiment exp = recordSpeedupTrace(
        params, WorkloadSpec::homogeneous(profile, nthreads), outPath,
        &ops);
    printExperiment(exp);
    if (!quiet) {
        const auto bytes = std::filesystem::file_size(outPath);
        std::printf("wrote %s: %" PRIu64 " ops in %ju bytes "
                    "(%.2f bytes/op)\n",
                    outPath.c_str(), ops,
                    static_cast<std::uintmax_t>(bytes),
                    static_cast<double>(bytes) /
                        static_cast<double>(ops));
    }
    return 0;
}

int
traceReplay(int argc, char **argv, int first)
{
    std::string inPath;
    bool quiet = false;
    bool schedGiven = false;
    SchedPolicy sched = SchedPolicy::kAffinityFifo;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--in") {
            inPath = argValue(argc, argv, i);
        } else if (arg == "--sched") {
            sched = parseSchedPolicy(argValue(argc, argv, i));
            schedGiven = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            traceUsage();
            fatal("unknown replay argument '" + arg + "'");
        }
    }
    if (inPath.empty())
        fatal("replay needs --in FILE");

    const TraceReader reader(inPath);
    if (schedGiven)
        reader.requireSchedPolicy(sched); // TraceError -> fatal in main

    const SpeedupExperiment exp =
        replaySpeedupTrace(SimParams{}, reader);
    printExperiment(exp);
    if (!quiet)
        std::printf("replayed %s\n", inPath.c_str());
    return 0;
}

int
traceInfo(int argc, char **argv, int first)
{
    std::string inPath;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--in") {
            inPath = argValue(argc, argv, i);
        } else {
            traceUsage();
            fatal("unknown info argument '" + arg + "'");
        }
    }
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

// ---- run --------------------------------------------------------------------

void
runUsage()
{
    std::printf(
        "usage: sst run --spec FILE [options]\n"
        "execute a declarative experiment spec (see examples/specs/)\n"
        "  --spec FILE             the spec file (required)\n"
        "  --set KEY=VALUE         override one spec key (repeatable;\n"
        "                          same keys as the file format)\n"
        "  --sched POLICY          shorthand for --set sched=POLICY\n"
        "  --sched-seed K          shorthand for --set sched-seed=K\n"
        "  --print-spec            print the canonical form and exit\n"
        "  --jobs N                worker threads (default: hardware)\n"
        "  --cache-dir DIR         result cache (default: .sst-cache)\n"
        "  --no-cache              disable the result cache\n"
        "  --refresh               re-run and overwrite cached results\n"
        "  --csv FILE              write CSV (overrides output.csv)\n"
        "  --json FILE             write JSON (overrides output.json)\n"
        "  --trace-out FILE        write a Chrome trace_event JSON of\n"
        "                          the batch (load in Perfetto /\n"
        "                          chrome://tracing)\n"
        "  --quiet                 suppress the result table\n"
        "spec keys: %s\n",
        specKeyNamesJoined().c_str());
}

// ---- list -------------------------------------------------------------------

int
listProfiles()
{
    TextTable table;
    table.setHeader({"label", "suite", "paper speedup @16", "class"});
    for (const std::string &name : profileRegistry().names()) {
        const BenchmarkProfile &p = **profileRegistry().find(name);
        table.addRow({name, p.suite, fmtDouble(p.paperSpeedup16, 2),
                      p.paperClass});
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}

int
listScheds()
{
    for (const std::string &name : schedulerRegistry().names())
        std::printf("%s\n", name.c_str());
    return 0;
}

int
listFrontends()
{
    TextTable table;
    table.setHeader({"frontend", "description"});
    for (const std::string &name : opSourceRegistry().names()) {
        const OpSourceFrontend &f = *opSourceRegistry().find(name);
        table.addRow({name, f.description});
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}

int
listMixes()
{
    TextTable table;
    table.setHeader({"mix", "role", "threads", "groups"});
    for (const std::string &name : mixRegistry().names()) {
        const WorkloadSpec &w = *mixRegistry().find(name);
        table.addRow({name, workloadRoleName(w.role),
                      std::to_string(w.nthreads()), w.descriptor()});
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}

/** Directory `sst list workloads` scans for example .wdl files. */
constexpr const char *kExampleWorkloadDir = "examples/workloads";

int
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
    return listFrontends();
}

/** The list subcommands, table-driven like the registries themselves:
 *  usage text and the unknown-registry error enumerate this table. */
struct ListCommand
{
    const char *name;
    const char *description;
    int (*run)();
};

constexpr ListCommand kListCommands[] = {
    {"profiles", "the Figure 6 benchmark suite", listProfiles},
    {"scheds", "OS scheduler policies (--sched)", listScheds},
    {"frontends", "workload frontends (frontend =)", listFrontends},
    {"mixes", "named heterogeneous workloads (workload =)", listMixes},
    {"workloads", "example .wdl files + frontends (workload-file =)",
     listWorkloads},
};

std::string
listCommandNamesJoined()
{
    std::string out;
    for (const ListCommand &c : kListCommands) {
        if (!out.empty())
            out += ", ";
        out += c.name;
    }
    return out;
}

int
listUsage()
{
    TextTable table;
    table.setHeader({"registry", "contents"});
    for (const ListCommand &c : kListCommands)
        table.addRow({c.name, c.description});
    std::printf("usage: sst list <%s>\n%s\n",
                listCommandNamesJoined().c_str(),
                table.render().c_str());
    return 0;
}

// ---- serve / worker / submit ------------------------------------------------

/** Set by SIGINT/SIGTERM so `sst serve` shuts down cleanly. */
volatile std::sig_atomic_t gServeStop = 0;

void
serveSignalHandler(int)
{
    gServeStop = 1;
}

void
serveUsage()
{
    std::printf(
        "usage: sst serve [options]\n"
        "run the persistent sweep service: accepts campaigns over a\n"
        "socket, schedules them on a crash-safe job queue, and streams\n"
        "incremental results (see `sst submit` and `sst worker`)\n"
        "  --socket PATH           Unix socket (default: "
        ".sst-serve.sock)\n"
        "  --tcp PORT              listen on TCP 127.0.0.1:PORT instead\n"
        "                          (0 picks a free port, printed below)\n"
        "  --jobs N                in-process worker threads (default:\n"
        "                          0 — jobs run on external `sst "
        "worker`\n"
        "                          processes only)\n"
        "  --cache-dir DIR         result cache (default: .sst-cache);\n"
        "                          completed jobs from every worker "
        "land\n"
        "                          here, and restarts resume from it\n"
        "  --no-cache              disable the result cache\n"
        "  --journal FILE          campaign journal (default:\n"
        "                          .sst-serve.journal); restarts replay "
        "it\n"
        "  --no-journal            disable crash-safe persistence\n"
        "  --trace-dir DIR         replay recorded op traces from DIR\n"
        "  --lease-ms K            worker lease duration (default: "
        "30000)\n"
        "  --max-attempts K        leases before a job fails (default: "
        "3)\n"
        "  --backoff-ms K          requeue backoff base (default: "
        "1000)\n"
        "the server exits once drained (`sst submit --drain`) or on "
        "SIGINT\n");
}

int
serveImpl(int argc, char **argv, int first)
{
    serve::ServerOptions opts;
    std::string socketPath = ".sst-serve.sock";
    int tcpPort = -1;
    opts.driver.jobs = 1;
    opts.driver.cacheDir = ".sst-cache";
    std::string journalPath = ".sst-serve.journal";

    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket") {
            socketPath = argValue(argc, argv, i);
        } else if (arg == "--tcp") {
            tcpPort = parseInt("--tcp", argValue(argc, argv, i), 0, 65535);
        } else if (arg == "--jobs") {
            opts.localWorkers =
                parseInt("--jobs", argValue(argc, argv, i), 0, 1 << 10);
        } else if (arg == "--cache-dir") {
            opts.driver.cacheDir = argValue(argc, argv, i);
        } else if (arg == "--no-cache") {
            opts.driver.cacheDir.clear();
        } else if (arg == "--journal") {
            journalPath = argValue(argc, argv, i);
        } else if (arg == "--no-journal") {
            journalPath.clear();
        } else if (arg == "--trace-dir") {
            opts.driver.traceDir = argValue(argc, argv, i);
        } else if (arg == "--lease-ms") {
            opts.queue.leaseMs =
                parseU64("--lease-ms", argValue(argc, argv, i));
        } else if (arg == "--max-attempts") {
            opts.queue.maxAttempts = parseInt(
                "--max-attempts", argValue(argc, argv, i), 1, 1000);
        } else if (arg == "--backoff-ms") {
            opts.queue.backoffBaseMs =
                parseU64("--backoff-ms", argValue(argc, argv, i));
        } else if (arg == "--help" || arg == "-h") {
            serveUsage();
            return 0;
        } else {
            serveUsage();
            fatal("unknown argument '" + arg + "'");
        }
    }
    if (tcpPort >= 0) {
        opts.endpoint.tcp = true;
        opts.endpoint.port = tcpPort;
    } else {
        opts.endpoint.path = socketPath;
    }
    opts.journalPath = journalPath;

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

void
workerUsage()
{
    std::printf(
        "usage: sst worker --connect ENDPOINT [options]\n"
        "lease and execute jobs from a running `sst serve` instance\n"
        "  --connect ENDPOINT      socket path or tcp:host:port\n"
        "                          (default: .sst-serve.sock)\n"
        "  --name NAME             worker identity (default: "
        "worker-<pid>)\n"
        "  --cache-dir DIR         worker-side result cache (default:\n"
        "                          none — the server caches results)\n"
        "  --trace-dir DIR         replay recorded op traces from DIR\n"
        "  --poll-ms K             retry interval after a failed lease\n"
        "                          request (default: 200)\n"
        "  --retries K             tolerated consecutive connection\n"
        "                          failures (default: 30)\n"
        "  --verbose               log every lease and completion\n"
        "exits 0 when the server drains, 1 when it stays unreachable\n");
}

int
workerImpl(int argc, char **argv, int first)
{
    serve::WorkerOptions opts;
    std::string endpoint = ".sst-serve.sock";
    opts.driver.jobs = 1;

    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--connect") {
            endpoint = argValue(argc, argv, i);
        } else if (arg == "--name") {
            opts.name = argValue(argc, argv, i);
        } else if (arg == "--cache-dir") {
            opts.driver.cacheDir = argValue(argc, argv, i);
        } else if (arg == "--trace-dir") {
            opts.driver.traceDir = argValue(argc, argv, i);
        } else if (arg == "--poll-ms") {
            opts.pollMs = parseU64("--poll-ms", argValue(argc, argv, i));
        } else if (arg == "--retries") {
            opts.connectRetries =
                parseInt("--retries", argValue(argc, argv, i), 0, 1 << 20);
        } else if (arg == "--verbose") {
            opts.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            workerUsage();
            return 0;
        } else {
            workerUsage();
            fatal("unknown argument '" + arg + "'");
        }
    }
    opts.endpoint = serve::parseEndpoint(endpoint);
    return serve::runWorker(opts);
}

void
submitUsage()
{
    std::printf(
        "usage: sst submit [--connect ENDPOINT] <action>\n"
        "client for a running `sst serve` instance\n"
        "  --connect ENDPOINT      socket path or tcp:host:port\n"
        "                          (default: .sst-serve.sock)\n"
        "actions (exactly one):\n"
        "  --spec FILE             submit the spec as a campaign\n"
        "    --name NAME           campaign name (default: file stem)\n"
        "    --priority K          queue priority (default: 0)\n"
        "    --wait                stream results once submitted\n"
        "  --results NAME          stream a campaign's results\n"
        "    --json                JSON rows instead of CSV\n"
        "    --no-wait             don't block on unsettled jobs\n"
        "  --status                queue and campaign counters\n"
        "  --cancel NAME           cancel a campaign's pending jobs\n"
        "  --drain                 stop the server once work finishes\n"
        "  --ping                  liveness probe\n"
        "  --csv FILE              write streamed rows to FILE\n"
        "                          (default: stdout)\n");
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
    serve::Socket sock = clientRequest(ep, req);

    std::string line;
    if (!sock.readLine(line))
        fatal("server closed the connection");
    if (line.rfind("ok results", 0) != 0)
        fatal(line);

    std::ostringstream body;
    std::string endLine;
    while (sock.readLine(line)) {
        if (line.rfind("end ", 0) == 0) {
            endLine = line;
            break;
        }
        body << line << '\n';
    }
    if (endLine.empty())
        fatal("results stream ended without an end line");

    if (out_path.empty())
        std::fputs(body.str().c_str(), stdout);
    else
        writeFile(out_path, body.str());

    if (endLine.rfind("end complete", 0) != 0) {
        warn("campaign '" + name + "' is still running (" + endLine +
             "); re-run with --results to fetch the rest");
        return 3;
    }
    return 0;
}

int
submitImpl(int argc, char **argv, int first)
{
    std::string endpoint = ".sst-serve.sock";
    std::string specPath, name, resultsName, cancelName, csvPath;
    int priority = 0;
    bool wait = false, noWait = false, json = false;
    bool status = false, drain = false, ping = false;
    bool haveResults = false, haveCancel = false;

    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--connect") {
            endpoint = argValue(argc, argv, i);
        } else if (arg == "--spec") {
            specPath = argValue(argc, argv, i);
        } else if (arg == "--name") {
            name = argValue(argc, argv, i);
        } else if (arg == "--priority") {
            priority = parseInt("--priority", argValue(argc, argv, i),
                                -1000000, 1000000);
        } else if (arg == "--wait") {
            wait = true;
        } else if (arg == "--results") {
            resultsName = argValue(argc, argv, i);
            haveResults = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--no-wait") {
            noWait = true;
        } else if (arg == "--status") {
            status = true;
        } else if (arg == "--cancel") {
            cancelName = argValue(argc, argv, i);
            haveCancel = true;
        } else if (arg == "--drain") {
            drain = true;
        } else if (arg == "--ping") {
            ping = true;
        } else if (arg == "--csv") {
            csvPath = argValue(argc, argv, i);
        } else if (arg == "--help" || arg == "-h") {
            submitUsage();
            return 0;
        } else {
            submitUsage();
            fatal("unknown argument '" + arg + "'");
        }
    }

    const int actions = static_cast<int>(!specPath.empty()) +
                        static_cast<int>(haveResults) +
                        static_cast<int>(status) +
                        static_cast<int>(haveCancel) +
                        static_cast<int>(drain) + static_cast<int>(ping);
    if (actions != 1) {
        submitUsage();
        fatal("exactly one action required (--spec, --results, "
              "--status, --cancel, --drain or --ping)");
    }

    const serve::Endpoint ep = serve::parseEndpoint(endpoint);

    if (status) {
        serve::Request req;
        req.kind = serve::Request::Kind::kStatus;
        serve::Socket sock = clientRequest(ep, req);
        std::string line;
        if (!sock.readLine(line))
            fatal("server closed the connection");
        if (line.rfind("ok", 0) != 0)
            fatal(line);
        while (sock.readLine(line) && line != "end")
            std::printf("%s\n", line.c_str());
        return 0;
    }
    if (drain) {
        serve::Request req;
        req.kind = serve::Request::Kind::kDrain;
        return simpleRequest(ep, req);
    }
    if (ping) {
        serve::Request req;
        req.kind = serve::Request::Kind::kPing;
        return simpleRequest(ep, req);
    }
    if (haveCancel) {
        serve::Request req;
        req.kind = serve::Request::Kind::kCancel;
        req.campaign = cancelName;
        return simpleRequest(ep, req);
    }
    if (haveResults)
        return streamCampaign(ep, resultsName, json, !noWait, csvPath);

    // --spec: submit, optionally followed by a blocking results stream.
    std::ifstream in(specPath, std::ios::binary);
    if (!in.is_open())
        fatal("cannot read spec file " + specPath);
    std::ostringstream text;
    text << in.rdbuf();
    if (name.empty())
        name = std::filesystem::path(specPath).stem().string();

    serve::Request req;
    req.kind = serve::Request::Kind::kSubmit;
    req.campaign = name;
    req.priority = priority;
    req.payload = text.str();
    const int rc = simpleRequest(ep, req);
    if (rc != 0 || !wait)
        return rc;
    return streamCampaign(ep, name, json, /*wait=*/true, csvPath);
}

void
metricsUsage()
{
    std::printf(
        "usage: sst metrics [ENDPOINT]\n"
        "print the telemetry exposition of a running `sst serve`:\n"
        "counters, gauges and latency histograms in Prometheus text\n"
        "format (deterministically ordered)\n"
        "  ENDPOINT                socket path or tcp:host:port\n"
        "                          (default: .sst-serve.sock)\n"
        "  --connect ENDPOINT      same, as a flag\n");
}

int
metricsImpl(int argc, char **argv, int first)
{
    std::string endpoint = ".sst-serve.sock";
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--connect") {
            endpoint = argValue(argc, argv, i);
        } else if (arg == "--help" || arg == "-h") {
            metricsUsage();
            return 0;
        } else if (!arg.empty() && arg[0] != '-') {
            endpoint = arg;
        } else {
            metricsUsage();
            fatal("unknown argument '" + arg + "'");
        }
    }

    serve::Request req;
    req.kind = serve::Request::Kind::kMetrics;
    serve::Socket sock =
        clientRequest(serve::parseEndpoint(endpoint), req);
    std::string line;
    if (!sock.readLine(line))
        fatal("server closed the connection");
    if (line.rfind("ok metrics", 0) != 0)
        fatal(line);
    while (sock.readLine(line) && line != "end")
        std::printf("%s\n", line.c_str());
    return 0;
}

} // namespace

int
sweepMain(int argc, char **argv, int first)
{
    SweepGrid grid;
    grid.profiles = allProfileLabels();
    bool profiles_given = false;
    bool threads_given = false;

    DriverOptions opts;
    opts.jobs = 0; // hardware concurrency
    opts.cacheDir = ".sst-cache";
    std::string csvPath, jsonPath, traceOutPath;
    bool quiet = false;

    try {
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--profiles") {
                const std::string v = argValue(argc, argv, i);
                profiles_given = true;
                if (v != "all")
                    grid.profiles = parseLabelList(v);
            } else if (arg == "--mix") {
                grid.workloads = parseLabelList(argValue(argc, argv, i));
            } else if (arg == "--workload-file") {
                grid.workloadFiles.push_back(argValue(argc, argv, i));
            } else if (arg == "--threads") {
                grid.threads = parseIntList(argValue(argc, argv, i));
                threads_given = true;
            } else if (arg == "--cores") {
                grid.cores = parseIntList(argValue(argc, argv, i));
            } else if (arg == "--llc") {
                grid.llcBytes = parseSizeList(argValue(argc, argv, i));
            } else if (arg == "--jobs") {
                opts.jobs = parseInt("--jobs", argValue(argc, argv, i),
                                     0, 1 << 20);
            } else if (arg == "--seed-offset") {
                grid.seedOffset =
                    parseU64("--seed-offset", argValue(argc, argv, i));
            } else if (arg == "--cache-dir") {
                opts.cacheDir = argValue(argc, argv, i);
            } else if (arg == "--no-cache") {
                opts.cacheDir.clear();
            } else if (arg == "--refresh") {
                opts.refresh = true;
            } else if (arg == "--trace-dir") {
                opts.traceDir = argValue(argc, argv, i);
            } else if (arg == "--record-dir") {
                opts.recordDir = argValue(argc, argv, i);
            } else if (arg == "--sched") {
                grid.baseParams.schedPolicy =
                    parseSchedPolicy(argValue(argc, argv, i));
            } else if (arg == "--sched-seed") {
                grid.baseParams.schedSeed =
                    parseU64("--sched-seed", argValue(argc, argv, i));
            } else if (arg == "--csv") {
                csvPath = argValue(argc, argv, i);
            } else if (arg == "--json") {
                jsonPath = argValue(argc, argv, i);
            } else if (arg == "--trace-out") {
                traceOutPath = argValue(argc, argv, i);
            } else if (arg == "--quiet") {
                quiet = true;
            } else if (arg == "--help" || arg == "-h") {
                sweepUsage();
                return 0;
            } else {
                sweepUsage();
                fatal("unknown argument '" + arg + "'");
            }
        }

        if (grid.baseParams.schedSeed != 0 &&
            grid.baseParams.schedPolicy != SchedPolicy::kRandom) {
            fatal("--sched-seed only affects --sched random; the "
                  "seed would be silently ignored");
        }
        // --mix replaces the profile and thread axes; an explicit
        // --profiles next to it is a contradiction expandGrid rejects,
        // and an explicit --threads would be silently ignored — fatal.
        if ((!grid.workloads.empty() || !grid.workloadFiles.empty()) &&
            threads_given) {
            fatal("--threads does not apply to --mix/--workload-file "
                  "(each workload carries its own thread counts)");
        }
        if ((!grid.workloads.empty() || !grid.workloadFiles.empty()) &&
            !profiles_given)
            grid.profiles.clear();

        return executeBatch(grid, opts, quiet, csvPath, jsonPath,
                            traceOutPath);
    } catch (const std::exception &e) {
        fatal(e.what());
    }
}

int
traceMain(int argc, char **argv, int first)
{
    if (first >= argc) {
        traceUsage();
        return 1;
    }
    const std::string cmd = argv[first];
    try {
        if (cmd == "record")
            return traceRecord(argc, argv, first + 1);
        if (cmd == "replay")
            return traceReplay(argc, argv, first + 1);
        if (cmd == "info")
            return traceInfo(argc, argv, first + 1);
        if (cmd == "--help" || cmd == "-h") {
            traceUsage();
            return 0;
        }
        traceUsage();
        fatal("unknown subcommand '" + cmd + "'");
    } catch (const std::exception &e) {
        fatal(e.what());
    }
}

int
runMain(int argc, char **argv, int first)
{
    std::string specPath;
    // (key, value) overrides in command-line order; applied through the
    // same applySpecValue path the file parser uses.
    std::vector<std::pair<std::string, std::string>> overrides;
    bool printSpec = false;
    bool quiet = false;
    std::string csvPath, jsonPath, traceOutPath;

    DriverOptions opts;
    opts.jobs = 0; // hardware concurrency
    opts.cacheDir = ".sst-cache";

    try {
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--spec") {
                specPath = argValue(argc, argv, i);
            } else if (arg == "--set") {
                const std::string kv = argValue(argc, argv, i);
                const std::size_t eq = kv.find('=');
                if (eq == std::string::npos)
                    fatal("--set needs KEY=VALUE, got '" + kv + "'");
                overrides.emplace_back(kv.substr(0, eq),
                                       kv.substr(eq + 1));
            } else if (arg == "--sched") {
                overrides.emplace_back("sched", argValue(argc, argv, i));
            } else if (arg == "--sched-seed") {
                overrides.emplace_back("sched-seed",
                                       argValue(argc, argv, i));
            } else if (arg == "--print-spec") {
                printSpec = true;
            } else if (arg == "--jobs") {
                opts.jobs = parseInt("--jobs", argValue(argc, argv, i),
                                     0, 1 << 20);
            } else if (arg == "--cache-dir") {
                opts.cacheDir = argValue(argc, argv, i);
            } else if (arg == "--no-cache") {
                opts.cacheDir.clear();
            } else if (arg == "--refresh") {
                opts.refresh = true;
            } else if (arg == "--csv") {
                csvPath = argValue(argc, argv, i);
            } else if (arg == "--json") {
                jsonPath = argValue(argc, argv, i);
            } else if (arg == "--trace-out") {
                traceOutPath = argValue(argc, argv, i);
            } else if (arg == "--quiet") {
                quiet = true;
            } else if (arg == "--help" || arg == "-h") {
                runUsage();
                return 0;
            } else {
                runUsage();
                fatal("unknown argument '" + arg + "'");
            }
        }
        if (specPath.empty()) {
            runUsage();
            fatal("run needs --spec FILE");
        }

        ExperimentSpec spec = parseSpecFile(specPath);
        for (const auto &kv : overrides)
            applySpecValue(spec, kv.first, kv.second);

        if (printSpec) {
            std::fputs(serializeSpec(spec).c_str(), stdout);
            return 0;
        }

        const SweepGrid grid = specGrid(spec); // validates
        applySpecToDriverOptions(spec, opts);

        return executeBatch(grid, opts, quiet || spec.quiet,
                            csvPath.empty() ? spec.csvPath : csvPath,
                            jsonPath.empty() ? spec.jsonPath : jsonPath,
                            traceOutPath);
    } catch (const std::exception &e) {
        fatal(e.what());
    }
}

int
listMain(int argc, char **argv, int first)
{
    if (first >= argc) {
        listUsage();
        return 1; // missing registry argument is an error, like before
    }
    const std::string what = argv[first];
    for (const ListCommand &c : kListCommands)
        if (what == c.name)
            return c.run();
    if (what == "--help" || what == "-h")
        return listUsage();
    listUsage();
    fatal("unknown registry '" + what + "'; valid registries: " +
          listCommandNamesJoined());
}

int
serveMain(int argc, char **argv, int first)
{
    try {
        return serveImpl(argc, argv, first);
    } catch (const std::exception &e) {
        fatal(e.what());
    }
}

int
workerMain(int argc, char **argv, int first)
{
    try {
        return workerImpl(argc, argv, first);
    } catch (const std::exception &e) {
        fatal(e.what());
    }
}

int
submitMain(int argc, char **argv, int first)
{
    try {
        return submitImpl(argc, argv, first);
    } catch (const std::exception &e) {
        fatal(e.what());
    }
}

int
metricsMain(int argc, char **argv, int first)
{
    try {
        return metricsImpl(argc, argv, first);
    } catch (const std::exception &e) {
        fatal(e.what());
    }
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

} // namespace cli
} // namespace sst
