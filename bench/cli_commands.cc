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
#include "spec/spec.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "trace/trace_reader.hh"
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
        stats.tracesRecorded, stats.workers);
}

// ---- run / sweep ------------------------------------------------------------

/** How `sst run` executes a spec: none of it changes what a job computes. */
struct RunOptions
{
    std::string specPath;
    DriverOptions driver;
    std::string traceOut;
    bool printSpec = false;
};

/** A flag of `sst run` that is not a spec key. */
struct ExecFlag
{
    const char *flag;
    const char *arg; ///< value placeholder; null for a switch
    const char *help;
    void (*apply)(RunOptions &run, const char *value);
};

const ExecFlag kExecFlags[] = {
    {"--spec", "FILE", "start from this spec file (default: defaults)",
     [](RunOptions &r, const char *v) { r.specPath = v; }},
    {"--print-spec", nullptr, "print the canonical spec and exit",
     [](RunOptions &r, const char *) { r.printSpec = true; }},
    {"--jobs", "N", "worker threads (default: hardware)",
     [](RunOptions &r, const char *v) {
         r.driver.jobs = parseInt("--jobs", v, 0, 1 << 20);
     }},
    {"--cache-dir", "DIR", "result cache (default: .sst-cache)",
     [](RunOptions &r, const char *v) { r.driver.cacheDir = v; }},
    {"--no-cache", nullptr, "disable the result cache",
     [](RunOptions &r, const char *) { r.driver.cacheDir.clear(); }},
    {"--refresh", nullptr, "re-run and overwrite cached results",
     [](RunOptions &r, const char *) { r.driver.refresh = true; }},
    {"--record-dir", "DIR",
     "capture .sstt traces of live jobs (cache hits skip it)",
     [](RunOptions &r, const char *v) { r.driver.recordDir = v; }},
    {"--trace-out", "FILE",
     "write a Chrome trace_event JSON of the batch (Perfetto)",
     [](RunOptions &r, const char *v) { r.traceOut = v; }},
};

void
runUsage()
{
    std::printf("usage: sst run|sweep [--spec FILE] [options]\n"
                "run an experiment grid: the spec file (or the defaults),\n"
                "then every spec-key flag in command-line order\n"
                "  %-23s %s\n  %-23s %s\n",
                "--KEY VALUE", "set spec key KEY (also --KEY=VALUE)",
                "--set KEY=VALUE", "the same, in spec-file syntax");
    for (const FlagAlias &a : kFlagAliases) {
        const std::string flag =
            std::string(a.flag) + (a.value ? "" : " V");
        const std::string same = std::string("--") + a.key + " " +
                                 (a.value ? a.value : "V");
        std::printf("  %-23s same as %s\n", flag.c_str(), same.c_str());
    }
    for (const ExecFlag &f : kExecFlags) {
        const std::string flag =
            std::string(f.flag) + (f.arg ? std::string(" ") + f.arg : "");
        std::printf("  %-23s %s\n", flag.c_str(), f.help);
    }
    std::printf("--workload-file repeats, each adding files; see `sst "
                "list` for names\nspec keys: %s\n",
                specKeyNamesJoined().c_str());
}

/** Validate and run @p spec, print, export. A non-empty
 *  RunOptions::traceOut enables telemetry for the batch and writes a
 *  Chrome trace_event JSON of every job/driver span afterwards; results
 *  are bit-identical either way (telemetry is write-only). */
int
executeBatch(const ExperimentSpec &spec, RunOptions run)
{
    validateSpec(spec);
    applySpecToDriverOptions(spec, run.driver);
    const bool tracing = !run.traceOut.empty();
    if (tracing) {
        telemetry::Registry::global().setEnabled(true);
        telemetry::SpanTracer::global().setEnabled(true);
    }

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

    if (!spec.quiet)
        printBatchTable(jobs, results, !spec.cores.empty(),
                        !spec.llcBytes.empty());
    printBatchStats(driver);

    if (!spec.csvPath.empty())
        writeFile(spec.csvPath, sweepCsv(jobs, results));
    if (!spec.jsonPath.empty())
        writeFile(spec.jsonPath, sweepJson(jobs, results));

    return driver.stats().failed == 0 ? 0 : 2;
}

// ---- trace ------------------------------------------------------------------

void
traceUsage()
{
    std::printf(
        "usage: sst trace info --in FILE\n"
        "  decode every stream to check it, then print header and\n"
        "  per-stream statistics\n"
        "traces are recorded by `sst sweep --record-dir DIR` and\n"
        "replayed by `--trace-dir DIR`\n");
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
    // The canonical text carries the paths the spec file resolved.
    std::string text;
    try {
        text = serializeSpec(parseSpecFile(specPath));
    } catch (const std::invalid_argument &e) {
        fatal(e.what());
    }
    if (name.empty())
        name = std::filesystem::path(specPath).stem().string();

    serve::Request req;
    req.kind = serve::Request::Kind::kSubmit;
    req.campaign = name;
    req.priority = priority;
    req.payload = text;
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
traceMain(int argc, char **argv, int first)
{
    if (first >= argc) {
        traceUsage();
        return 1;
    }
    const std::string cmd = argv[first];
    try {
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
    RunOptions run;
    run.driver.jobs = 0; // hardware concurrency
    run.driver.cacheDir = ".sst-cache";
    // Spec assignments in command-line order, applied once --spec loaded.
    std::vector<std::pair<std::string, std::string>> assignments;
    std::size_t files = std::string::npos; // the --workload-file entry

    try {
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                runUsage();
                return 0;
            }
            const auto exec = std::find_if(
                std::begin(kExecFlags), std::end(kExecFlags),
                [&arg](const ExecFlag &f) { return arg == f.flag; });
            std::string key, value;
            if (exec != std::end(kExecFlags)) {
                exec->apply(run,
                            exec->arg ? argValue(argc, argv, i) : nullptr);
            } else if (!specFlag(argc, argv, i, key, value)) {
                runUsage();
                fatal("unknown argument '" + arg + "'");
            } else if (key == "workload-file" &&
                       files != std::string::npos) {
                // --workload-file repeats: each adds to the first's list.
                assignments[files].second += "," + value;
            } else {
                if (key == "workload-file")
                    files = assignments.size();
                assignments.emplace_back(key, value);
            }
        }

        ExperimentSpec spec = run.specPath.empty()
                                  ? ExperimentSpec()
                                  : parseSpecFile(run.specPath);
        for (const auto &kv : assignments)
            applySpecValue(spec, kv.first, kv.second);

        if (run.printSpec) {
            std::fputs(serializeSpec(spec).c_str(), stdout);
            return 0;
        }
        return executeBatch(spec, run);
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
