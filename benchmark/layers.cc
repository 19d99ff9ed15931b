/**
 * @file
 * sstbench_layers: per-layer host times and counts of one benchmark
 * workload, measured from outside the library by timing calls into each
 * module's public functions. It loads the workload's generated spec and
 * runs every job single-threaded through the entry points the driver
 * itself calls:
 *
 *  - spec/      parseSpecFile + specGrid + expandGrid (grid expansion
 *               compiles the .wdl files of WDL workloads);
 *  - driver/    fingerprintJob, ResultCache::store and lookup;
 *  - workload/  draining every generated OpSource (ThreadProgram or WDL);
 *  - trace/     opening a trace container and draining its streams: the
 *               recording a replay workload reads, otherwise an
 *               in-memory encoding of the generated streams;
 *  - sim/       each distinct baseline once, then the parallel run;
 *  - core/      assembleExperiment.
 *
 * Output: `metric NAME VALUE UNIT KIND` lines (KIND is `exact` for
 * deterministic counts and ratios, `timed` for host times) and one
 * `row CSV` line per job. The row is sweepCsvRow of the assembled
 * experiment; benchmark/run.py compares it byte for byte with the
 * CLI's CSV, so the numbers describe the computation that was timed.
 *
 *   sstbench_layers --workload NAME --work-dir DIR
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "driver/fingerprint.hh"
#include "driver/result_cache.hh"
#include "driver/sweep.hh"
#include "sim/system.hh"
#include "spec/spec.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_run.hh"
#include "trace/trace_writer.hh"
#include "wdl/wdl.hh"

namespace {

using namespace sst;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/** Spec loads timed; the median is reported (one load is ~1 ms). */
constexpr int kSpecLoads = 5;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Pull @p source to its end op; returns the ops delivered. */
std::uint64_t
drain(OpSource &source)
{
    std::uint64_t ops = 0;
    for (;;) {
        ++ops;
        if (source.nextOp().type == OpType::kEnd)
            return ops;
    }
}

/** Deterministic counters summed over every simulated run. */
struct SimTotals
{
    std::uint64_t events = 0, heapOps = 0, cycles = 0;
    std::uint64_t wakes = 0, preemptions = 0;
    std::uint64_t l1Accesses = 0, l1Hits = 0, coherencyMisses = 0;
    std::uint64_t llcAccesses = 0, llcMisses = 0, atdSamples = 0;
    std::uint64_t dramAccesses = 0, rowHits = 0, busWaitOther = 0;
    std::uint64_t instructions = 0, spinInstructions = 0;

    void
    add(const RunResult &r)
    {
        events += r.engineEvents;
        heapOps += r.engineHeapOps;
        cycles += r.executionTime;
        wakes += r.engineWakes;
        preemptions += r.enginePreemptions;
        for (const CacheStats &c : r.cacheStats) {
            l1Accesses += c.l1Accesses;
            l1Hits += c.l1Hits;
            coherencyMisses += c.coherencyMisses;
            llcAccesses += c.llcAccesses;
            llcMisses += c.llcMisses;
            atdSamples +=
                c.interThreadHitsSampled + c.interThreadMissesSampled;
        }
        for (const DramStats &d : r.dramStats) {
            dramAccesses += d.accesses;
            rowHits += d.rowHits;
            busWaitOther += d.busWaitOther;
        }
        instructions += r.totalInstructions;
        spinInstructions += r.totalSpinInstructions;
    }
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

void
printMetric(const char *name, double value, const char *unit,
            bool exact)
{
    std::printf("metric %s %.17g %s %s\n", name, value, unit,
                exact ? "exact" : "timed");
}

/** Encode @p w's generated streams the way a recording would. */
std::string
encodeTrace(const JobSpec &job, const WorkloadSpec &w)
{
    TraceWriter writer(traceMetaFor(w, job.params));
    const OpSourceFactory gen = workloadOpSources(w);
    const int n = w.nthreads();
    for (int tid = 0; tid < n; ++tid) {
        const std::unique_ptr<OpSource> src = gen(tid, n);
        for (;;) {
            const Op op = src->nextOp();
            writer.append(tid, op);
            if (op.type == OpType::kEnd)
                break;
        }
    }
    for (int g = 0; g < w.ngroups(); ++g)
        appendGeneratedBaseline(writer, w, g);
    return writer.serialize();
}

int
run(const std::string &workload, const fs::path &work_dir)
{
    // Spec paths (trace-dir, workload-file) are relative to the work dir,
    // exactly as for the CLI that run.py starts there.
    fs::current_path(work_dir);

    ExperimentSpec spec;
    std::vector<JobSpec> jobs;
    std::vector<double> loads;
    for (int i = 0; i < kSpecLoads; ++i) {
        const Clock::time_point t0 = Clock::now();
        spec = parseSpecFile(workload + ".spec");
        jobs = expandGrid(specGrid(spec));
        loads.push_back(secondsSince(t0));
    }
    std::sort(loads.begin(), loads.end());
    DriverOptions opts;
    applySpecToDriverOptions(spec, opts);

    const std::string cacheDir = "layers-cache";
    fs::remove_all(cacheDir);
    ResultCache cache(cacheDir);

    SimTotals totals;
    std::map<std::string, RunResult> baselines; // canonical key -> run
    std::set<std::uint64_t> wdlPrograms;
    std::uint64_t wdlIrBytes = 0, genOps = 0, decodedOps = 0, traceBytes = 0;
    double genS = 0, openS = 0, decodeS = 0, runS = 0, baselineS = 0;
    double assembleS = 0, fingerprintS = 0, storeS = 0, lookupS = 0;

    for (const JobSpec &job : jobs) {
        Clock::time_point t0 = Clock::now();
        const Fingerprint fp = fingerprintJob(job);
        fingerprintS += secondsSince(t0);

        const WorkloadSpec w = job.effectiveWorkload();
        const int n = w.nthreads();
        if (w.wdlProgram && wdlPrograms.insert(w.wdlProgram->irHash()).second)
            wdlIrBytes += w.wdlProgram->canonicalText().size();

        // Baselines are shared across jobs, as in the driver: only groups
        // whose key is new are drained and simulated.
        std::vector<std::string> keys;
        std::vector<int> newGroups;
        std::set<std::string> jobKeys;
        for (int g = 0; g < w.ngroups(); ++g) {
            keys.push_back(
                fingerprintWorkloadGroupBaseline(job.params, w, g).canonical);
            if (!baselines.count(keys.back()) &&
                jobKeys.insert(keys.back()).second)
                newGroups.push_back(g);
        }

        // workload/: the generated op streams.
        t0 = Clock::now();
        const OpSourceFactory gen = workloadOpSources(w);
        for (int tid = 0; tid < n; ++tid)
            genOps += drain(*gen(tid, n));
        for (int g : newGroups)
            genOps += drain(*workloadGroupBaselineSources(w, g)(0, 1));
        genS += secondsSince(t0);

        // trace/: the recording the driver would replay for this job, or
        // an encoding of the generated streams when there is none.
        std::optional<TraceReader> reader;
        bool replay = false;
        if (!opts.traceDir.empty() && job.ncoresEffective() == n) {
            const std::string path =
                tracePathFor(opts.traceDir, w, job.seedOffset,
                             job.params.schedPolicy, job.params.schedSeed);
            if (fs::exists(path)) {
                t0 = Clock::now();
                reader.emplace(path);
                openS += secondsSince(t0);
                reader->requireCompatibleWorkload(
                    w.role, traceGroupsOf(w), job.params.schedPolicy,
                    job.params.schedSeed);
                traceBytes += fs::file_size(path);
                replay = true;
            }
        }
        if (!reader) {
            std::string bytes = encodeTrace(job, w);
            traceBytes += bytes.size();
            t0 = Clock::now();
            reader.emplace(TraceReader::fromBytes(std::move(bytes)));
            openS += secondsSince(t0);
        }
        t0 = Clock::now();
        for (int tid = 0; tid < n; ++tid)
            decodedOps += drain(*reader->parallelSource(tid));
        for (int g : newGroups)
            decodedOps += drain(*reader->baselineSource(g));
        decodeS += secondsSince(t0);

        // sim/: baselines once per key, then the parallel run.
        for (int g : newGroups) {
            t0 = Clock::now();
            RunResult base =
                replay ? replayBaseline(job.params, *reader, g)
                : w.wdlProgram
                    ? simulateSources(job.params,
                                      workloadGroupBaselineSources(w, g), 1)
                    : runSingleThreaded(job.params, w.groups[g].profile);
            baselineS += secondsSince(t0);
            totals.add(base);
            baselines.emplace(keys[g], std::move(base));
        }
        std::vector<RunResult> bases;
        for (const std::string &key : keys)
            bases.push_back(baselines.at(key));

        t0 = Clock::now();
        RunResult parallel = replay
                                 ? replayParallel(job.params, *reader)
                                 : simulateWorkload(job.params, w, job.ncores);
        runS += secondsSince(t0);
        totals.add(parallel);

        // core/
        t0 = Clock::now();
        SpeedupExperiment exp = assembleExperiment(
            w.label(), n, job.params, combineGroupBaselines(bases),
            std::move(parallel));
        assembleS += secondsSince(t0);

        // driver/: the result cache, on a scratch directory.
        t0 = Clock::now();
        cache.store(fp, exp);
        storeS += secondsSince(t0);
        SpeedupExperiment hit;
        t0 = Clock::now();
        const bool found = cache.lookup(fp, hit);
        lookupS += secondsSince(t0);
        if (!found)
            throw std::runtime_error("result cache lost the entry of job '" +
                                     w.label() + "'");

        JobResult res;
        res.status = JobStatus::kOk;
        res.exp = std::move(exp);
        std::printf("row %s\n", sweepCsvRow(job, res).c_str());
    }
    fs::remove_all(cacheDir);

    // A recording is a copy of the generated streams, so both counts
    // must agree whichever way the trace was produced.
    if (genOps != decodedOps)
        throw std::runtime_error(
            "decoded " + std::to_string(decodedOps) + " ops but generated " +
            std::to_string(genOps));

    const double simEvents = static_cast<double>(totals.events);
    printMetric("spec.load_ms", loads[loads.size() / 2] * 1e3, "ms", false);
    printMetric("wdl.ir_bytes", static_cast<double>(wdlIrBytes), "bytes",
                true);
    printMetric("workload.ops", static_cast<double>(genOps), "count", true);
    printMetric("workload.gen_ns_per_op", ratio(genS * 1e9, genOps),
                "ns/op", false);
    printMetric("trace.bytes", static_cast<double>(traceBytes), "bytes",
                true);
    printMetric("trace.open_ms", openS * 1e3, "ms", false);
    printMetric("trace.decode_ns_per_op", ratio(decodeS * 1e9, decodedOps),
                "ns/op", false);
    printMetric("sim.events", simEvents, "count", true);
    printMetric("sim.heap_ops", static_cast<double>(totals.heapOps), "count",
                true);
    printMetric("sim.cycles", static_cast<double>(totals.cycles), "cycles",
                true);
    printMetric("sim.run_s", runS, "s", false);
    printMetric("sim.baseline_run_s", baselineS, "s", false);
    printMetric("sim.ns_per_event", ratio((runS + baselineS) * 1e9, simEvents),
                "ns/event", false);
    printMetric("sched.wakes", static_cast<double>(totals.wakes), "count",
                true);
    printMetric("sched.preemptions", static_cast<double>(totals.preemptions),
                "count", true);
    printMetric("sched.preempts_per_kevent",
                ratio(totals.preemptions * 1e3, simEvents), "1/kevent", true);
    printMetric("cache.l1_accesses", static_cast<double>(totals.l1Accesses),
                "count", true);
    printMetric("cache.l1_hit_rate",
                ratio(totals.l1Hits, totals.l1Accesses), "fraction", true);
    printMetric("cache.llc_accesses", static_cast<double>(totals.llcAccesses),
                "count", true);
    printMetric("cache.llc_miss_rate",
                ratio(totals.llcMisses, totals.llcAccesses), "fraction", true);
    printMetric("cache.coherency_misses",
                static_cast<double>(totals.coherencyMisses), "count", true);
    printMetric("cache.atd_samples", static_cast<double>(totals.atdSamples),
                "count", true);
    printMetric("mem.dram_accesses", static_cast<double>(totals.dramAccesses),
                "count", true);
    printMetric("mem.row_hit_rate",
                ratio(totals.rowHits, totals.dramAccesses), "fraction", true);
    printMetric("mem.bus_wait_other_cycles",
                static_cast<double>(totals.busWaitOther), "cycles", true);
    printMetric("sync.spin_instr",
                static_cast<double>(totals.spinInstructions), "instr", true);
    printMetric("sync.spin_frac",
                ratio(totals.spinInstructions,
                      totals.instructions + totals.spinInstructions),
                "fraction", true);
    printMetric("core.assemble_us", assembleS * 1e6, "us", false);
    printMetric("driver.fingerprint_us", fingerprintS * 1e6, "us", false);
    printMetric("driver.cache_store_us", storeS * 1e6, "us", false);
    printMetric("driver.cache_lookup_us", lookupS * 1e6, "us", false);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string workDir;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string arg = argv[i];
        if (arg == "--workload")
            workload = argv[i + 1];
        else if (arg == "--work-dir")
            workDir = argv[i + 1];
    }
    if (workload.empty() || workDir.empty() || argc != 5) {
        std::fprintf(stderr,
                     "usage: sstbench_layers --workload NAME --work-dir DIR\n"
                     "times the public calls of each sst module on the "
                     "jobs of DIR/NAME.spec\n");
        return 1;
    }
    try {
        return run(workload, workDir);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sstbench_layers: %s\n", e.what());
        return 1;
    }
}
