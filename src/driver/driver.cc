#include "driver.hh"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/experiment.hh"
#include "driver/baseline_store.hh"
#include "driver/fingerprint.hh"
#include "driver/result_cache.hh"
#include "serve/job_queue.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "trace/trace_run.hh"

namespace sst {
namespace {

/**
 * Reject specs the simulator would abort on. The driver turns these
 * into per-job failures instead of process death so a batch survives
 * one bad entry.
 */
void
validateSpec(const JobSpec &spec)
{
    spec.workload.validate(); // structure: groups, counts, role rules
    const std::string label = spec.label();
    const int nthreads = spec.nthreads();
    if (nthreads < 1)
        throw std::invalid_argument(
            "job '" + label + "': nthreads must be >= 1, got " +
            std::to_string(nthreads));
    // simulateWorkload() runs nthreads threads on ncoresEffective()
    // cores, and the cache hierarchy's sharers bitmap caps the machine
    // size: reject here so an oversized job fails cleanly instead of
    // panicking the whole process.
    if (nthreads > kMaxSimCores)
        throw std::invalid_argument(
            "job '" + label + "': nthreads " + std::to_string(nthreads) +
            " exceeds the " + std::to_string(kMaxSimCores) +
            "-core simulator limit");
    if (spec.ncores < 0)
        throw std::invalid_argument(
            "job '" + label + "': ncores must be >= 0 "
            "(0 = match nthreads), got " + std::to_string(spec.ncores));
    if (spec.ncores > nthreads)
        throw std::invalid_argument(
            "job '" + label + "': ncores " + std::to_string(spec.ncores) +
            " exceeds nthreads " + std::to_string(nthreads) +
            " (idle cores cannot speed up the run)");
    for (const WorkloadGroup &g : spec.workload.groups) {
        if (g.profile.totalIters == 0)
            throw std::invalid_argument(
                "job '" + label + "': profile '" + g.profile.label() +
                "' has no work (totalIters == 0)");
        if (g.profile.name.empty())
            throw std::invalid_argument("job: profile has no name");
    }
    if (spec.params.cache.llcBytes == 0 || spec.params.cache.l1Bytes == 0)
        throw std::invalid_argument("job '" + label +
                                    "': cache sizes must be non-zero");
}

/**
 * Per-batch claim set for --record-dir trace paths. Jobs that differ
 * only in machine parameters share one canonical trace name (op
 * streams are machine-independent); the first job to claim a path
 * records it, the rest skip — two workers never write one file.
 */
class TraceRecordClaims
{
  public:
    bool
    claim(const std::string &path)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return claimed_.insert(path).second;
    }

  private:
    std::mutex mutex_;
    std::set<std::string> claimed_;
};

/**
 * Encoded group baseline streams for --record-dir, keyed like the
 * BaselineStore (canonical fingerprintWorkloadGroupBaseline() text).
 * The first recording job that needs a stream generates and encodes
 * it; jobs recording at the same time wait for it under the key's own
 * mutex and share it. Entries are held weakly, so a stream is freed as
 * soon as no recording job holds it (a later job encodes it again).
 */
class BaselineStreams
{
  public:
    std::shared_ptr<const trace::OpEncoder>
    get(const std::string &key, const WorkloadSpec &workload, int group)
    {
        Slot *slot = nullptr;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            slot = &slots_[key]; // node-based: stays valid
        }
        std::lock_guard<std::mutex> lock(slot->mutex);
        std::shared_ptr<const trace::OpEncoder> stream =
            slot->stream.lock();
        if (!stream) {
            stream = std::make_shared<const trace::OpEncoder>(
                encodeGeneratedBaseline(workload, group));
            slot->stream = stream;
        }
        return stream;
    }

  private:
    struct Slot
    {
        std::mutex mutex;
        std::weak_ptr<const trace::OpEncoder> stream;
    };

    std::mutex mutex_;
    std::unordered_map<std::string, Slot> slots_;
};

} // namespace

struct JobExecutor::Impl
{
    DriverOptions opts;
    ResultCache *cache = nullptr;
    BaselineStore *baselines = nullptr;
    std::atomic<std::size_t> baselinesComputed{0};
    TraceRecordClaims records;
    BaselineStreams baselineStreams;

    /** Execute one job (validation, cache, trace replay or live runs). */
    JobResult runOneJob(const JobSpec &spec, std::uint64_t job_id);
};

JobResult
JobExecutor::Impl::runOneJob(const JobSpec &spec, std::uint64_t job_id)
{
    telemetry::Registry &registry = telemetry::Registry::global();
    telemetry::ScopedSpan jobSpan("job", "driver");
    JobResult res;
    try {
        {
            telemetry::ScopedSpan span("validate", "driver");
            validateSpec(spec);
        }
        const Fingerprint fp = fingerprintJob(spec);
        if (cache && !opts.refresh) {
            SpeedupExperiment hit;
            if (cache->lookup(fp, hit)) {
                // Cache hits never re-simulate, so they also never
                // record: --record-dir captures only fresh runs.
                registry
                    .counter("sst_driver_cache_lookups_total",
                             {{"outcome", "hit"}})
                    .inc();
                res.status = JobStatus::kCached;
                res.exp = std::move(hit);
                return res;
            }
            registry
                .counter("sst_driver_cache_lookups_total",
                         {{"outcome", "miss"}})
                .inc();
        }

        const WorkloadSpec workload = spec.effectiveWorkload();
        const int nthreads = workload.nthreads();

        // Trace replay: when the job's canonical recording exists, all
        // runs re-simulate from the recorded op streams and no
        // ThreadProgram is ever constructed. A missing file falls back
        // to live generation; an incompatible file (stale profile,
        // wrong thread count, corruption) throws and fails the job —
        // silently regenerating would hide a stale trace directory.
        // Recorded op streams embed the schedule they ran under, and a
        // trace header carries no core count — an oversubscribed job
        // (ncores < nthreads) always generates live.
        std::unique_ptr<const TraceReader> reader;
        if (!opts.traceDir.empty() &&
            spec.ncoresEffective() == nthreads) {
            const std::string path = tracePathFor(
                opts.traceDir, workload, spec.seedOffset,
                spec.params.schedPolicy, spec.params.schedSeed);
            if (std::filesystem::exists(path)) {
                reader = std::make_unique<const TraceReader>(path);
                reader->requireCompatibleWorkload(
                    workload.role, traceGroupsOf(workload),
                    spec.params.schedPolicy, spec.params.schedSeed);
            }
        }

        // Per-group 1-thread reference runs, shared by claim-or-defer
        // (driver/baseline_store.hh). Keys are the full canonical
        // baseline text (not the hash) so two distinct baselines can
        // never silently share a slot; the key is frontend-agnostic (a
        // replayed baseline is bit-identical to a generated one) and
        // group-agnostic (a mix group shares its baseline with
        // homogeneous sweeps of the same profile).
        const int ngroups = workload.ngroups();
        std::vector<BaselineSlot> slots(static_cast<std::size_t>(ngroups));
        for (int g = 0; g < ngroups; ++g)
            slots[g] = BaselineSlot{
                job_id, g,
                fingerprintWorkloadGroupBaseline(spec.params, workload, g)
                    .canonical};

        // Trace capture (--record-dir): fresh, non-oversubscribed jobs
        // write their canonical recording while they run. Jobs that
        // differ only in machine parameters share one trace name (op
        // streams are machine-independent); the claim set makes the
        // first such job the recorder.
        std::unique_ptr<TraceWriter> writer;
        std::string record_path;
        if (!opts.recordDir.empty() && !reader &&
            spec.ncoresEffective() == nthreads) {
            record_path = tracePathFor(opts.recordDir, workload,
                                       spec.seedOffset,
                                       spec.params.schedPolicy,
                                       spec.params.schedSeed);
            if (records.claim(record_path)) {
                writer = std::make_unique<TraceWriter>(
                    traceMetaFor(workload, spec.params));
                // Baseline streams are a pure function of the workload
                // — jobs recording one at the same time encode it once
                // and share it, so the 1-thread runs can still come
                // from the baseline store.
                for (int g = 0; g < ngroups; ++g)
                    writer->setStream(
                        writer->baselineStream(g),
                        baselineStreams.get(slots[g].key, workload, g));
            }
        }

        std::vector<std::shared_ptr<const RunResult>> group_bases(
            slots.size());
        auto countRequest = [&registry](const char *outcome) {
            registry
                .counter("sst_driver_baseline_requests_total",
                         {{"outcome", outcome}})
                .inc();
        };
        // Every baseline this job simulates counts as `compute`, also
        // one granted after a deferral (its owner released the claim).
        auto computeBaseline = [&](int g) {
            countRequest("compute");
            telemetry::ScopedSpan span("baseline", "driver");
            baselinesComputed.fetch_add(1, std::memory_order_relaxed);
            try {
                group_bases[g] = std::make_shared<const RunResult>(
                    reader ? replayBaseline(spec.params, *reader, g)
                           : simulateSources(
                                 spec.params,
                                 workloadGroupBaselineSources(workload, g),
                                 1));
            } catch (...) {
                // A replayed baseline fails on this job's own trace
                // file: release the slot, so jobs sharing its key (other
                // traces, live runs) compute it instead of inheriting
                // the error. A generated baseline's error is the run's.
                if (reader)
                    baselines->release(slots[g]);
                else
                    baselines->abandon(slots[g], std::current_exception());
                throw;
            }
            baselines->publish(slots[g], group_bases[g]);
        };
        // Claim every group now. Owned baselines are computed at once
        // (other jobs may be waiting for them); baselines another job
        // is computing are deferred past the parallel run.
        std::vector<int> deferred;
        for (int g = 0; g < ngroups; ++g) {
            const BaselineTicket ticket = baselines->claim(slots[g]);
            switch (ticket.claim) {
            case BaselineTicket::Claim::kHave:
                countRequest("hit");
                group_bases[g] = ticket.run;
                break;
            case BaselineTicket::Claim::kCompute:
                computeBaseline(g);
                break;
            case BaselineTicket::Claim::kPending:
                countRequest("deferred");
                deferred.push_back(g);
                break;
            }
        }

        // The parallel run: recorded replay or live generation (with
        // the capture shim around it when this job records).
        RunResult parallel;
        {
            telemetry::ScopedSpan simSpan("simulate", "driver");
            if (reader) {
                parallel = replayParallel(spec.params, *reader);
            } else if (writer) {
                const OpSourceFactory inner = workloadOpSources(workload);
                const ThreadTopology topo =
                    workload.topology(spec.ncoresEffective());
                parallel = simulateSources(
                    spec.params,
                    [&](ThreadId tid,
                        int n) -> std::unique_ptr<OpSource> {
                        return std::make_unique<RecordingSource>(
                            inner(tid, n), *writer, tid);
                    },
                    nthreads, spec.ncores, &topo);
                writer->writeFile(record_path);
                res.traceRecorded = true;
            } else {
                parallel = simulateWorkload(spec.params, workload,
                                            spec.ncores);
            }
        }

        // Collect the deferred baselines. A parallel run usually
        // outlasts a baseline, so they are mostly ready by now; any
        // time still spent blocked is its own span.
        for (const int g : deferred) {
            BaselineTicket ticket = baselines->claim(slots[g]);
            if (ticket.claim == BaselineTicket::Claim::kPending) {
                countRequest("wait");
                telemetry::ScopedSpan span("baseline-wait", "driver");
                ticket = baselines->await(slots[g]);
            }
            if (ticket.claim == BaselineTicket::Claim::kCompute)
                computeBaseline(g); // the owner released its claim
            else
                group_bases[g] = ticket.run;
        }

        std::vector<RunResult> runs;
        runs.reserve(group_bases.size());
        for (const std::shared_ptr<const RunResult> &run : group_bases)
            runs.push_back(*run);
        SpeedupExperiment exp = assembleExperiment(
            workload.label(), nthreads, spec.params,
            combineGroupBaselines(runs), std::move(parallel));
        res.tracedReplay = reader != nullptr;
        if (cache) {
            telemetry::ScopedSpan storeSpan("cache-store", "driver");
            cache->store(fp, exp);
        }
        res.status = JobStatus::kOk;
        res.exp = std::move(exp);
    } catch (const std::exception &e) {
        res.status = JobStatus::kFailed;
        res.error = e.what();
    }
    return res;
}

JobExecutor::JobExecutor(const DriverOptions &opts, ResultCache *cache,
                         BaselineStore &baselines)
    : impl_(std::make_unique<Impl>())
{
    impl_->opts = opts;
    impl_->cache = cache;
    impl_->baselines = &baselines;
}

JobExecutor::~JobExecutor() = default;

JobResult
JobExecutor::run(const JobSpec &spec, std::uint64_t job_id)
{
    telemetry::Registry &registry = telemetry::Registry::global();
    const bool instrumented = registry.enabled();
    const auto start = instrumented
                           ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
    JobResult res = impl_->runOneJob(spec, job_id);
    if (instrumented) {
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        registry
            .histogram("sst_driver_job_seconds", {},
                       {0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
                        10.0, 60.0})
            .observe(seconds);
        const char *status = res.status == JobStatus::kOk ? "ok"
                             : res.status == JobStatus::kCached
                                 ? "cached"
                                 : "failed";
        registry
            .counter("sst_driver_jobs_total", {{"status", status}})
            .inc();
    }
    return res;
}

std::size_t
JobExecutor::baselinesComputed() const
{
    return impl_->baselinesComputed.load(std::memory_order_relaxed);
}

ExperimentDriver::ExperimentDriver(DriverOptions opts)
    : opts_(std::move(opts))
{
    if (!opts_.traceDir.empty() && !opts_.recordDir.empty())
        throw std::invalid_argument(
            "trace-dir (replay) and record-dir (capture) are mutually "
            "exclusive: replayed jobs have nothing new to record");
    if (!opts_.cacheDir.empty())
        cache_ = std::make_unique<ResultCache>(opts_.cacheDir);
    if (!opts_.recordDir.empty())
        std::filesystem::create_directories(opts_.recordDir);
}

ExperimentDriver::~ExperimentDriver() = default;

int
ExperimentDriver::workerCount() const
{
    if (opts_.jobs > 0)
        return opts_.jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<JobResult>
ExperimentDriver::runBatch(const std::vector<JobSpec> &specs)
{
    stats_ = BatchStats{};
    stats_.total = specs.size();

    LocalBaselineStore baselines;
    JobExecutor executor(opts_, cache_.get(), baselines);

    // The batch runs through the same JobQueue the experiment service
    // uses (src/serve/), with in-process lease-loop threads as the
    // backend. Local workers cannot die and the executor never throws,
    // so every leased job completes — timestamps stay 0 and no lease
    // ever expires. Fingerprint dedup means a batch that lists the same
    // job twice executes it once and both rows share the result.
    serve::JobQueue queue;
    std::vector<serve::JobId> ids;
    std::vector<bool> dup(specs.size(), false);
    ids.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const serve::SubmitOutcome out = queue.submit(specs[i], 0, 0);
        ids.push_back(out.id);
        dup[i] = out.deduped;
    }

    // Pool depth gauge: jobs not yet settled. A relaxed atomic updated
    // per completion — never read back by the batch itself.
    telemetry::GaugeHandle depthGauge =
        telemetry::Registry::global().gauge("sst_driver_queue_depth");
    std::atomic<std::size_t> unsettled{ids.size()};
    depthGauge.set(static_cast<double>(unsettled.load()));

    auto leaseLoop = [&queue, &executor, &depthGauge,
                      &unsettled](const std::string &worker) {
        serve::LeasedJob job;
        while (queue.lease(worker, 0, job)) {
            queue.complete(job.id, worker,
                           executor.run(job.spec, job.id));
            depthGauge.set(static_cast<double>(
                unsettled.fetch_sub(1, std::memory_order_relaxed) - 1));
        }
    };

    const int nworkers = workerCount();
    if (nworkers <= 1 || specs.size() <= 1) {
        leaseLoop("local-0");
    } else {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(nworkers));
        for (int w = 0; w < nworkers; ++w)
            threads.emplace_back(leaseLoop,
                                 "local-" + std::to_string(w));
        for (std::thread &t : threads)
            t.join();
    }

    std::vector<JobResult> results(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        results[i] = queue.resultFor(ids[i]);
        if (dup[i]) {
            ++stats_.deduped;
            // A deduped row replays its twin's in-queue result: report
            // it as a (memoized) cache hit, never a second execution,
            // and don't double-count the twin's trace activity.
            if (results[i].status == JobStatus::kOk)
                results[i].status = JobStatus::kCached;
            results[i].tracedReplay = false;
            results[i].traceRecorded = false;
        }
    }

    for (const JobResult &r : results) {
        if (r.tracedReplay)
            ++stats_.traceReplays;
        if (r.traceRecorded)
            ++stats_.tracesRecorded;
        switch (r.status) {
        case JobStatus::kOk:
            ++stats_.executed;
            break;
        case JobStatus::kCached:
            ++stats_.cached;
            break;
        case JobStatus::kFailed:
            ++stats_.failed;
            break;
        }
    }
    stats_.baselinesComputed = executor.baselinesComputed();
    return results;
}

std::vector<JobResult>
runExperimentBatch(const std::vector<JobSpec> &specs,
                   const DriverOptions &options, BatchStats *stats)
{
    ExperimentDriver driver(options);
    std::vector<JobResult> results = driver.runBatch(specs);
    if (stats)
        *stats = driver.stats();
    return results;
}

} // namespace sst
