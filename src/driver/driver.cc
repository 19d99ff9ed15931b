#include "driver.hh"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/experiment.hh"
#include "driver/fingerprint.hh"
#include "driver/result_cache.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "trace/trace_run.hh"

namespace sst {
namespace {

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SST_SANITIZED_MALLOC 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SST_SANITIZED_MALLOC 1
#endif

#if defined(__GLIBC__) && !defined(SST_SANITIZED_MALLOC)
/**
 * The process's host-memory policy: one glibc malloc arena. By default
 * glibc gives each allocating thread an arena of its own, and an arena
 * keeps the high-water mark of what its threads allocated and freed. A
 * worker allocates and frees each job's cache tag and LRU arrays, LLC
 * directory, spin-detector tables and op buffers, so N workers would hold N
 * high-water marks (plus their fragmentation) instead of one shared
 * live set. Set during static initialization, so it holds before the
 * first thread of any binary that links the driver. Sanitizers bring
 * their own allocator, which this setting would not reach.
 */
[[maybe_unused]] const int oneMallocArena = mallopt(M_ARENA_MAX, 1);
#endif

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
 * Encoded group baseline streams for --record-dir, keyed like baseline
 * jobs (canonical fingerprintWorkloadGroupBaseline() text).
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

/** Run @p body(w) for w in [0, @p nworkers), each on a thread of its
 *  own unless there is one. */
void
onWorkers(int nworkers, const std::function<void(int)> &body)
{
    if (nworkers == 1) {
        body(0);
        return;
    }
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nworkers));
    for (int w = 0; w < nworkers; ++w)
        threads.emplace_back(body, w);
    for (std::thread &t : threads)
        t.join();
}

} // namespace

struct JobExecutor::Impl
{
    DriverOptions opts;
    std::atomic<std::size_t> baselinesComputed{0};
    TraceRecordClaims records;
    BaselineStreams baselineStreams;

    /** Run group @p group's 1-thread baseline of @p spec. */
    JobResult runBaseline(const JobSpec &spec, int group);

    /** Run the parallel run of @p spec (validation, trace replay or
     *  record). */
    JobResult runExperiment(const JobSpec &spec);
};

JobResult
JobExecutor::Impl::runBaseline(const JobSpec &spec, int group)
{
    // Always the generated program: the key is frontend-agnostic, and a
    // recorded baseline stream replays bit-identically to it.
    telemetry::ScopedSpan span("baseline", "driver");
    baselinesComputed.fetch_add(1, std::memory_order_relaxed);
    JobResult res;
    try {
        RunResult run = simulateSources(
            spec.params,
            workloadGroupBaselineSources(spec.effectiveWorkload(), group),
            1);
        if (!opts.fullRuns)
            run.dropDetail();
        res.baseline = std::make_shared<const RunResult>(std::move(run));
        res.status = JobStatus::kOk;
    } catch (const std::exception &e) {
        res.error = e.what();
    }
    return res;
}

JobResult
JobExecutor::Impl::runExperiment(const JobSpec &spec)
{
    JobResult res;
    try {
        {
            telemetry::ScopedSpan span("validate", "driver");
            validateSpec(spec);
        }
        const WorkloadSpec workload = spec.effectiveWorkload();
        const int nthreads = workload.nthreads();
        const int ngroups = workload.ngroups();

        // Trace replay: when the job's canonical recording exists, the
        // parallel run re-simulates from the recorded op streams and no
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
                // Baseline streams are a pure function of the workload:
                // jobs recording one at the same time encode it once
                // and share it.
                for (int g = 0; g < ngroups; ++g)
                    writer->setStream(
                        writer->baselineStream(g),
                        baselineStreams.get(
                            fingerprintWorkloadGroupBaseline(spec.params,
                                                             workload, g)
                                .canonical,
                            workload, g));
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

        if (!opts.fullRuns)
            parallel.dropDetail(); // no cache entry holds it
        res.exp.parallel = std::move(parallel);
        res.tracedReplay = reader != nullptr;
        res.status = JobStatus::kOk;
    } catch (const std::exception &e) {
        res.status = JobStatus::kFailed;
        res.error = e.what();
    }
    return res;
}

JobExecutor::JobExecutor(const DriverOptions &opts)
    : impl_(std::make_unique<Impl>())
{
    impl_->opts = opts;
}

JobExecutor::~JobExecutor() = default;

JobResult
JobExecutor::run(const LeasedJob &job)
{
    if (job.isBaseline())
        return impl_->runBaseline(job.spec, job.group);

    telemetry::Registry &registry = telemetry::Registry::global();
    const bool instrumented = registry.enabled();
    const auto start = instrumented
                           ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
    JobResult res = impl_->runExperiment(job.spec);
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
        registry
            .counter("sst_driver_jobs_total",
                     {{"status", res.ok() ? "ok" : "failed"}})
            .inc();
    }
    return res;
}

std::size_t
JobExecutor::baselinesComputed() const
{
    return impl_->baselinesComputed.load(std::memory_order_relaxed);
}

std::vector<SubmitOutcome>
submitExperiments(JobQueue &queue, const ResultCache *cache,
                  const std::vector<JobSpec> &specs, int priority,
                  std::uint64_t now_ms, int threads)
{
    struct Lookup
    {
        bool valid = false; ///< the spec passed validation
        bool hit = false;   ///< the cache holds its result
        std::optional<Fingerprint> fp;
        SpeedupExperiment cached; ///< the cached runs, when hit
    };
    std::vector<Lookup> lookups(specs.size());
    const int nworkers = static_cast<int>(std::max<std::size_t>(
        1, std::min(specs.size(),
                    static_cast<std::size_t>(std::max(threads, 1)))));
    onWorkers(nworkers, [&](int w) {
        for (std::size_t i = static_cast<std::size_t>(w); i < specs.size();
             i += static_cast<std::size_t>(nworkers)) {
            Lookup &l = lookups[i];
            try {
                validateSpec(specs[i]);
                l.valid = true;
            } catch (const std::exception &) {
                // Submitted alone, the job reports the error when it runs.
            }
            try {
                // An invalid spec is still keyed, so it dedups like any.
                l.fp = fingerprintJob(specs[i]);
                if (l.valid && cache) {
                    l.hit = cache->lookup(*l.fp, l.cached);
                    telemetry::Registry::global()
                        .counter("sst_driver_cache_lookups_total",
                                 {{"outcome", l.hit ? "hit" : "miss"}})
                        .inc();
                }
            } catch (const std::exception &) {
                // Never deduped; it fails when it runs.
            }
        }
    });

    std::vector<SubmitOutcome> outcomes;
    outcomes.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const JobSpec &spec = specs[i];
        Lookup &l = lookups[i];
        if (l.hit) {
            // A hit never reaches a worker, so it also never records:
            // --record-dir captures only fresh runs.
            JobResult res;
            res.status = JobStatus::kCached;
            res.exp = std::move(l.cached);
            SubmitOutcome out =
                queue.submitSettled(spec, *l.fp, std::move(res));
            out.cached = true;
            if (!out.deduped)
                telemetry::Registry::global()
                    .counter("sst_driver_jobs_total", {{"status", "cached"}})
                    .inc();
            outcomes.push_back(out);
            continue;
        }
        std::vector<JobId> baselines;
        if (l.valid)
            for (int g = 0; g < spec.workload.ngroups(); ++g)
                baselines.push_back(
                    queue.submitBaseline(spec, g, priority, now_ms).id);
        outcomes.push_back(queue.submit(spec, std::move(l.fp), priority,
                                        now_ms, baselines));
    }
    return outcomes;
}

bool
runLeasedJob(JobQueue &queue, JobExecutor &executor,
             const std::string &worker, const LeasedJob &job)
{
    telemetry::ScopedSpan jobSpan("job", "driver");
    return queue.complete(job.id, worker, executor.run(job));
}

JobResult
settledRow(const JobQueue &queue, JobId id, const JobSpec &spec)
{
    JobResult result = queue.resultFor(id);
    SpeedupExperiment &exp = result.exp;
    if (result.ok())
        exp = assembleExperiment(spec.label(), spec.nthreads(), spec.params,
                                 exp.single, std::move(exp.parallel));
    return result;
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

std::vector<JobResult>
ExperimentDriver::runBatch(const std::vector<JobSpec> &specs)
{
    stats_ = BatchStats{};
    stats_.total = specs.size();

    JobExecutor executor(opts_);

    // The batch runs through the same JobQueue the experiment service
    // uses (src/serve/), with in-process lease-loop threads as the
    // backend: their leases never expire, so timestamps stay 0.
    // Fingerprint dedup means a batch that lists the same job twice
    // executes it once and both rows share the result.
    JobQueue queue(JobQueueOptions(), cache_.get());
    // A pool never outnumbers its work: one lookup per spec, then one
    // lease loop per queued job (experiments plus distinct baselines).
    const std::size_t maxWorkers =
        opts_.jobs > 0 ? static_cast<std::size_t>(opts_.jobs)
                       : std::thread::hardware_concurrency();
    auto poolSize = [maxWorkers](std::size_t work) {
        return static_cast<int>(
            std::max<std::size_t>(1, std::min(maxWorkers, work)));
    };
    const std::vector<SubmitOutcome> submitted = submitExperiments(
        queue, opts_.refresh ? nullptr : cache_.get(), specs, 0, 0,
        poolSize(specs.size()));

    // Queue depth gauge: experiment jobs not yet settled. Written per
    // completion, never read back by the batch itself.
    telemetry::Registry &registry = telemetry::Registry::global();
    telemetry::GaugeHandle depthGauge =
        registry.gauge("sst_driver_queue_depth");
    auto publishDepth = [&queue, &registry, &depthGauge] {
        if (registry.enabled()) {
            const QueueStats s = queue.stats();
            depthGauge.set(static_cast<double>(s.pending + s.leased));
        }
    };
    publishDepth();

    // An experiment becomes leasable only when its baselines are done,
    // so a worker that finds nothing to lease waits for the queue to
    // change (every completion bumps the ready epoch) until it is idle.
    auto leaseLoop = [&queue, &executor,
                      &publishDepth](const std::string &worker) {
        for (;;) {
            const std::uint64_t epoch = queue.readyEpoch();
            LeasedJob job;
            if (queue.lease(worker, 0, job, /*expires=*/false)) {
                runLeasedJob(queue, executor, worker, job);
                publishDepth();
            } else if (queue.idle()) {
                return;
            } else {
                queue.waitReady(epoch, 100);
            }
        }
    };

    const QueueStats queued = queue.stats();
    stats_.workers = poolSize(
        queued.pending +
        queued.baselines[static_cast<std::size_t>(QueueJobState::kPending)]);
    onWorkers(stats_.workers, [&leaseLoop](int w) {
        leaseLoop("local-" + std::to_string(w));
    });

    std::vector<JobResult> results;
    results.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        JobResult &row =
            results.emplace_back(settledRow(queue, submitted[i].id, specs[i]));
        if (submitted[i].deduped) {
            ++stats_.deduped;
            // A deduped row replays its twin's in-queue result: report
            // it as a (memoized) cache hit, never a second execution,
            // and don't double-count the twin's trace activity.
            if (row.status == JobStatus::kOk)
                row.status = JobStatus::kCached;
            row.tracedReplay = false;
            row.traceRecorded = false;
        }
        stats_.traceReplays += row.tracedReplay;
        stats_.tracesRecorded += row.traceRecorded;
        switch (row.status) {
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
