#include "server.hh"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <utility>

#include "driver/result_cache.hh"
#include "driver/sweep.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh"
#include "spec/spec.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "util/logging.hh"

namespace sst {
namespace serve {
namespace {

/** Collapse an exception message onto one response line. */
std::string
oneline(const std::string &msg)
{
    std::string out = msg;
    std::replace(out.begin(), out.end(), '\n', ' ');
    std::replace(out.begin(), out.end(), '\r', ' ');
    return out;
}

} // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.driver.cacheDir.empty()
                 ? nullptr
                 : std::make_unique<ResultCache>(opts_.driver.cacheDir)),
      queue_(opts_.queue, cache_.get()), executor_(opts_.driver),
      epoch_(std::chrono::steady_clock::now())
{
}

Server::~Server()
{
    stop();
}

std::uint64_t
Server::nowMs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

void
Server::start()
{
    sstAssert(!started_, "Server::start called twice");
    started_ = true;

    // A live service is always observable: the registry costs one
    // relaxed atomic per counter bump and the `metrics` verb streams
    // the exposition. Simulation results are unaffected (telemetry is
    // write-only for the sim).
    telemetry::Registry::global().setEnabled(true);

    // Replay before listening: the queue is fully reconstructed before
    // any client or worker can observe it. Jobs that completed in a
    // previous life fulfil instantly through the result cache.
    if (!opts_.journalPath.empty()) {
        for (const std::string &line : Journal::replay(opts_.journalPath)) {
            Request req;
            try {
                req = parseRequest(line);
            } catch (const std::exception &e) {
                warn("serve", "journal: skipping bad record (" +
                                  std::string(e.what()) + ")");
                continue;
            }
            if (req.kind == Request::Kind::kSubmit) {
                std::string response;
                if (!submitCampaign(req.campaign, req.priority,
                                    req.payload, response,
                                    /*from_journal=*/true))
                    warn("serve", "journal: replay of campaign '" +
                                      req.campaign +
                                      "' failed: " + response);
            } else if (req.kind == Request::Kind::kCancel) {
                cancelCampaign(req.campaign, /*from_journal=*/true);
            } else {
                warn("serve",
                     "journal: skipping non-state record '" +
                         std::string(requestKindName(req.kind)) + "'");
            }
        }
        journal_ = std::make_unique<Journal>(opts_.journalPath);
    }

    listener_ = Listener::listenOn(opts_.endpoint);
    endpoint_ = listener_.endpoint();

    acceptThread_ = std::thread([this] { acceptLoop(); });
    reaperThread_ = std::thread([this] { reaperLoop(); });
    // A local worker dies only with the server: its lease never expires,
    // so it never heartbeats. It runs on the server's clock, in which a
    // job an external worker failed backs off.
    for (int i = 0; i < opts_.localWorkers; ++i)
        localWorkers_.emplace_back([this, i] {
            runInProcessWorker(
                queue_, executor_, "local-" + std::to_string(i),
                [this] { return nowMs(); },
                [this] { return stop_ || (draining_ && queue_.idle()); });
        });
}

void
Server::drain()
{
    draining_ = true;
    queue_.wakeReadyWaiters(); // waiting leases answer `drained` now
}

void
Server::stop()
{
    if (stop_.exchange(true))
        return;
    queue_.wakeReadyWaiters();
    if (acceptThread_.joinable())
        acceptThread_.join();
    listener_.close();
    reapConnections(/*join_all=*/true);
    if (reaperThread_.joinable())
        reaperThread_.join();
    for (std::thread &t : localWorkers_)
        if (t.joinable())
            t.join();
    localWorkers_.clear();
}

bool
Server::finished() const
{
    return draining_ && queue_.idle();
}

void
Server::reapConnections(bool join_all)
{
    std::lock_guard<std::mutex> lock(connsMutex_);
    auto it = conns_.begin();
    while (it != conns_.end()) {
        if (join_all || it->done->load()) {
            if (it->thread.joinable())
                it->thread.join();
            it = conns_.erase(it);
        } else {
            ++it;
        }
    }
}

void
Server::acceptLoop()
{
    while (!stop_) {
        // Join connections that finished since the last pass — a
        // persistent server must not accumulate joinable threads.
        reapConnections(/*join_all=*/false);
        Socket sock;
        try {
            sock = listener_.accept(
                static_cast<int>(opts_.reaperIntervalMs));
        } catch (const std::exception &e) {
            if (!stop_)
                warn("serve", "accept failed: " + std::string(e.what()));
            continue;
        }
        if (!sock.valid())
            continue;
        auto done = std::make_shared<std::atomic<bool>>(false);
        std::thread thread(
            [this, done](Socket s) {
                handleConnection(std::move(s));
                done->store(true);
            },
            std::move(sock));
        std::lock_guard<std::mutex> lock(connsMutex_);
        conns_.push_back(Conn{std::move(thread), std::move(done)});
    }
}

void
Server::reaperLoop()
{
    while (!stop_) {
        std::vector<JobId> expired;
        queue_.expireLeases(nowMs(), &expired);
        if (!expired.empty())
            inform("serve", "requeued " + std::to_string(expired.size()) +
                                " expired lease(s)");
        publishQueueGauges();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts_.reaperIntervalMs));
    }
}

void
Server::journalRequest(const std::string &line)
{
    if (journal_)
        journal_->append(line);
}

void
Server::publishQueueGauges() const
{
    telemetry::Registry &registry = telemetry::Registry::global();
    if (!registry.enabled())
        return;
    const QueueStats stats = queue_.stats();
    const struct
    {
        const char *state;
        std::size_t value;
    } kGauges[] = {
        {"pending", stats.pending},     {"leased", stats.leased},
        {"done", stats.done},           {"failed", stats.failed},
        {"cancelled", stats.cancelled},
    };
    for (const auto &g : kGauges)
        registry.gauge("sst_serve_queue_jobs", {{"state", g.state}})
            .set(static_cast<double>(g.value));
    for (std::size_t state = 0; state < kQueueJobStates; ++state)
        registry
            .gauge("sst_serve_queue_baselines",
                   {{"state", queueJobStateName(
                                  static_cast<QueueJobState>(state))}})
            .set(static_cast<double>(stats.baselines[state]));
    registry.gauge("sst_serve_queue_submitted")
        .set(static_cast<double>(stats.submitted));
    registry.gauge("sst_serve_queue_deduped")
        .set(static_cast<double>(stats.deduped));
    registry.gauge("sst_serve_queue_requeues")
        .set(static_cast<double>(stats.requeues));
}

std::string
Server::metricsText() const
{
    publishQueueGauges();
    return telemetry::Registry::global().renderText();
}

bool
Server::submitCampaign(const std::string &name, int priority,
                       const std::string &spec_text,
                       std::string &response, bool from_journal)
{
    telemetry::ScopedSpan span("submit", "serve");
    if (name.empty()) {
        response = "err campaign name must not be empty";
        return false;
    }
    if (draining_ && !from_journal) {
        response = "err draining: not accepting new campaigns";
        return false;
    }

    std::string canonical;
    std::vector<JobSpec> jobs;
    try {
        const ExperimentSpec spec = parseSpec(spec_text);
        canonical = serializeSpec(spec);
        validateSpec(spec);
        // Jobs replay from the trace directories of this server and its
        // workers; a campaign cannot choose another one. A coordinator
        // with no directory and no local workers leaves it to the
        // external workers' own --trace-dir.
        namespace fs = std::filesystem;
        const auto dirKey = [](const std::string &dir) {
            return (fs::path(dir) / "").lexically_normal();
        };
        const bool coordinator =
            opts_.localWorkers == 0 && opts_.driver.traceDir.empty();
        if (!spec.traceDir.empty() && !coordinator &&
            dirKey(spec.traceDir) != dirKey(opts_.driver.traceDir))
            throw std::invalid_argument(
                "spec trace-dir '" + spec.traceDir +
                "' differs from the server's --trace-dir '" +
                opts_.driver.traceDir +
                "'; in serve, trace-dir is a setting of `sst serve` "
                "and `sst worker`");
        jobs = expandGrid(spec);
    } catch (const std::exception &e) {
        response = "err " + oneline(e.what());
        return false;
    }
    if (jobs.empty()) {
        response = "err campaign expands to zero jobs";
        return false;
    }

    // Reserve the name under the lock (an empty campaign with the
    // canonical text claims it against a concurrent different-spec
    // submit), then journal and enqueue with the lock released so a
    // large submission never blocks status/results/cancel.
    bool isNew = false;
    {
        std::lock_guard<std::mutex> lock(campaignsMutex_);
        const auto known = campaigns_.find(name);
        isNew = known == campaigns_.end();
        if (!isNew && known->second.canonical != canonical) {
            response = "err campaign '" + name +
                       "' already exists with a different spec";
            return false;
        }
        if (isNew) {
            Campaign placeholder;
            placeholder.canonical = canonical;
            placeholder.priority = priority;
            campaigns_.emplace(name, std::move(placeholder));
        }
    }

    // Journal before enqueueing: a crash between the two replays the
    // submit and reconstructs the jobs; the reverse order could accept
    // (and answer ok for) a campaign a restart would forget. Journal
    // the canonical text so replay parses the exact same spec. (A
    // cancel racing this submit may journal first and cancel nothing —
    // replay then resubmits in full, matching what the live cancel
    // observed.)
    if (!from_journal && isNew) {
        Request rec;
        rec.kind = Request::Kind::kSubmit;
        rec.campaign = name;
        rec.priority = priority;
        rec.payload = canonical;
        journalRequest(serializeRequest(rec));
    }

    Campaign campaign;
    campaign.canonical = canonical;
    campaign.priority = priority;
    campaign.specs = std::move(jobs);
    std::size_t fresh = 0, deduped = 0, cachedHits = 0;
    {
        // Submit-time memoization: a job the cache already holds never
        // reaches a worker — this is what turns journal replay into an
        // instant resume for the completed prefix of a campaign.
        telemetry::ScopedSpan enqueueSpan("enqueue", "serve");
        for (const SubmitOutcome &outcome : submitExperiments(
                 queue_, cache_.get(), campaign.specs, priority, nowMs(), 1)) {
            campaign.ids.push_back(outcome.id);
            if (outcome.deduped) {
                ++deduped;
                continue;
            }
            ++fresh;
            if (outcome.cached)
                ++cachedHits;
        }
    }
    response = "ok submitted " + escapeToken(name) + " jobs=" +
               std::to_string(campaign.specs.size()) + " new=" +
               std::to_string(fresh) + " deduped=" +
               std::to_string(deduped) + " cached=" +
               std::to_string(cachedHits);
    // Store (or refresh) the id mapping even for a known campaign:
    // failed/cancelled twins deliberately don't dedup, so a resubmit
    // enqueues fresh retry jobs whose ids must replace the settled
    // ones — otherwise results would stream the stale failures forever.
    std::lock_guard<std::mutex> lock(campaignsMutex_);
    campaigns_[name] = std::move(campaign);
    return true;
}

std::size_t
Server::cancelCampaign(const std::string &name, bool from_journal)
{
    std::lock_guard<std::mutex> lock(campaignsMutex_);
    const auto it = campaigns_.find(name);
    if (it == campaigns_.end())
        return 0;
    if (!from_journal) {
        Request rec;
        rec.kind = Request::Kind::kCancel;
        rec.campaign = name;
        journalRequest(serializeRequest(rec));
    }
    std::size_t cancelled = 0;
    for (const JobId id : it->second.ids)
        if (queue_.cancel(id))
            ++cancelled;
    return cancelled;
}

std::string
Server::statusText() const
{
    const QueueStats stats = queue_.stats();
    std::string out;
    out += "protocol " + std::to_string(kProtocolVersion) + "\n";
    out += "draining " + std::string(draining_ ? "1" : "0") + "\n";
    out += "pending " + std::to_string(stats.pending) + "\n";
    out += "leased " + std::to_string(stats.leased) + "\n";
    out += "done " + std::to_string(stats.done) + "\n";
    out += "failed " + std::to_string(stats.failed) + "\n";
    out += "cancelled " + std::to_string(stats.cancelled) + "\n";
    out += "submitted " + std::to_string(stats.submitted) + "\n";
    out += "deduped " + std::to_string(stats.deduped) + "\n";
    out += "requeues " + std::to_string(stats.requeues) + "\n";

    // Snapshot the campaign table under the lock, then settle-check
    // against the queue with it released: settled() is O(total jobs)
    // worth of queue-mutex traffic and campaignsMutex_ is on submit's
    // path — holding both serialized large submits behind status polls.
    struct CampaignRow
    {
        std::string name;
        std::vector<JobId> ids;
        int priority;
    };
    std::vector<CampaignRow> rows;
    {
        std::lock_guard<std::mutex> lock(campaignsMutex_);
        rows.reserve(campaigns_.size());
        for (const auto &entry : campaigns_)
            rows.push_back(CampaignRow{entry.first, entry.second.ids,
                                       entry.second.priority});
    }
    for (const CampaignRow &row : rows) {
        std::size_t settled = 0;
        for (const JobId id : row.ids)
            if (queue_.settled(id))
                ++settled;
        out += "campaign " + escapeToken(row.name) + " jobs=" +
               std::to_string(row.ids.size()) + " settled=" +
               std::to_string(settled) + " priority=" +
               std::to_string(row.priority) + "\n";
    }

    // Per-worker throughput from the queue's ledger (std::map order:
    // deterministic).
    for (const auto &entry : stats.workers) {
        char rate[32];
        std::snprintf(rate, sizeof(rate), "%.3f", entry.second.jobsPerSec);
        out += "worker " + escapeToken(entry.first) + " leases=" +
               std::to_string(entry.second.leases) + " done=" +
               std::to_string(entry.second.done) + " failed=" +
               std::to_string(entry.second.failed) + " rate=" + rate +
               "\n";
    }
    return out;
}

void
Server::handleLease(Socket &sock, const std::string &worker)
{
    telemetry::ScopedSpan span("lease", "serve");
    // Long poll: with nothing leasable, wait up to one reaper interval
    // for a submit, a requeue or a drain, so an idle worker starts a
    // new job as soon as it is ready instead of a poll interval later.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(opts_.reaperIntervalMs);
    for (;;) {
        const std::uint64_t epoch = queue_.readyEpoch();
        LeasedJob job;
        if (queue_.lease(worker, nowMs(), job)) {
            sock.writeAll(leaseReply(job) + "\n");
            return;
        }
        if (draining_ && queue_.idle()) {
            sock.writeAll("ok drained\n");
            return;
        }
        const auto now = std::chrono::steady_clock::now();
        if (stop_ || now >= deadline)
            break;
        queue_.waitReady(
            epoch, static_cast<std::uint64_t>(
                       std::chrono::ceil<std::chrono::milliseconds>(
                           deadline - now)
                           .count()));
    }
    sock.writeAll("ok none\n");
}

void
Server::handleDone(const std::string &worker, JobId id,
                   const std::string &payload, Socket &sock)
{
    telemetry::ScopedSpan span("done", "serve");
    // Only the lease holder may report: an id this queue never issued,
    // or a job another worker holds, is stale.
    JobSpec spec;
    int group = kExperimentJob;
    if (!queue_.tryLeasedSpec(id, worker, spec, group)) {
        sock.writeAll("err stale\n");
        return;
    }
    // A payload that is garbage, or a run of another thread count, is a
    // worker-side defect: retry the job elsewhere rather than settling
    // it (and caching it under this job's fingerprint).
    JobResult result;
    std::string defect;
    if (!decodeJobResult(payload, result, group != kExperimentJob))
        defect = "undecodable result payload";
    else if (group == kExperimentJob && result.ok() &&
             result.exp.parallel.nthreads != spec.nthreads())
        defect = "result of " + std::to_string(result.exp.parallel.nthreads) +
                 " thread(s) for a " + std::to_string(spec.nthreads()) +
                 "-thread job";
    if (!defect.empty()) {
        queue_.fail(id, worker, defect, nowMs());
        sock.writeAll("err " + defect + "\n");
        return;
    }
    sock.writeAll(queue_.complete(id, worker, std::move(result), nowMs())
                      ? "ok\n"
                      : "err stale\n");
}

void
Server::streamResults(Socket &sock, const std::string &name, bool json,
                      bool wait)
{
    std::vector<JobSpec> specs;
    std::vector<JobId> ids;
    {
        std::lock_guard<std::mutex> lock(campaignsMutex_);
        const auto it = campaigns_.find(name);
        if (it == campaigns_.end()) {
            sock.writeAll("err unknown campaign '" + escapeToken(name) +
                          "'\n");
            return;
        }
        specs = it->second.specs;
        ids = it->second.ids;
    }

    sock.writeAll("ok results " + escapeToken(name) + " " +
                  std::string(json ? "json" : "csv") + "\n");
    if (!json)
        sock.writeAll(sweepCsvHeader() + "\n");
    for (std::size_t i = 0; i < ids.size(); ++i) {
        while (!queue_.settled(ids[i])) {
            if (!wait || stop_) {
                sock.writeAll("end partial " + std::to_string(i) + "/" +
                              std::to_string(ids.size()) + "\n");
                return;
            }
            queue_.waitSettled(ids[i], 200);
        }
        const JobResult result = settledRow(queue_, ids[i], specs[i]);
        sock.writeAll((json ? sweepJsonRow(specs[i], result)
                            : sweepCsvRow(specs[i], result)) +
                      "\n");
    }
    sock.writeAll("end complete " + std::to_string(ids.size()) + "/" +
                  std::to_string(ids.size()) + "\n");
}

void
Server::handleConnection(Socket sock)
{
    std::string line;
    try {
        if (!sock.readLine(line))
            return;
        const Request req = parseRequest(line);
        switch (req.kind) {
        case Request::Kind::kSubmit: {
            std::string response;
            submitCampaign(req.campaign, req.priority, req.payload,
                           response);
            sock.writeAll(response + "\n");
            break;
        }
        case Request::Kind::kStatus:
            sock.writeAll("ok status\n" + statusText() + "end\n");
            break;
        case Request::Kind::kResults:
            streamResults(sock, req.campaign, req.json, req.wait);
            break;
        case Request::Kind::kCancel: {
            const std::size_t n = cancelCampaign(req.campaign);
            sock.writeAll("ok cancelled " + escapeToken(req.campaign) +
                          " pending=" + std::to_string(n) + "\n");
            break;
        }
        case Request::Kind::kDrain:
            drain();
            sock.writeAll("ok draining\n");
            break;
        case Request::Kind::kPing:
            sock.writeAll("ok pong protocol=" +
                          std::to_string(kProtocolVersion) + "\n");
            break;
        case Request::Kind::kLease:
            handleLease(sock, req.worker);
            break;
        case Request::Kind::kHeartbeat: {
            telemetry::ScopedSpan span("heartbeat", "serve");
            sock.writeAll(queue_.heartbeat(req.jobId, req.worker, nowMs())
                              ? "ok\n"
                              : "err stale\n");
            break;
        }
        case Request::Kind::kDone:
            handleDone(req.worker, req.jobId, req.payload, sock);
            break;
        case Request::Kind::kFail: {
            const FailOutcome outcome = queue_.fail(
                req.jobId, req.worker, req.payload, nowMs());
            sock.writeAll(outcome == FailOutcome::kRequeued ? "ok requeued\n"
                          : outcome == FailOutcome::kFailed ? "ok failed\n"
                                                            : "err stale\n");
            break;
        }
        case Request::Kind::kMetrics:
            sock.writeAll("ok metrics\n" + metricsText() + "end\n");
            break;
        }
        sock.shutdownWrite();
    } catch (const std::exception &e) {
        try {
            sock.writeAll("err " + oneline(e.what()) + "\n");
        } catch (const std::exception &) {
            // The peer is gone; nothing to report to.
        }
    }
}

} // namespace serve
} // namespace sst
