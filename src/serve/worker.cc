#include "worker.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "driver/baseline_store.hh"
#include "driver/result_cache.hh"
#include "serve/protocol.hh"
#include "spec/machine_keys.hh"
#include "spec/spec.hh"
#include "util/logging.hh"

namespace sst {
namespace serve {
namespace {

/**
 * The remote baseline backend: claims and publishes go to the server's
 * table over the `baseline` / `baseline-done` verbs. Any transport or
 * protocol error degrades to computing the baseline here — a lost or
 * confused server costs a recomputation, never a wrong or failed job.
 */
class RemoteBaselineStore final : public BaselineStore
{
  public:
    using Requester = std::function<std::string(const std::string &)>;

    RemoteBaselineStore(Requester request, std::string worker)
        : request_(std::move(request)), worker_(std::move(worker))
    {
    }

    BaselineTicket
    claim(const BaselineSlot &slot) override
    {
        BaselineTicket ticket;
        ticket.claim = BaselineTicket::Claim::kCompute;
        try {
            const std::vector<std::string> tokens = splitTokens(
                request_(serializeRequest(requestFor(slot, false))));
            RunResult run;
            if (tokens.size() == 2 && tokens[0] == "ok" &&
                tokens[1] == "pending") {
                ticket.claim = BaselineTicket::Claim::kPending;
            } else if (tokens.size() == 3 && tokens[0] == "ok" &&
                       tokens[1] == "have" &&
                       decodeBaselineSummary(unescapeToken(tokens[2]),
                                             run)) {
                ticket.claim = BaselineTicket::Claim::kHave;
                ticket.run = std::make_shared<const RunResult>(run);
            }
        } catch (const std::exception &) {
            // Unreachable server or bad escape: compute it here.
        }
        return ticket;
    }

    BaselineTicket
    await(const BaselineSlot &slot) override
    {
        // The verb never blocks, so poll, backing off from 5 to 50 ms;
        // the heartbeat thread keeps the lease alive meanwhile.
        std::uint64_t delayMs = 5;
        for (;;) {
            BaselineTicket ticket = claim(slot);
            if (ticket.claim != BaselineTicket::Claim::kPending)
                return ticket;
            std::this_thread::sleep_for(std::chrono::milliseconds(delayMs));
            delayMs = std::min<std::uint64_t>(delayMs * 2, 50);
        }
    }

    bool
    publish(const BaselineSlot &slot,
            std::shared_ptr<const RunResult> run) override
    {
        Request req = requestFor(slot, true);
        req.payload = encodeBaselineSummary(*run);
        try {
            return request_(serializeRequest(req)) == "ok";
        } catch (const std::exception &) {
            // Awaiters elsewhere compute it once this lease ends.
            return false;
        }
    }

    void
    abandon(const BaselineSlot &, std::exception_ptr) override
    {
        // Nothing to send: the server releases the claim when the
        // failed job settles, and the next asker computes it.
    }

    void
    release(const BaselineSlot &) override
    {
        // As abandon(): the server releases it when the job settles.
    }

  private:
    Request
    requestFor(const BaselineSlot &slot, bool done) const
    {
        Request req;
        req.kind = done ? Request::Kind::kBaselineDone
                        : Request::Kind::kBaseline;
        req.worker = worker_;
        req.jobId = slot.job;
        req.group = slot.group;
        return req;
    }

    Requester request_;
    std::string worker_;
};

/** Sleep @p ms in short steps, returning early once @p stop is set. */
void
interruptibleSleep(std::uint64_t ms, const std::atomic<bool> &stop)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(ms);
    while (!stop && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

} // namespace

int
runWorker(const WorkerOptions &opts_in)
{
    WorkerOptions opts = opts_in;
    if (opts.name.empty())
        opts.name = "worker-" + std::to_string(::getpid());

    std::unique_ptr<ResultCache> cache;
    if (!opts.driver.cacheDir.empty())
        cache = std::make_unique<ResultCache>(opts.driver.cacheDir);

    // One request per connection, like every other client: a fresh
    // socket per call means a restarted server is just one failed
    // request, not a wedged stream.
    auto request = [&opts](const std::string &line) {
        Socket sock = connectTo(opts.endpoint);
        sock.writeAll(line + "\n");
        sock.shutdownWrite();
        std::string reply;
        if (!sock.readLine(reply))
            throw std::runtime_error("server closed the connection");
        return reply;
    };

    RemoteBaselineStore baselines(request, opts.name);
    JobExecutor executor(opts.driver, cache.get(), baselines);

    const std::atomic<bool> never{false};
    int connectFailures = 0;
    for (;;) {
        Request leaseReq;
        leaseReq.kind = Request::Kind::kLease;
        leaseReq.worker = opts.name;
        std::string reply;
        try {
            reply = request(serializeRequest(leaseReq));
            connectFailures = 0;
        } catch (const std::exception &e) {
            if (++connectFailures > opts.connectRetries) {
                warn("worker", opts.name + ": giving up on " +
                     opts.endpoint.text() + ": " + e.what());
                return 1;
            }
            interruptibleSleep(opts.pollMs, never);
            continue;
        }

        const std::vector<std::string> tokens = splitTokens(reply);
        if (tokens.size() == 2 && tokens[0] == "ok" &&
            tokens[1] == "drained") {
            if (opts.verbose)
                inform("worker", opts.name + ": server drained; exiting");
            return 0;
        }
        if (tokens.size() == 2 && tokens[0] == "ok" &&
            tokens[1] == "none")
            continue; // the server already waited for a job
        if (tokens.size() != 5 || tokens[0] != "ok" ||
            tokens[1] != "job") {
            warn("worker", opts.name + ": unexpected lease reply: " + reply);
            interruptibleSleep(opts.pollMs, never);
            continue;
        }

        std::uint64_t jobId = 0;
        std::uint64_t leaseMs = 0;
        std::string specText;
        try {
            jobId = parseU64Text("job id", tokens[2]);
            leaseMs = parseU64Text("lease ms", tokens[3]);
            specText = unescapeToken(tokens[4]);
        } catch (const std::exception &e) {
            warn("worker", opts.name + ": malformed lease reply: " + e.what());
            interruptibleSleep(opts.pollMs, never);
            continue;
        }
        if (opts.verbose)
            inform("worker", opts.name + ": leased job " + std::to_string(jobId));

        // Heartbeat from a side thread while the simulation runs, at a
        // third of the lease so one dropped beat doesn't expire it.
        std::atomic<bool> finished{false};
        std::thread heartbeater([&] {
            const std::uint64_t interval =
                std::max<std::uint64_t>(leaseMs / 3, 50);
            for (;;) {
                interruptibleSleep(interval, finished);
                if (finished)
                    return;
                Request beat;
                beat.kind = Request::Kind::kHeartbeat;
                beat.worker = opts.name;
                beat.jobId = jobId;
                try {
                    request(serializeRequest(beat));
                } catch (const std::exception &) {
                    // A missed beat is survivable; the next one (or
                    // the done/fail report) will land or the lease
                    // expires and the job is retried elsewhere.
                }
            }
        });

        JobResult result;
        std::string infraError;
        try {
            const ExperimentSpec spec = parseSpec(specText);
            std::vector<JobSpec> jobs = expandGrid(specGrid(spec));
            if (jobs.size() != 1) {
                throw std::runtime_error(
                    "leased spec expands to " +
                    std::to_string(jobs.size()) + " jobs, expected 1");
            }
            // run() never throws: a deterministically bad spec yields
            // a kFailed result, which is a *completion* (retrying it
            // elsewhere would fail identically).
            result = executor.run(jobs[0], jobId);
        } catch (const std::exception &e) {
            infraError = e.what();
        }
        finished = true;
        heartbeater.join();

        Request report;
        report.worker = opts.name;
        report.jobId = jobId;
        if (infraError.empty()) {
            report.kind = Request::Kind::kDone;
            report.payload = encodeJobResult(result);
        } else {
            report.kind = Request::Kind::kFail;
            report.payload = infraError;
        }
        try {
            const std::string ack = request(serializeRequest(report));
            if (opts.verbose)
                inform("worker", opts.name + ": job " + std::to_string(jobId) +
                       " -> " + ack);
        } catch (const std::exception &e) {
            // The lease will expire and the job will be retried; the
            // queue's current-holder check keeps a late duplicate
            // settle from a reconnect harmless.
            warn("worker", opts.name + ": could not report job " +
                 std::to_string(jobId) + ": " + e.what());
        }
    }
}

} // namespace serve
} // namespace sst
