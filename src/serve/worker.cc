#include "worker.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "driver/result_cache.hh"
#include "serve/protocol.hh"
#include "spec/spec.hh"
#include "util/logging.hh"

namespace sst {
namespace serve {

Heartbeat::Heartbeat(std::uint64_t interval_ms, std::function<void()> beat)
    : thread_([this, interval_ms, beat = std::move(beat)] {
          std::unique_lock<std::mutex> lock(mutex_);
          while (!wake_.wait_for(lock,
                                 std::chrono::milliseconds(interval_ms),
                                 [this] { return stopped_; })) {
              lock.unlock();
              beat();
              lock.lock();
          }
      })
{
}

Heartbeat::~Heartbeat()
{
    stop();
}

void
Heartbeat::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopped_ = true;
    }
    wake_.notify_one();
    if (thread_.joinable())
        thread_.join();
}

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

    JobExecutor executor(opts.driver, cache.get());

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
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts.pollMs));
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
        LeasedJob job;
        std::string specText;
        if (!parseLeaseReply(reply, job, specText)) {
            warn("worker", opts.name + ": malformed lease reply: " + reply);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts.pollMs));
            continue;
        }
        const std::uint64_t jobId = job.id;
        if (opts.verbose)
            inform("worker", opts.name + ": leased job " + std::to_string(jobId));

        // Heartbeat from a side thread while the simulation runs, at a
        // third of the lease so one dropped beat doesn't expire it.
        const std::uint64_t interval =
            std::max<std::uint64_t>(job.leaseMs / 3, 50);
        Heartbeat heartbeat(interval, [&] {
            Request beat;
            beat.kind = Request::Kind::kHeartbeat;
            beat.worker = opts.name;
            beat.jobId = jobId;
            try {
                request(serializeRequest(beat));
            } catch (const std::exception &) {
                // A missed beat is survivable; the next one (or the
                // done/fail report) will land or the lease expires and
                // the job is retried elsewhere.
            }
        });

        JobResult result;
        std::string infraError;
        try {
            const ExperimentSpec spec = parseSpec(specText);
            validateSpec(spec);
            std::vector<JobSpec> jobs = expandGrid(spec);
            if (jobs.size() != 1) {
                throw std::runtime_error(
                    "leased spec expands to " +
                    std::to_string(jobs.size()) + " jobs, expected 1");
            }
            job.spec = std::move(jobs[0]);
            const int ngroups = job.spec.workload.ngroups();
            if (job.isBaseline() ? job.group >= ngroups
                                 : job.baselines.size() !=
                                       static_cast<std::size_t>(ngroups))
                throw std::runtime_error(
                    "lease does not match the spec's " +
                    std::to_string(ngroups) + " group(s)");
            // run() never throws: a deterministically bad spec yields
            // a kFailed result, which is a *completion* (retrying it
            // elsewhere would fail identically).
            result = executor.run(job);
        } catch (const std::exception &e) {
            infraError = e.what();
        }
        heartbeat.stop();

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
