/**
 * @file
 * The persistent sweep service: a Server owns the JobQueue, an optional
 * in-process worker pool and the result cache, accepts concurrent
 * protocol clients (serve/protocol.hh) over a Unix or TCP socket, and
 * journals every accepted campaign so a restarted server resumes
 * unfinished work — jobs that already ran come back instantly through
 * the content-addressed result cache, the rest re-enter the queue.
 *
 * Execution backends:
 *  - local worker threads (`localWorkers > 0`) are the batch driver's
 *    in-process workers (runInProcessWorker) on a shared JobExecutor,
 *    on the server's clock. They die only with the server, so their
 *    leases never expire;
 *  - external `sst worker --connect` processes lease over the socket.
 *    A reaper thread expires the leases of workers that stopped
 *    heartbeating (killed, wedged, partitioned) and requeues their
 *    jobs with backoff; jobs that exhaust their attempts settle as
 *    failed without poisoning the rest of the campaign.
 *
 * A campaign takes the batch driver's path from spec to row:
 * submitExperiments(), then settledRow() for each streamed row. The
 * queue keeps each worker's lease, done and fail counts (the `status`
 * worker lines and the `sst_serve_worker_*` metrics), whichever backend
 * the worker is.
 *
 * Each distinct 1-thread baseline is a queue job of its own, leased to
 * either backend like any other job, and an experiment is leased once
 * its baselines are done — so each baseline is computed once across
 * every worker, and a lost one is requeued with its lease. Ts and the
 * cache entry come from the queue, never from a worker's report.
 *
 * Determinism: results stream in a campaign's expansion order and every
 * job is a pure function of its spec, so a campaign streamed from the
 * service is bit-identical to the same spec run by `sst sweep`.
 */

#ifndef SST_SERVE_SERVER_HH
#define SST_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "driver/driver.hh"
#include "driver/job_queue.hh"
#include "serve/net.hh"

namespace sst {

class ResultCache;

namespace serve {

class Journal;

/** Server configuration. */
struct ServerOptions
{
    /** Where to listen. Unix path or tcp:host:port (port 0 = pick). */
    Endpoint endpoint;

    /**
     * In-process worker threads. 0 (the default for `sst serve`) runs
     * every job on external workers — the service is then a pure
     * coordinator.
     */
    int localWorkers = 0;

    /** Execution options shared by local workers; cacheDir enables the
     *  result cache, written by the queue for every backend. */
    DriverOptions driver;

    /** Journal path; empty disables crash-safe campaign persistence. */
    std::string journalPath;

    JobQueueOptions queue;

    /** Lease-expiry cadence; also how long a `lease` request waits for
     *  a job before answering `ok none`. */
    std::uint64_t reaperIntervalMs = 200;
};

/** The sweep service. See file comment. */
class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Replay the journal, bind the endpoint and spawn the accept,
     * reaper and local worker threads. Throws std::runtime_error when
     * the endpoint or journal is unusable.
     */
    void start();

    /** Stop accepting, drop the listener and join every thread. Safe to
     *  call twice; ~Server calls it. */
    void stop();

    /** The bound endpoint (after start(); reports the real TCP port). */
    const Endpoint &endpoint() const { return endpoint_; }

    /** Stop accepting new campaigns; existing ones run to completion. */
    void drain();

    bool draining() const { return draining_; }

    /** True once draining and every accepted job has settled. */
    bool finished() const;

    /**
     * Accept campaign @p name with @p spec_text at @p priority: parse,
     * validate, expand, journal, and submit its jobs
     * (submitExperiments: fingerprint-deduped, cache hits settled at
     * once, the rest behind their baseline jobs). Fills @p response
     * with the protocol reply (`ok submitted ...` / `err ...`);
     * returns response == ok. This is the submit handler's core,
     * public for direct (in-process) use and journal replay.
     */
    bool submitCampaign(const std::string &name, int priority,
                        const std::string &spec_text,
                        std::string &response, bool from_journal = false);

    /** Cancel @p name's pending jobs; returns how many were cancelled. */
    std::size_t cancelCampaign(const std::string &name,
                               bool from_journal = false);

    /** Multi-line status block (no terminating `end` line). */
    std::string statusText() const;

    /** Telemetry exposition text (the `metrics` verb body): queue
     *  gauges refreshed, then the registry's deterministic render. */
    std::string metricsText() const;

    /** The queue, exposed for tests and in-process embedding. */
    JobQueue &queue() { return queue_; }

    /** Milliseconds since the server started (the queue's timebase). */
    std::uint64_t nowMs() const;

  private:
    struct Campaign
    {
        std::string canonical; ///< canonical spec text (dup detection)
        int priority = 0;
        std::vector<JobSpec> specs; ///< expansion order
        std::vector<JobId> ids;     ///< parallel to specs
    };

    /** One connection-handler thread plus its finished flag, so the
     *  accept loop can join (reap) it long before shutdown. */
    struct Conn
    {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done;
    };

    void acceptLoop();
    void reaperLoop();
    void handleConnection(Socket sock);
    void handleLease(Socket &sock, const std::string &worker);
    void handleDone(const std::string &worker, JobId id,
                    const std::string &payload, Socket &sock);
    void streamResults(Socket &sock, const std::string &name, bool json,
                       bool wait);
    void journalRequest(const std::string &line);
    void reapConnections(bool join_all);
    void publishQueueGauges() const;

    ServerOptions opts_;
    Endpoint endpoint_;
    std::unique_ptr<ResultCache> cache_; ///< before queue_, which uses it
    JobQueue queue_;
    JobExecutor executor_;
    std::unique_ptr<Journal> journal_;
    Listener listener_;

    mutable std::mutex campaignsMutex_;
    std::map<std::string, Campaign> campaigns_;

    std::atomic<bool> stop_{false};
    std::atomic<bool> draining_{false};
    std::chrono::steady_clock::time_point epoch_;

    std::thread acceptThread_;
    std::thread reaperThread_;
    std::vector<std::thread> localWorkers_;

    std::mutex connsMutex_;
    std::vector<Conn> conns_;
    bool started_ = false;
};

} // namespace serve
} // namespace sst

#endif // SST_SERVE_SERVER_HH
