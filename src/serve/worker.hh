/**
 * @file
 * The external worker process (`sst worker --connect`): leases jobs
 * from a running server over the wire protocol, executes them on a
 * local JobExecutor, heartbeats each lease while the simulation runs,
 * and reports `done` (with the encoded result) or `fail` (for
 * infrastructure errors a retry elsewhere might not hit). A lease is
 * either a 1-thread baseline job or an experiment that arrives with its
 * finished baselines, so workers never recompute one another's.
 *
 * Workers are crash-only by design: there is no deregistration — a
 * killed worker simply stops heartbeating and the server's reaper
 * requeues its job. Every request uses a fresh connection, so a worker
 * survives server restarts by retrying leases until the endpoint
 * answers again (bounded by connectRetries).
 */

#ifndef SST_SERVE_WORKER_HH
#define SST_SERVE_WORKER_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "driver/driver.hh"
#include "serve/net.hh"

namespace sst {
namespace serve {

/** Worker configuration. */
struct WorkerOptions
{
    Endpoint endpoint; ///< server to lease from

    /** Lease identity; also names the worker in server diagnostics. */
    std::string name;

    /**
     * Execution options. A non-empty cacheDir gives the worker its own
     * copy of every experiment result it computes; by default workers
     * run cacheless — the server looks results up at submission and
     * caches what workers report.
     */
    DriverOptions driver;

    /** Retry interval after a failed or unexpected lease request (an
     *  `ok none` is re-asked at once: the server waited already). */
    std::uint64_t pollMs = 200;

    /** Consecutive connection failures tolerated before giving up. */
    int connectRetries = 30;

    bool verbose = false;
};

/**
 * Calls @p beat (which must not throw) every @p interval_ms from a side
 * thread until stop(). stop() wakes the thread at once, so a worker
 * reports a finished job without waiting out the current interval.
 */
class Heartbeat
{
  public:
    Heartbeat(std::uint64_t interval_ms, std::function<void()> beat);
    ~Heartbeat(); ///< stop()s

    Heartbeat(const Heartbeat &) = delete;
    Heartbeat &operator=(const Heartbeat &) = delete;

    /** End the beats and join the thread; no beat starts afterwards. */
    void stop();

  private:
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopped_ = false;
    std::thread thread_; ///< last: starts once the members above exist
};

/**
 * Run the lease/execute/report loop until the server drains (returns
 * 0) or the endpoint stays unreachable past connectRetries (returns 1).
 * The options' name defaults to "worker-<pid>" when empty.
 */
int runWorker(const WorkerOptions &opts);

} // namespace serve
} // namespace sst

#endif // SST_SERVE_WORKER_HH
