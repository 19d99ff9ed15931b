/**
 * @file
 * Named timed spans recorded into per-thread ring buffers and exported
 * as Chrome `trace_event` JSON (loadable in Perfetto / chrome://tracing).
 *
 * Span sources:
 *  - driver job lifecycle (one lane per pool worker thread): every
 *    leased job is a `job` span holding either `baseline` (a 1-thread
 *    baseline job) or validate → simulate → cache-store (an
 *    experiment; the queue stores it as the job completes);
 *  - serve lifecycle: submit → enqueue → lease → heartbeat → done (one
 *    lane per connection-handler / local-worker thread).
 *
 * Disabled by default: ScopedSpan checks one relaxed atomic and reads
 * no clock when tracing is off, so instrumented code paths cost nothing
 * outside `--trace-out` runs. Recording takes a per-ring mutex that is
 * uncontended in practice (only the owning thread writes; export reads
 * briefly). Rings are fixed-capacity; overflow overwrites the oldest
 * span and is counted in dropped().
 *
 * Tracing is write-only for the simulation — span recording never feeds
 * back into scheduling or results, so traces cannot perturb determinism.
 */

#ifndef SST_TELEMETRY_SPAN_HH
#define SST_TELEMETRY_SPAN_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sst {
namespace telemetry {

/** One completed span, times in nanoseconds since the tracer epoch. */
struct Span
{
    std::string name;
    const char *category = "";
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t seq = 0; ///< per-ring record order (for stable sorts)
    /** Members of the exported `args` object (`"k":"v",...`), or "". */
    std::string args;
};

/** The process-wide span recorder. See file comment. */
class SpanTracer
{
  public:
    /** Spans kept per thread before the oldest is overwritten. */
    static constexpr std::size_t kRingCapacity = 1 << 16;

    static SpanTracer &global();

    /** Enabling (re)stamps the epoch; all span times are relative. */
    void setEnabled(bool on);

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Nanoseconds since the epoch set by setEnabled(true). */
    std::uint64_t nowNs() const;

    /** Record a completed span on the calling thread's ring; @p args
     *  as in Span::args. */
    void record(std::string name, const char *category,
                std::uint64_t start_ns, std::uint64_t end_ns,
                std::string args = {});

    /** Spans overwritten because a ring filled, over all rings. */
    std::uint64_t dropped() const;

    /**
     * Export every recorded span as Chrome trace_event JSON: B/E pairs
     * per thread lane, timestamps in microseconds, a span's args on its
     * B event. Spans recorded by a
     * thread nest properly (RAII), so the per-lane B/E stream is
     * well-formed.
     */
    std::string chromeTraceJson() const;

    /** Drop every recorded span (rings stay registered). */
    void clear();

  private:
    struct Ring
    {
        mutable std::mutex mutex;
        std::vector<Span> spans; ///< ring storage, capacity-bounded
        std::size_t next = 0;    ///< overwrite cursor once full
        std::uint64_t seq = 0;
        std::uint64_t drops = 0;
        int lane = 0; ///< stable tid for the export
    };

    Ring &ringForThisThread();

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex ringsMutex_;
    std::vector<std::unique_ptr<Ring>> rings_;
};

/**
 * RAII span: records [construction, destruction) on the calling
 * thread when tracing is enabled, does nothing (one branch, no clock
 * read) otherwise. @p name and @p category must outlive the scope
 * (string literals).
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *category)
        : name_(name), category_(category)
    {
        SpanTracer &tracer = SpanTracer::global();
        if (tracer.enabled()) {
            active_ = true;
            startNs_ = tracer.nowNs();
        }
    }

    ~ScopedSpan()
    {
        if (active_) {
            SpanTracer &tracer = SpanTracer::global();
            tracer.record(name_, category_, startNs_, tracer.nowNs(),
                          std::move(args_));
        }
    }

    /** True when this span records: build arguments only then. */
    bool active() const { return active_; }

    /** Attach string argument @p key = @p value to the exported span. */
    void arg(const char *key, const std::string &value);

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *name_;
    const char *category_;
    std::uint64_t startNs_ = 0;
    bool active_ = false;
    std::string args_;
};

} // namespace telemetry
} // namespace sst

#endif // SST_TELEMETRY_SPAN_HH
