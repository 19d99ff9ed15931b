/**
 * @file
 * Lock-cheap metrics registry: monotonic counters, gauges and
 * fixed-bucket histograms, exposed as Prometheus-style text
 * (`name{label="v"} value`).
 *
 * Design:
 *  - acquisition (`Registry::counter(...)`) takes a mutex once and
 *    returns a handle wrapping a raw pointer into registry-owned,
 *    address-stable storage; the hot path (inc/set/observe) is a single
 *    relaxed atomic op behind an inlined null check;
 *  - when the registry is disabled (the default outside `sst serve`)
 *    acquisition returns a null handle whose operations compile down
 *    to a predictable no-op branch — telemetry never costs a run that
 *    did not ask for it;
 *  - exposition is one flat walk over a std::map keyed by
 *    (family name, canonical label string), so the rendered text is
 *    deterministically ordered and golden-diffable;
 *  - telemetry is write-only for the simulation: nothing in sim/ or
 *    driver/ ever reads a metric back, so enabling it cannot perturb
 *    results (ctest's sst_equivalence_* entries diff the CSV of a
 *    served campaign, registry on, against `sst run`'s).
 */

#ifndef SST_TELEMETRY_METRICS_HH
#define SST_TELEMETRY_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sst {
namespace telemetry {

/** Metric labels as (name, value) pairs; sorted by name on lookup. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Monotonic counter. */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram: cumulative-style buckets with configured
 * upper bounds plus an implicit +Inf bucket. observe() is a linear
 * scan over the (few) bounds and two relaxed atomic adds; quantiles
 * are estimated from bucket counts at render time (the reported value
 * is the upper bound of the bucket containing the quantile).
 */
class Histogram
{
  public:
    /** @p bounds must be strictly ascending upper bounds. */
    explicit Histogram(std::vector<double> bounds);

    void observe(double v);

    std::uint64_t count() const;
    double sum() const;

    /** Upper bound of the bucket holding quantile @p q in [0,1]. */
    double quantile(double q) const;

    const std::vector<double> &bounds() const { return bounds_; }

    /** Count in bucket @p i (0..bounds().size(); last is +Inf). */
    std::uint64_t bucketCount(std::size_t i) const;

  private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/** No-op-when-null handle over a registry-owned counter. */
class CounterHandle
{
  public:
    CounterHandle() = default;
    explicit CounterHandle(Counter *c) : c_(c) {}

    void
    inc(std::uint64_t n = 1)
    {
        if (c_)
            c_->inc(n);
    }

    explicit operator bool() const { return c_ != nullptr; }

  private:
    Counter *c_ = nullptr;
};

/** No-op-when-null handle over a registry-owned gauge. */
class GaugeHandle
{
  public:
    GaugeHandle() = default;
    explicit GaugeHandle(Gauge *g) : g_(g) {}

    void
    set(double v)
    {
        if (g_)
            g_->set(v);
    }

    explicit operator bool() const { return g_ != nullptr; }

  private:
    Gauge *g_ = nullptr;
};

/** No-op-when-null handle over a registry-owned histogram. */
class HistogramHandle
{
  public:
    HistogramHandle() = default;
    explicit HistogramHandle(Histogram *h) : h_(h) {}

    void
    observe(double v)
    {
        if (h_)
            h_->observe(v);
    }

    explicit operator bool() const { return h_ != nullptr; }

  private:
    Histogram *h_ = nullptr;
};

/**
 * The process-wide metric registry. Disabled by default: every
 * acquisition returns a null handle until setEnabled(true). Metrics
 * live for the registry's lifetime (handles are never invalidated
 * except by reset(), which is test-only).
 */
class Registry
{
  public:
    static Registry &global();

    void setEnabled(bool on);
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    CounterHandle counter(const std::string &name,
                          const Labels &labels = {});
    GaugeHandle gauge(const std::string &name, const Labels &labels = {});

    /** @p bounds: ascending bucket upper bounds (+Inf is implicit). */
    HistogramHandle histogram(const std::string &name, const Labels &labels,
                              std::vector<double> bounds);

    /**
     * Render every registered metric as Prometheus-style text, ordered
     * by (family name, label string) — byte-stable across runs given
     * the same metric values. Histograms render `_bucket{le=...}`,
     * `_sum`, `_count` plus p50/p95/p99 `{quantile="..."}` lines.
     */
    std::string renderText() const;

    /** Drop every metric and disable. Test-only: invalidates handles. */
    void reset();

  private:
    enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

    struct Entry
    {
        Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    /** (family, canonical rendered label string) — the render order. */
    using Key = std::pair<std::string, std::string>;

    Entry &entryFor(const std::string &name, const Labels &labels,
                    Kind kind, const std::vector<double> *bounds);

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::map<Key, Entry> entries_;
};

/** Escape a label value: backslash, double quote and newline. */
std::string escapeLabelValue(const std::string &v);

/** Canonical `{a="x",b="y"}` rendering ("" when no labels). */
std::string renderLabels(const Labels &labels);

/** Stable shortest-ish decimal rendering used by the exposition. */
std::string formatMetricValue(double v);

} // namespace telemetry
} // namespace sst

#endif // SST_TELEMETRY_METRICS_HH
