/**
 * @file
 * Tests of the telemetry subsystem: registry exposition (golden text,
 * deterministic ordering, label canonicalisation and escaping), exact
 * concurrent counter sums, histogram quantile estimation, Chrome
 * trace_event export well-formedness, and the contract that telemetry
 * never changes simulation results (on/off CSVs are byte-identical).
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "driver/driver.hh"
#include "driver/fingerprint.hh"
#include "driver/sweep.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "tests/test_util.hh"

namespace sst {
namespace telemetry {
namespace {

// ---- registry exposition ---------------------------------------------------

TEST(Metrics, DisabledRegistryHandsOutNullHandles)
{
    Registry r;
    ASSERT_FALSE(r.enabled());
    CounterHandle c = r.counter("sst_x_total");
    GaugeHandle g = r.gauge("sst_x");
    HistogramHandle h = r.histogram("sst_x_seconds", {}, {1.0});
    EXPECT_FALSE(static_cast<bool>(c));
    EXPECT_FALSE(static_cast<bool>(g));
    EXPECT_FALSE(static_cast<bool>(h));
    c.inc();
    g.set(1.0);
    h.observe(1.0); // all no-ops, and nothing registers
    EXPECT_EQ(r.renderText(), "");
}

TEST(Metrics, ExpositionGolden)
{
    Registry r;
    r.setEnabled(true);
    r.counter("sst_jobs_total", {{"status", "ok"}}).inc(3);
    r.counter("sst_jobs_total", {{"status", "failed"}}).inc();
    r.gauge("sst_queue_depth").set(2.5);
    HistogramHandle h =
        r.histogram("sst_latency_seconds", {}, {0.5, 2.0, 8.0});
    // One observation per bucket incl. +Inf; the sum 21.25 is exactly
    // representable so the golden text is byte-stable.
    h.observe(0.25);
    h.observe(1.0);
    h.observe(4.0);
    h.observe(16.0);

    const std::string expected =
        "# TYPE sst_jobs_total counter\n"
        "sst_jobs_total{status=\"failed\"} 1\n"
        "sst_jobs_total{status=\"ok\"} 3\n"
        "# TYPE sst_latency_seconds histogram\n"
        "sst_latency_seconds_bucket{le=\"0.5\"} 1\n"
        "sst_latency_seconds_bucket{le=\"2\"} 2\n"
        "sst_latency_seconds_bucket{le=\"8\"} 3\n"
        "sst_latency_seconds_bucket{le=\"+Inf\"} 4\n"
        "sst_latency_seconds_sum 21.25\n"
        "sst_latency_seconds_count 4\n"
        "sst_latency_seconds{quantile=\"0.5\"} 2\n"
        "sst_latency_seconds{quantile=\"0.95\"} 8\n"
        "sst_latency_seconds{quantile=\"0.99\"} 8\n"
        "# TYPE sst_queue_depth gauge\n"
        "sst_queue_depth 2.5\n";
    EXPECT_EQ(r.renderText(), expected);
    // Rendering is a pure read: a second walk is byte-identical.
    EXPECT_EQ(r.renderText(), expected);
}

TEST(Metrics, LabelsAreCanonicalisedAndEscaped)
{
    Registry r;
    r.setEnabled(true);
    // Insertion order must not matter: labels sort by name.
    r.counter("sst_m_total", {{"b", "2"}, {"a", "1"}}).inc();
    r.counter("sst_m_total", {{"a", "1"}, {"b", "2"}}).inc();
    r.counter("sst_esc_total", {{"path", "a\\b\"c\nd"}}).inc();

    const std::string text = r.renderText();
    // Same canonical key -> one series with both increments.
    EXPECT_NE(text.find("sst_m_total{a=\"1\",b=\"2\"} 2\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("sst_esc_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
        std::string::npos);
}

TEST(Metrics, ConcurrentIncrementsSumExactly)
{
    Registry r;
    r.setEnabled(true);
    constexpr int kThreads = 8;
    constexpr std::uint64_t kIncsPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&r] {
            // Each thread acquires its own handle to the same series.
            CounterHandle c = r.counter("sst_concurrent_total");
            for (std::uint64_t i = 0; i < kIncsPerThread; ++i)
                c.inc();
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_NE(r.renderText().find("sst_concurrent_total 160000\n"),
              std::string::npos);
}

TEST(Metrics, HistogramQuantilesFromBucketCounts)
{
    Histogram h({0.001, 0.01, 0.1, 1.0});
    for (int i = 0; i < 90; ++i)
        h.observe(0.0005); // first bucket
    for (int i = 0; i < 9; ++i)
        h.observe(0.05); // third bucket
    h.observe(0.5); // fourth bucket
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.bucketCount(0), 90u);
    EXPECT_EQ(h.bucketCount(2), 9u);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.001);
    EXPECT_DOUBLE_EQ(h.quantile(0.95), 0.1);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.1);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);
}

// ---- span tracer / Chrome trace export -------------------------------------

/**
 * Minimal trace_event validator: walks the exported JSON line by line
 * (one event per line by construction), checks every event carries the
 * expected fields, and simulates a per-lane span stack — every E must
 * close the most recent open B of the same name, and every lane must
 * end balanced.
 */
void
validateChromeTrace(const std::string &json, std::size_t expected_events)
{
    ASSERT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
    ASSERT_NE(json.find("],\"displayTimeUnit\":\"ms\"}"),
              std::string::npos);

    std::istringstream in(json);
    std::string line;
    ASSERT_TRUE(std::getline(in, line)); // {"traceEvents":[
    std::map<std::string, std::vector<std::string>> stacks; // tid->names
    std::size_t events = 0;
    while (std::getline(in, line) && line != "]," &&
           line.rfind("],\"displayTimeUnit\"", 0) != 0) {
        if (line.empty())
            continue; // an empty export is "[\n\n]"
        if (line.back() == ',')
            line.pop_back();
        ASSERT_EQ(line.rfind("{\"name\":\"", 0), 0u) << line;
        ASSERT_EQ(line.back(), '}') << line;
        auto field = [&line](const std::string &key) {
            const std::size_t pos = line.find(key);
            EXPECT_NE(pos, std::string::npos) << line;
            const std::size_t start = pos + key.size();
            return line.substr(start,
                               line.find_first_of("\",}", start) - start);
        };
        const std::string name = field("\"name\":\"");
        const std::string ph = field("\"ph\":\"");
        const std::string tid = field("\"tid\":");
        ASSERT_FALSE(field("\"ts\":").empty()) << line;
        if (ph == "B") {
            stacks[tid].push_back(name);
        } else {
            ASSERT_EQ(ph, "E") << line;
            ASSERT_FALSE(stacks[tid].empty()) << line;
            EXPECT_EQ(stacks[tid].back(), name) << line;
            stacks[tid].pop_back();
        }
        ++events;
    }
    for (const auto &kv : stacks)
        EXPECT_TRUE(kv.second.empty())
            << "lane " << kv.first << " ended with an open span";
    EXPECT_EQ(events, expected_events);
}

TEST(SpanTrace, ChromeExportHasMatchedNestedPairs)
{
    SpanTracer &tracer = SpanTracer::global();
    tracer.setEnabled(true);
    tracer.clear();

    // Recorded in scope-close order, as RAII would: inner before outer.
    tracer.record("inner", "test", 200, 1000);
    tracer.record("outer", "test", 100, 4000);
    tracer.record("later", "test", 5000, 6000);
    std::thread other(
        [&tracer] { tracer.record("other-lane", "test", 0, 50); });
    other.join();
    tracer.setEnabled(false);

    const std::string json = tracer.chromeTraceJson();
    // 4 spans -> 8 events, B/E per span.
    validateChromeTrace(json, 8u);
    // The nested pair must open outer before inner.
    EXPECT_LT(json.find("\"name\":\"outer\",\"cat\":\"test\",\"ph\":\"B\""),
              json.find("\"name\":\"inner\",\"cat\":\"test\",\"ph\":\"B\""));
    EXPECT_EQ(tracer.dropped(), 0u);

    tracer.clear();
    validateChromeTrace(tracer.chromeTraceJson(), 0u);
}

TEST(SpanTrace, ScopedSpanRecordsOnlyWhenEnabled)
{
    SpanTracer &tracer = SpanTracer::global();
    tracer.setEnabled(false);
    tracer.clear();
    {
        ScopedSpan off("disabled-span", "test");
    }
    EXPECT_EQ(tracer.chromeTraceJson().find("disabled-span"),
              std::string::npos);

    tracer.setEnabled(true);
    {
        ScopedSpan outer("scoped-outer", "test");
        ScopedSpan inner("scoped-inner", "test");
    }
    tracer.setEnabled(false);
    const std::string json = tracer.chromeTraceJson();
    validateChromeTrace(json, 4u);
    EXPECT_NE(json.find("scoped-outer"), std::string::npos);
    EXPECT_NE(json.find("scoped-inner"), std::string::npos);
    tracer.clear();
}

TEST(SpanTrace, JobSpansNameTheirJob)
{
    const JobSpec job = JobSpec::forProfile(test::computeOnlyProfile(), 2);
    SpanTracer &tracer = SpanTracer::global();
    tracer.setEnabled(true);
    tracer.clear();
    runExperimentBatch({job}, DriverOptions{});
    {
        ScopedSpan quoted("quoted", "test");
        if (quoted.active())
            quoted.arg("label", "a \"b\"");
    }
    tracer.setEnabled(false);
    const std::string json = tracer.chromeTraceJson();
    tracer.clear();

    // The experiment, its baseline, and escaped text on the B event.
    const std::string label = job.label();
    EXPECT_NE(json.find("\"args\":{\"label\":\"" + label +
                        " 2t 2c\",\"fingerprint\":\"" +
                        fingerprintJob(job).hex() + "\"}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"args\":{\"label\":\"" + label + " baseline 0\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"args\":{\"label\":\"a \\\"b\\\"\"}"),
              std::string::npos)
        << json;
}

// ---- determinism: telemetry is write-only ----------------------------------

TEST(TelemetryDeterminism, BatchResultsAreByteIdenticalOnOrOff)
{
    const std::vector<JobSpec> jobs = {
        JobSpec::forProfile(test::computeOnlyProfile(), 2),
        JobSpec::forProfile(test::lockHeavyProfile(), 4),
        JobSpec::forProfile(test::barrierHeavyProfile(), 2)};
    DriverOptions opts;
    opts.jobs = 2;

    Registry::global().reset();
    SpanTracer::global().setEnabled(false);
    const std::vector<JobResult> off = runExperimentBatch(jobs, opts);

    Registry::global().setEnabled(true);
    SpanTracer::global().setEnabled(true);
    const std::vector<JobResult> on = runExperimentBatch(jobs, opts);
    SpanTracer::global().setEnabled(false);
    SpanTracer::global().clear();

    // The instrumented run must actually have recorded something...
    EXPECT_NE(Registry::global().renderText().find(
                  "sst_driver_jobs_total{status=\"ok\"} 3"),
              std::string::npos)
        << Registry::global().renderText();
    Registry::global().reset();

    // ...and still produce byte-identical exported results.
    EXPECT_EQ(sweepCsv(jobs, off), sweepCsv(jobs, on));
    EXPECT_EQ(sweepJson(jobs, off), sweepJson(jobs, on));
}

} // namespace
} // namespace telemetry
} // namespace sst
