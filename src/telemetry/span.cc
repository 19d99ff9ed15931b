#include "span.hh"

#include <algorithm>
#include <cstdio>

namespace sst {
namespace telemetry {

SpanTracer &
SpanTracer::global()
{
    static SpanTracer instance;
    return instance;
}

void
SpanTracer::setEnabled(bool on)
{
    if (on)
        epoch_ = std::chrono::steady_clock::now();
    enabled_.store(on, std::memory_order_relaxed);
}

std::uint64_t
SpanTracer::nowNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

SpanTracer::Ring &
SpanTracer::ringForThisThread()
{
    thread_local Ring *cached = nullptr;
    if (cached)
        return *cached;
    std::lock_guard<std::mutex> lock(ringsMutex_);
    rings_.push_back(std::make_unique<Ring>());
    Ring &ring = *rings_.back();
    ring.lane = static_cast<int>(rings_.size());
    ring.spans.reserve(256);
    cached = &ring;
    return ring;
}

void
SpanTracer::record(std::string name, const char *category,
                   std::uint64_t start_ns, std::uint64_t end_ns,
                   std::string args)
{
    Ring &ring = ringForThisThread();
    std::lock_guard<std::mutex> lock(ring.mutex);
    Span span;
    span.name = std::move(name);
    span.category = category;
    span.startNs = start_ns;
    span.endNs = end_ns;
    span.seq = ring.seq++;
    span.args = std::move(args);
    if (ring.spans.size() < kRingCapacity) {
        ring.spans.push_back(std::move(span));
    } else {
        ring.spans[ring.next] = std::move(span);
        ring.next = (ring.next + 1) % kRingCapacity;
        ++ring.drops;
    }
}

std::uint64_t
SpanTracer::dropped() const
{
    std::lock_guard<std::mutex> lock(ringsMutex_);
    std::uint64_t total = 0;
    for (const auto &ring : rings_) {
        std::lock_guard<std::mutex> ringLock(ring->mutex);
        total += ring->drops;
    }
    return total;
}

void
SpanTracer::clear()
{
    std::lock_guard<std::mutex> lock(ringsMutex_);
    for (auto &ring : rings_) {
        std::lock_guard<std::mutex> ringLock(ring->mutex);
        ring->spans.clear();
        ring->next = 0;
        ring->seq = 0;
        ring->drops = 0;
    }
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
microseconds(std::uint64_t ns)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    return buf;
}

void
appendEvent(std::string &out, bool &first, const Span &span, int lane,
            char phase)
{
    if (!first)
        out += ",\n";
    first = false;
    out += "{\"name\":\"" + jsonEscape(span.name) + "\",\"cat\":\"" +
           jsonEscape(span.category) + "\",\"ph\":\"";
    out += phase;
    out += "\",\"pid\":1,\"tid\":" + std::to_string(lane) +
           ",\"ts\":" +
           microseconds(phase == 'B' ? span.startNs : span.endNs);
    if (phase == 'B' && !span.args.empty())
        out += ",\"args\":{" + span.args + "}";
    out += "}";
}

} // namespace

void
ScopedSpan::arg(const char *key, const std::string &value)
{
    if (!args_.empty())
        args_ += ',';
    args_ += "\"" + jsonEscape(key) + "\":\"" + jsonEscape(value) + "\"";
}

std::string
SpanTracer::chromeTraceJson() const
{
    std::lock_guard<std::mutex> lock(ringsMutex_);
    std::string out = "{\"traceEvents\":[\n";
    bool first = true;
    for (const auto &ringPtr : rings_) {
        const Ring &ring = *ringPtr;
        std::lock_guard<std::mutex> ringLock(ring.mutex);
        std::vector<const Span *> spans;
        spans.reserve(ring.spans.size());
        for (const Span &span : ring.spans)
            spans.push_back(&span);
        // A thread records a span when its scope *closes*, so ring
        // order is end-time order. For B/E emission sort by start time
        // (ties: outermost — later end — first; then record order).
        std::sort(spans.begin(), spans.end(),
                  [](const Span *a, const Span *b) {
                      if (a->startNs != b->startNs)
                          return a->startNs < b->startNs;
                      if (a->endNs != b->endNs)
                          return a->endNs > b->endNs;
                      return a->seq > b->seq;
                  });
        // Emit B/E pairs with a scope stack: RAII guarantees spans on
        // one thread either nest or are disjoint, so closing every
        // stacked span that ends before the next one starts yields a
        // well-formed stream.
        std::vector<const Span *> stack;
        for (const Span *span : spans) {
            while (!stack.empty() &&
                   stack.back()->endNs <= span->startNs) {
                appendEvent(out, first, *stack.back(), ring.lane, 'E');
                stack.pop_back();
            }
            appendEvent(out, first, *span, ring.lane, 'B');
            stack.push_back(span);
        }
        while (!stack.empty()) {
            appendEvent(out, first, *stack.back(), ring.lane, 'E');
            stack.pop_back();
        }
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

} // namespace telemetry
} // namespace sst
