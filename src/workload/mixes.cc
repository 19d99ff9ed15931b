#include "workload_spec.hh"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

namespace sst {
namespace {

/** Stage profile of the synthetic ferret-style pipeline (Figure 7).
 *  Stages share one phase structure (they barrier-align every phase)
 *  but carry very different per-phase work, so the heavy rank stage
 *  paces the pipeline and the light stages wait — the stage-imbalance
 *  signature the paper observes for ferret. */
BenchmarkProfile
ferretStage(const char *stage, std::uint64_t iters, int compute, int mem,
            std::uint64_t priv_kb, std::uint64_t seed)
{
    BenchmarkProfile p;
    p.name = stage;
    p.suite = "pipeline";
    p.totalIters = iters;
    p.computePerIter = compute;
    p.memPerIter = mem;
    p.privateBytes = priv_kb * 1024;
    p.streamFrac = 0.5;
    p.sharedBytes = 128 * 1024;
    p.sharedFrac = 0.01;
    p.sharedHotFrac = 0.5;
    p.barrierPhases = 16; // equal across stages: they align every phase
    p.imbalanceSkew = 0.1;
    p.parOverheadFrac = 0.03;
    p.seed = seed;
    return p;
}

/** The four-stage ferret-style pipeline with @p per_stage threads per
 *  stage. The rank stage carries ~4x the work of the light stages. */
WorkloadSpec
ferretPipeline(const char *name, int per_stage)
{
    std::vector<WorkloadGroup> stages;
    stages.push_back(WorkloadGroup{
        ferretStage("ferret.segment", 6000, 160, 8, 32, 101), per_stage});
    stages.push_back(WorkloadGroup{
        ferretStage("ferret.extract", 8000, 220, 10, 48, 102), per_stage});
    stages.push_back(WorkloadGroup{
        ferretStage("ferret.rank", 20000, 320, 14, 96, 103), per_stage});
    stages.push_back(WorkloadGroup{
        ferretStage("ferret.output", 4000, 120, 6, 16, 104), per_stage});
    WorkloadSpec spec = WorkloadSpec::pipeline(std::move(stages));
    spec.name = name;
    return spec;
}

/** One Figure 8 two-program mix: the benchmark co-running with a
 *  cache-hungry canneal partner, 8 threads each on a 16-core machine. */
WorkloadSpec
fig08Mix(const std::string &name, const char *bench, const char *partner)
{
    WorkloadSpec spec = WorkloadSpec::mix(
        {WorkloadGroup{profileByLabel(bench), 8},
         WorkloadGroup{profileByLabel(partner), 8}});
    spec.name = name;
    return spec;
}

} // namespace

const NamedRegistry<WorkloadSpec> &
mixRegistry()
{
    static const NamedRegistry<WorkloadSpec> registry = [] {
        NamedRegistry<WorkloadSpec> r("workload mix", "workload mixes");
        // The Figure 8 co-run study: every benchmark with a visible
        // positive-interference component paired against a
        // cache-hungry canneal instance (canneal itself gets the other
        // input as its partner).
        const char *fig08[] = {"cholesky",       "lu.cont",
                               "canneal_small",  "canneal_medium",
                               "bfs",            "lu.ncont",
                               "needle"};
        for (const char *bench : fig08) {
            const char *partner = std::string(bench) == "canneal_small"
                                      ? "canneal_medium"
                                      : "canneal_small";
            const std::string name = std::string("fig08_") + bench;
            r.add(name, fig08Mix(name, bench, partner));
        }
        // Ferret-style pipelines (Figure 7): 4 stages x 1 thread and
        // 4 stages x 4 threads.
        r.add("ferret4", ferretPipeline("ferret4", 1));
        r.add("ferret16", ferretPipeline("ferret16", 4));
        return r;
    }();
    return registry;
}

namespace {

/** Strip all whitespace (inline descriptors allow "a:8 + b:8"). */
std::string
stripSpaces(const std::string &text)
{
    std::string out;
    for (const char c : text)
        if (!std::isspace(static_cast<unsigned char>(c)))
            out += c;
    return out;
}

/** Parse the strictly positive thread count of an inline item. */
int
parseGroupCount(const std::string &item, const std::string &digits)
{
    if (digits.empty())
        throw std::invalid_argument("workload item '" + item +
                                    "' has an empty thread count");
    for (const char c : digits)
        if (c < '0' || c > '9')
            throw std::invalid_argument("workload item '" + item +
                                        "': bad thread count '" +
                                        digits + "'");
    const long v = std::strtol(digits.c_str(), nullptr, 10);
    if (v < 1 || v > 4096)
        throw std::invalid_argument("workload item '" + item +
                                    "': thread count out of range");
    return static_cast<int>(v);
}

} // namespace

WorkloadSpec
parseWorkload(const std::string &text)
{
    const std::string cleaned = stripSpaces(text);
    if (cleaned.empty())
        throw std::invalid_argument("empty workload descriptor");
    if (const WorkloadSpec *named = mixRegistry().find(cleaned))
        return *named;

    const bool has_pipe = cleaned.find('>') != std::string::npos;
    const bool has_plus = cleaned.find('+') != std::string::npos;
    if (has_pipe && has_plus) {
        throw std::invalid_argument(
            "workload '" + cleaned + "' mixes '+' (mix) and '>' "
            "(pipeline) separators; pick one");
    }
    if (!has_pipe && !has_plus && cleaned.find(':') == std::string::npos) {
        // A bare name that is not a registered mix: the registry
        // generates the valid-label list.
        mixRegistry().at(cleaned); // throws
    }

    // Inline form: label[:count] items.
    const char sep = has_pipe ? '>' : '+';
    std::vector<std::string> items;
    std::string cur;
    for (const char c : cleaned) {
        if (c == sep) {
            items.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    items.push_back(cur);

    std::vector<WorkloadGroup> groups;
    int with_count = 0;
    bool last_has_count = false;
    for (const std::string &item : items) {
        if (item.empty())
            throw std::invalid_argument("workload '" + cleaned +
                                        "' has an empty group entry");
        const std::size_t colon = item.find(':');
        const std::string label =
            colon == std::string::npos ? item : item.substr(0, colon);
        WorkloadGroup group;
        group.profile = *profileRegistry().at(label); // throws, lists
        if (colon != std::string::npos) {
            group.nthreads =
                parseGroupCount(item, item.substr(colon + 1));
            ++with_count;
            last_has_count = &item == &items.back();
        }
        groups.push_back(std::move(group));
    }
    // Count rules: all groups counted, none (1 thread each), or only
    // the final one (its count broadcasts: "a+b:8" = 8 threads each).
    if (with_count == 1 && last_has_count && groups.size() > 1) {
        for (WorkloadGroup &g : groups)
            g.nthreads = groups.back().nthreads;
    } else if (with_count != 0 &&
               with_count != static_cast<int>(groups.size())) {
        throw std::invalid_argument(
            "workload '" + cleaned + "': give every group its own "
            ":count, none, or only a final broadcast count");
    }

    WorkloadSpec spec = has_pipe ? WorkloadSpec::pipeline(std::move(groups))
                                 : WorkloadSpec::mix(std::move(groups));
    spec.validate();
    return spec;
}

std::string
canonicalWorkloadText(const std::string &text)
{
    const std::string cleaned = stripSpaces(text);
    if (mixRegistry().find(cleaned))
        return cleaned; // registry names are already canonical
    return parseWorkload(cleaned).descriptor();
}

} // namespace sst
