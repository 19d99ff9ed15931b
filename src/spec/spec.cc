#include "spec.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/machine_keys.hh"
#include "util/parse.hh"
#include "wdl/wdl.hh"
#include "workload/workload_spec.hh"

namespace sst {
namespace {

constexpr const char *kMachinePrefix = "machine.";

/** Top-level spec keys, in canonical serialization order. */
constexpr const char *kTopKeys[] = {
    "profiles", "workload",  "workload-file", "pipeline", "threads",
    "cores",    "llc",       "seed-offset",   "frontend", "trace-dir",
    "sched",    "sched-seed", "output.csv",   "output.json",
    "output.quiet", "output.report",
};

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
itemText(const std::string &label)
{
    return label;
}

std::string
itemText(int count)
{
    return std::to_string(count);
}

/** @p items joined with ", ", each in its spec-value form. */
template <class Items>
std::string
joined(const Items &items)
{
    std::string out;
    for (const auto &x : items)
        out += (out.empty() ? "" : ", ") + itemText(x);
    return out;
}

/**
 * Split a comma-separated path list. Unlike parseLabelList this only
 * trims the ends of each element — paths may legitimately contain
 * interior spaces — and rejects empty elements.
 */
std::vector<std::string>
splitPaths(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? text.size() : comma;
        const std::string item = trim(text.substr(start, end - start));
        if (item.empty())
            throw std::invalid_argument(
                "empty path in list '" + text + "'");
        out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/** The key whose axis `llc =` sets. */
const MachineKey *
llcBytes()
{
    static const MachineKey *const key = findMachineKey("llc-bytes");
    return key;
}

/** @p key's axis in @p spec as spec text (`1, 8`); "" when unswept. */
std::string
axisText(const ExperimentSpec &spec, const MachineKey *key)
{
    std::string out;
    const auto axis = spec.machineAxes.find(key);
    if (axis != spec.machineAxes.end())
        for (const std::uint64_t v : axis->second)
            out += (out.empty() ? "" : ", ") + machineValueText(*key, v);
    return out;
}

} // namespace

const NamedRegistry<OpSourceFrontend> &
opSourceRegistry()
{
    static const NamedRegistry<OpSourceFrontend> registry = [] {
        NamedRegistry<OpSourceFrontend> r("workload frontend",
                                          "workload frontends");
        r.add("program",
              OpSourceFrontend{
                  "synthetic generator: op streams built live from the "
                  "benchmark profile (ThreadProgram)",
                  false});
        r.add("trace",
              OpSourceFrontend{
                  "require trace-dir: replay the jobs recorded there "
                  "(by --record-dir), run the rest live; trace-dir "
                  "replays like this under every frontend",
                  true});
        r.add("pipeline",
              OpSourceFrontend{
                  "synthetic pipeline generator: heterogeneous stage "
                  "profiles co-scheduled with shared phase barriers "
                  "(select stages via `workload = <pipeline>`)",
                  false});
        r.add("workload-file",
              OpSourceFrontend{
                  "compile .wdl workload description files into op "
                  "streams (select files via `workload-file = "
                  "PATH[, PATH]`)",
                  false});
        return r;
    }();
    return registry;
}

void
requireSpecKey(const std::string &key)
{
    const std::size_t prefix = std::string(kMachinePrefix).size();
    if (key.compare(0, prefix, kMachinePrefix) == 0) {
        if (!findMachineKey(key.substr(prefix)))
            throw std::invalid_argument("unknown machine key '" + key +
                                        "'; valid machine keys: " +
                                        machineKeyNamesJoined());
    } else if (key != "workload_file" &&
               std::find(std::begin(kTopKeys), std::end(kTopKeys), key) ==
                   std::end(kTopKeys)) {
        throw std::invalid_argument("unknown spec key '" + key +
                                    "'; valid keys: " +
                                    specKeyNamesJoined());
    }
}

void
applySpecValue(ExperimentSpec &spec, const std::string &key,
               const std::string &value)
{
    requireSpecKey(key);
    if (key == "profiles") {
        if (value == "all" || value.empty())
            spec.profiles.clear();
        else
            spec.profiles = parseLabelList(value);
    } else if (key == "workload") {
        if (!spec.workloadFiles.empty() && !value.empty()) {
            throw std::invalid_argument(
                "`workload =` cannot be combined with "
                "`workload-file =`; a .wdl file declares its own "
                "groups");
        }
        spec.workloads.clear();
        if (!value.empty()) {
            for (const std::string &item : parseLabelList(value))
                spec.workloads.push_back(canonicalWorkloadText(item));
        }
    } else if (key == "workload-file" || key == "workload_file") {
        // Sugar like `pipeline =`: selecting .wdl scenario files also
        // selects the workload-file frontend, so one line runs a
        // user-authored workload. Serialization emits the expanded
        // workload-file/frontend keys (canonical form is a fixed
        // point). Combining with the other workload axes would
        // silently drop one of them — reject instead.
        if (!spec.workloads.empty() && !value.empty()) {
            throw std::invalid_argument(
                "`workload-file =` cannot be combined with "
                "`workload =`; a .wdl file declares its own groups");
        }
        spec.workloadFiles.clear();
        if (!value.empty()) {
            spec.workloadFiles = splitPaths(value);
            spec.frontend = "workload-file";
        }
    } else if (key == "pipeline") {
        // Sugar: select a registered pipeline and its frontend in one
        // line. Serialization emits the expanded workload/frontend
        // keys, so the canonical form stays a fixed point. Because the
        // key assigns two fields, combining it with `workload =` would
        // silently drop one of them — reject instead.
        if (!spec.workloads.empty()) {
            throw std::invalid_argument(
                "`pipeline =` cannot be combined with `workload =`; "
                "list pipelines in `workload =` with `frontend = "
                "pipeline` instead");
        }
        if (!spec.workloadFiles.empty()) {
            throw std::invalid_argument(
                "`pipeline =` cannot be combined with "
                "`workload-file =`");
        }
        const std::string canon = canonicalWorkloadText(value);
        if (parseWorkload(canon).role != WorkloadRole::kPipeline) {
            throw std::invalid_argument(
                "'" + value + "' is not a pipeline workload (use "
                "`workload =` for mixes)");
        }
        spec.workloads = {canon};
        spec.frontend = "pipeline";
    } else if (key == "threads") {
        // 0 is a count; the driver's job validation names the bound.
        spec.threads = value.empty() ? std::vector<int>{}
                                     : parseIntList(value, 0);
    } else if (key == "cores") {
        spec.cores = value.empty() ? std::vector<int>{}
                                   : parseIntList(value);
    } else if (key == "llc") {
        spec.machineAxes.erase(llcBytes());
        if (!value.empty())
            spec.machineAxes[llcBytes()] =
                parseMachineValues(*llcBytes(), value);
    } else if (key == "seed-offset") {
        spec.seedOffset = parseU64Text("seed-offset", value);
    } else if (key == "frontend") {
        opSourceRegistry().at(value); // throws listing valid frontends
        spec.frontend = value;
    } else if (key == "trace-dir") {
        spec.traceDir = value;
    } else if (key == "sched") {
        spec.machine.schedPolicy = schedulerRegistry().at(value);
    } else if (key == "sched-seed") {
        spec.machine.schedSeed = parseU64Text("sched-seed", value);
    } else if (key == "output.csv") {
        spec.csvPath = value;
    } else if (key == "output.json") {
        spec.jsonPath = value;
    } else if (key == "output.quiet") {
        spec.quiet = parseBoolText("output.quiet", value);
    } else if (key == "output.report") {
        reportRegistry().at(value); // throws listing valid views
        spec.report = value;
    } else { // a machine key: requireSpecKey() found it
        const MachineKey *k =
            findMachineKey(key.substr(std::string(kMachinePrefix).size()));
        std::vector<std::uint64_t> values = parseMachineValues(*k, value);
        if (values.size() > 1) {
            spec.machineAxes[k] = std::move(values);
        } else {
            k->set(spec.machine, values[0]);
            if (k != llcBytes())
                spec.machineAxes.erase(k);
        }
    }
}

std::string
specKeyNamesJoined()
{
    return joined(kTopKeys) + ", " + machineKeyNamesJoined();
}

ExperimentSpec
parseSpec(const std::string &text)
{
    ExperimentSpec spec;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        // '#' starts a comment only at line start or after whitespace,
        // so values like `output.csv = run#1.csv` survive intact.
        for (std::size_t i = 0; i < line.size(); ++i) {
            if (line[i] == '#' &&
                (i == 0 || std::isspace(static_cast<unsigned char>(
                               line[i - 1])))) {
                line.erase(i);
                break;
            }
        }
        line = trim(line);
        if (line.empty())
            continue;
        // Diagnostics carry the line number AND the offending line
        // (matching the WDL compiler's file:line + near-token style),
        // so a bad key in a 50-line spec is found without counting.
        const auto fail = [&](const std::string &msg) {
            throw std::invalid_argument("line " + std::to_string(lineno) +
                                        ": " + msg + " (near '" + line +
                                        "')");
        };
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            fail("expected 'key = value'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            fail("empty key");
        try {
            applySpecValue(spec, key, value);
        } catch (const std::invalid_argument &e) {
            fail(e.what());
        }
    }
    return spec;
}

ExperimentSpec
parseSpecFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::invalid_argument("cannot read spec file " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    ExperimentSpec spec;
    try {
        spec = parseSpec(buf.str());
    } catch (const std::invalid_argument &e) {
        throw std::invalid_argument(path + ": " + e.what());
    }
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(path).parent_path();
    const auto resolve = [&dir](std::string &value) {
        if (!dir.empty() && !value.empty() && fs::path(value).is_relative())
            value = (dir / value).lexically_normal().string();
    };
    for (std::string &file : spec.workloadFiles)
        resolve(file);
    resolve(spec.traceDir);
    return spec;
}

std::string
serializeSpec(const ExperimentSpec &spec)
{
    std::string out = "# sst experiment spec (canonical form)\n";
    auto put = [&out](const std::string &key, const std::string &value) {
        // Refuse to emit text that would re-parse differently: a '#'
        // at value start or after whitespace reads back as a comment,
        // and an embedded newline would split the line. Throwing here
        // keeps parse(serialize(s)) == s exact for every serializable
        // spec instead of silently corrupting the round trip.
        for (std::size_t i = 0; i < value.size(); ++i) {
            const bool comment_start =
                value[i] == '#' &&
                (i == 0 || std::isspace(static_cast<unsigned char>(
                               value[i - 1])));
            if (comment_start || value[i] == '\n') {
                throw std::invalid_argument(
                    "cannot serialize " + key +
                    " value '" + value +
                    "': it would re-parse as a comment or line break");
            }
        }
        out += key;
        out += value.empty() ? " =" : " = ";
        out += value;
        out += '\n';
    };
    put("profiles",
        spec.profiles.empty() ? "all" : joined(spec.profiles));
    put("workload", joined(spec.workloads));
    put("workload-file", joined(spec.workloadFiles));
    put("threads", joined(spec.threads));
    put("cores", joined(spec.cores));
    put("llc", axisText(spec, llcBytes()));
    put("seed-offset", std::to_string(spec.seedOffset));
    put("frontend", spec.frontend);
    put("trace-dir", spec.traceDir);
    put("sched", schedPolicyLabel(spec.machine.schedPolicy));
    put("sched-seed", std::to_string(spec.machine.schedSeed));
    // A job fingerprint's machine section (encodeMachineParams), with
    // a swept key's values in place of its setting.
    for (const MachineKey &k : machineKeys())
        put(kMachinePrefix + std::string(k.name),
            &k == llcBytes() || !spec.machineAxes.count(&k)
                ? machineValueText(k, k.get(spec.machine))
                : axisText(spec, &k));
    put("output.csv", spec.csvPath);
    put("output.json", spec.jsonPath);
    put("output.quiet", spec.quiet ? "true" : "false");
    put("output.report", spec.report);
    return out;
}

bool
operator==(const ExperimentSpec &a, const ExperimentSpec &b)
{
    return serializeSpec(a) == serializeSpec(b);
}

bool
operator!=(const ExperimentSpec &a, const ExperimentSpec &b)
{
    return !(a == b);
}

void
validateSpec(const ExperimentSpec &spec)
{
    if (opSourceRegistry().at(spec.frontend).needsTraceDir &&
        spec.traceDir.empty())
        throw std::invalid_argument("frontend '" + spec.frontend +
                                    "' replays recordings: trace-dir "
                                    "must be set");
    if (!spec.traceDir.empty() && !spec.cores.empty())
        throw std::invalid_argument(
            "trace-dir cannot drive a cores axis: recordings embed the "
            "schedule of a #cores == #threads run, so oversubscribed "
            "jobs would silently regenerate live instead of replaying");
    if (!spec.workloads.empty() && !spec.profiles.empty()) {
        throw std::invalid_argument(
            "workload and profiles are exclusive axes (a workload "
            "names its own profiles)");
    }
    if (!spec.workloadFiles.empty() &&
        (!spec.profiles.empty() || !spec.workloads.empty())) {
        throw std::invalid_argument(
            "workload-file is exclusive with the profiles and workload "
            "axes (a .wdl file declares its own groups)");
    }
    if (!spec.workloadFiles.empty() && spec.frontend != "workload-file")
        throw std::invalid_argument(
            "workload-file paths are set but frontend '" + spec.frontend +
            "' does not compile them (use `frontend = workload-file`)");
    if (spec.frontend == "workload-file" && spec.workloadFiles.empty())
        throw std::invalid_argument(
            "frontend 'workload-file' needs `workload-file = "
            "<path.wdl>[, <path.wdl>...]`");
    if ((!spec.workloads.empty() || !spec.workloadFiles.empty()) &&
        !(spec.threads.size() == 1 && spec.threads[0] == 16)) {
        // The default threads value {16} is indistinguishable from an
        // explicit `threads = 16`, which is harmless either way; any
        // other value would be silently ignored — reject it.
        throw std::invalid_argument(
            "the threads axis does not apply to workloads (each "
            "workload carries its own thread counts); drop `threads =`");
    }
    // Resolve every workload now (registry mixes, inline labels), so a
    // typo fails with the registry's message before any job runs. The
    // pipeline frontend promises pipelines only; the workload's own role
    // decides how it runs, so `program` takes pipelines and mixes alike.
    const bool pipeline_frontend = spec.frontend == "pipeline";
    for (const std::string &text : spec.workloads) {
        const WorkloadRole role = parseWorkload(text).role; // throws
        if (pipeline_frontend && role != WorkloadRole::kPipeline)
            throw std::invalid_argument(
                "frontend 'pipeline' selected but workload '" + text +
                "' is not a pipeline");
    }
    if (pipeline_frontend && spec.workloads.empty())
        throw std::invalid_argument(
            "frontend 'pipeline' needs `workload = <pipeline>` "
            "(e.g. one of: " + mixRegistry().namesJoined() + ")");
    if (spec.workloads.empty() && spec.workloadFiles.empty() &&
        spec.threads.empty())
        throw std::invalid_argument("spec selects no thread counts");
    if (spec.machine.schedSeed != 0 &&
        spec.machine.schedPolicy != SchedPolicy::kRandom) {
        throw std::invalid_argument(
            "sched-seed only affects `sched = random`; the seed would "
            "be silently ignored");
    }
    // Resolve every label now so a typo fails with the registry's
    // message before any job runs.
    for (const std::string &label : spec.profiles)
        profileRegistry().at(label); // throws, listing valid names
    const ReportView &view = reportRegistry().at(spec.report);
    const auto &axes = spec.machineAxes;
    const std::string axis =
        !spec.workloads.empty()       ? "workload"
        : !spec.workloadFiles.empty() ? "workload-file"
        : !spec.cores.empty()         ? "cores"
        : axes.empty()                ? ""
                                      : axisName(*axes.begin()->first);
    if (view.rowPerProfile && !axis.empty())
        throw std::invalid_argument(
            "report '" + spec.report + "' lays out one row per benchmark "
            "of the profiles axis; it cannot lay out the " + axis +
            " axis (use `output.report = table`)");
    if (view.oneThreadCount && spec.threads.size() != 1)
        throw std::invalid_argument(
            "report '" + spec.report + "' lays out one thread count; the "
            "threads axis has " + std::to_string(spec.threads.size()));
}

ExperimentSpec
specGrid(const ExperimentSpec &spec)
{
    validateSpec(spec);
    return spec;
}

std::vector<JobSpec>
expandGrid(const ExperimentSpec &spec)
{
    // The workload axes are exclusive (validateSpec), so at most one of
    // these loops adds anything; thread counts live inside a workload.
    std::vector<WorkloadSpec> workloads;
    for (const std::string &path : spec.workloadFiles)
        workloads.push_back(wdl::loadWorkloadFile(path)); // throws
    for (const std::string &text : spec.workloads)
        workloads.push_back(parseWorkload(text));
    if (workloads.empty()) {
        const std::vector<std::string> &labels =
            spec.profiles.empty() ? profileRegistry().names()
                                  : spec.profiles;
        for (const std::string &label : labels) {
            const BenchmarkProfile &profile = *profileRegistry().at(label);
            for (const int nthreads : spec.threads)
                workloads.push_back(
                    WorkloadSpec::homogeneous(profile, nthreads));
        }
    }

    std::size_t npoints = 1;
    for (const auto &axis : spec.machineAxes)
        npoints *= axis.second.size();
    const std::size_t ncores = spec.cores.empty() ? 1 : spec.cores.size();
    std::vector<JobSpec> jobs;
    jobs.reserve(workloads.size() * npoints * ncores);
    for (const WorkloadSpec &workload : workloads) {
        for (std::size_t point = 0; point < npoints; ++point) {
            // The last axis varies fastest.
            SimParams params = spec.machine;
            std::size_t rest = point;
            for (auto a = spec.machineAxes.rbegin();
                 a != spec.machineAxes.rend(); ++a) {
                a->first->set(params, a->second[rest % a->second.size()]);
                rest /= a->second.size();
            }
            for (std::size_t c = 0; c < ncores; ++c) {
                JobSpec job;
                job.workload = workload;
                if (!spec.cores.empty())
                    job.ncores = spec.cores[c];
                job.params = params;
                job.seedOffset = spec.seedOffset;
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

std::string
axisName(const MachineKey &key)
{
    return &key == llcBytes() ? "llc" : kMachinePrefix + std::string(key.name);
}

ExperimentSpec
specForJob(const JobSpec &job)
{
    ExperimentSpec spec;
    const WorkloadSpec &w = job.workload;
    if (w.wdlProgram) {
        // WDL workloads serialize by source path: the leased worker
        // re-compiles the file, and the fingerprint (which hashes the
        // compiled IR, not the path) proves it reconstructed the
        // identical workload. A programmatically built WorkloadSpec
        // with no source path cannot be leased as a spec.
        if (w.wdlPath.empty())
            throw std::invalid_argument(
                "cannot serialize a WDL workload with no source path");
        spec.workloadFiles = {w.wdlPath};
        spec.frontend = "workload-file";
    } else if (w.isHomogeneous() && w.name.empty()) {
        spec.profiles = {w.groups[0].profile.label()};
        spec.threads = {w.groups[0].nthreads};
    } else {
        // Registry name when set, canonical inline descriptor
        // otherwise; either way canonicalWorkloadText() resolves it
        // through the registries (throwing on unknown labels) so the
        // receiving side reconstructs the identical workload. The
        // threads axis stays at its default — workloads carry their own
        // thread counts and validateSpec rejects anything else.
        spec.workloads = {canonicalWorkloadText(
            w.name.empty() ? w.descriptor() : w.name)};
        spec.frontend = w.role == WorkloadRole::kPipeline ? "pipeline"
                                                          : "program";
    }
    if (job.ncores > 0)
        spec.cores = {job.ncores};
    spec.seedOffset = job.seedOffset;
    spec.machine = job.params;
    // Deterministic policies ignore the seed; canonicalize it away so
    // the spec validates and fingerprints match the original job.
    spec.machine.schedSeed = canonicalSchedSeed(
        spec.machine.schedPolicy, spec.machine.schedSeed);
    return spec;
}

void
applySpecToDriverOptions(const ExperimentSpec &spec, DriverOptions &opts)
{
    opts.traceDir = spec.traceDir;
}

} // namespace sst
