#include "spec.hh"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "spec/machine_keys.hh"
#include "spec/registries.hh"

namespace sst {
namespace {

constexpr const char *kMachinePrefix = "machine.";

/** Top-level spec keys, in canonical serialization order. */
constexpr const char *kTopKeys[] = {
    "profiles", "workload",  "workload-file", "pipeline", "threads",
    "cores",    "llc",       "seed-offset",   "frontend", "trace-dir",
    "sched",    "sched-seed", "output.csv",   "output.json",
    "output.quiet",
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
joinInts(const std::vector<int> &v)
{
    std::string out;
    for (const int x : v) {
        if (!out.empty())
            out += ", ";
        out += std::to_string(x);
    }
    return out;
}

std::string
joinSizes(const std::vector<std::uint64_t> &v)
{
    std::string out;
    for (const std::uint64_t x : v) {
        if (!out.empty())
            out += ", ";
        out += sizeText(x);
    }
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

std::string
joinLabels(const std::vector<std::string> &v)
{
    std::string out;
    for (const std::string &x : v) {
        if (!out.empty())
            out += ", ";
        out += x;
    }
    return out;
}

} // namespace

void
applySpecValue(ExperimentSpec &spec, const std::string &key,
               const std::string &value)
{
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
        spec.threads = value.empty() ? std::vector<int>{}
                                     : parseIntList(value);
    } else if (key == "cores") {
        spec.cores = value.empty() ? std::vector<int>{}
                                   : parseIntList(value);
    } else if (key == "llc") {
        spec.llcBytes = value.empty() ? std::vector<std::uint64_t>{}
                                      : parseSizeList(value);
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
    } else if (key.compare(0, std::string(kMachinePrefix).size(),
                           kMachinePrefix) == 0) {
        const std::string name =
            key.substr(std::string(kMachinePrefix).size());
        const MachineKey *mk = findMachineKey(name);
        if (!mk)
            throw std::invalid_argument("unknown machine key '" + key +
                                        "'; valid machine keys: " +
                                        machineKeyNamesJoined());
        setMachineValue(spec.machine, *mk, value);
    } else {
        throw std::invalid_argument("unknown spec key '" + key +
                                    "'; valid keys: " +
                                    specKeyNamesJoined());
    }
}

std::string
specKeyNamesJoined()
{
    std::string out;
    for (const char *k : kTopKeys) {
        if (!out.empty())
            out += ", ";
        out += k;
    }
    return out + ", " + machineKeyNamesJoined();
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
    try {
        return parseSpec(buf.str());
    } catch (const std::invalid_argument &e) {
        throw std::invalid_argument(path + ": " + e.what());
    }
}

std::string
serializeSpec(const ExperimentSpec &spec)
{
    std::string out = "# sst experiment spec (canonical form)\n";
    auto put = [&out](const char *key, const std::string &value) {
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
                    std::string("cannot serialize ") + key +
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
        spec.profiles.empty() ? "all" : joinLabels(spec.profiles));
    put("workload", joinLabels(spec.workloads));
    put("workload-file", joinLabels(spec.workloadFiles));
    put("threads", joinInts(spec.threads));
    put("cores", joinInts(spec.cores));
    put("llc", joinSizes(spec.llcBytes));
    put("seed-offset", std::to_string(spec.seedOffset));
    put("frontend", spec.frontend);
    put("trace-dir", spec.traceDir);
    put("sched", schedPolicyLabel(spec.machine.schedPolicy));
    put("sched-seed", std::to_string(spec.machine.schedSeed));
    encodeMachineParams(out, spec.machine);
    put("output.csv", spec.csvPath);
    put("output.json", spec.jsonPath);
    put("output.quiet", spec.quiet ? "true" : "false");
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
        if (!profileRegistry().find(label))
            profileRegistry().at(label); // throws, listing valid names
}

SweepGrid
specGrid(const ExperimentSpec &spec)
{
    validateSpec(spec);
    SweepGrid grid;
    if (!spec.workloadFiles.empty()) {
        // Each .wdl file carries its own groups and thread counts.
        grid.workloadFiles = spec.workloadFiles;
        grid.threads.clear();
    } else if (!spec.workloads.empty()) {
        // The workload axis carries its own profiles/thread counts.
        grid.workloads = spec.workloads;
        grid.threads.clear();
    } else {
        grid.profiles = spec.profiles.empty() ? allProfileLabels()
                                              : spec.profiles;
        grid.threads = spec.threads;
    }
    grid.cores = spec.cores;
    grid.llcBytes = spec.llcBytes;
    grid.baseParams = spec.machine;
    grid.seedOffset = spec.seedOffset;
    return grid;
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
