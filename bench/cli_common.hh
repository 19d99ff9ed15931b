/**
 * @file
 * Small helpers shared by the bench/ command-line tools (`sst` and the
 * figure/table benches). Header-only; CMake builds one executable per
 * bench .cc, so shared code lives here rather than in the sst library.
 */

#ifndef SST_BENCH_CLI_COMMON_HH
#define SST_BENCH_CLI_COMMON_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/driver.hh"
#include "sim/params.hh"
#include "spec/machine_keys.hh"
#include "spec/spec.hh"
#include "util/logging.hh"

namespace sst {
namespace cli {

/** Value of flag argv[i], advancing i; fatal when the value is missing. */
inline const char *
argValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        fatal(std::string("missing value for ") + argv[i]);
    return argv[++i];
}

/** Strict base-10 u64; fatal on garbage instead of silently reading 0
 * or wrapping a negative through strtoull. */
inline std::uint64_t
parseU64(const char *flag, const char *text)
{
    try {
        return parseU64Text(flag, text);
    } catch (const std::invalid_argument &e) {
        fatal(e.what());
    }
}

/** Strict base-10 int in [min, max]; fatal on garbage or out of range. */
inline int
parseInt(const char *flag, const char *text, long min, long max)
{
    errno = 0;
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (errno != 0 || !end || end == text || *end != '\0' || v < min ||
        v > max) {
        fatal(std::string("bad value for ") + flag + ": '" + text +
              "' (expected " + std::to_string(min) + ".." +
              std::to_string(max) + ")");
    }
    return static_cast<int>(v);
}

/**
 * The flag spellings of spec keys that predate `--KEY VALUE`. A null
 * value means the flag takes one; otherwise it is a switch that sets
 * the key to that value.
 */
struct FlagAlias
{
    const char *flag;
    const char *key;
    const char *value;
};

inline constexpr FlagAlias kFlagAliases[] = {
    {"--mix", "workload", nullptr},
    {"--csv", "output.csv", nullptr},
    {"--json", "output.json", nullptr},
    {"--quiet", "output.quiet", "true"},
};

/**
 * Read the flag at argv[i] as one spec assignment, advancing i past its
 * value: `--set KEY=VALUE`, `--KEY=VALUE`, `--KEY VALUE` or an alias in
 * kFlagAliases. Returns false when argv[i] does not start with `--`.
 * The key is not checked here: applySpecValue() rejects an unknown one,
 * listing the valid keys, so every experiment command line reaches the
 * spec through this one mapping.
 */
inline bool
specFlag(int argc, char **argv, int &i, std::string &key,
         std::string &value)
{
    const std::string arg = argv[i];
    if (arg.compare(0, 2, "--") != 0)
        return false;
    for (const FlagAlias &a : kFlagAliases) {
        if (arg == a.flag) {
            key = a.key;
            value = a.value ? a.value : argValue(argc, argv, i);
            return true;
        }
    }
    const std::string kv = arg == "--set" ? argValue(argc, argv, i)
                                          : arg.substr(2);
    const std::size_t eq = kv.find('=');
    if (eq != std::string::npos) {
        key = kv.substr(0, eq);
        value = kv.substr(eq + 1);
    } else if (arg == "--set") {
        fatal("--set needs KEY=VALUE, got '" + kv + "'");
    } else {
        key = kv;
        value = argValue(argc, argv, i);
    }
    return true;
}

/**
 * Options shared by every figure/table bench. Parsed once here so the
 * benches stop hand-rolling argv loops — and all of them gain
 * `--sched`, `--sched-seed` and `--seed-offset` for free, read by
 * specFlag() and validated by validateSpec() like `sst run`'s flags.
 */
struct BenchOptions
{
    SimParams params;            ///< --sched/--sched-seed applied
    int jobs = 0;                ///< --jobs (0 = hardware concurrency)
    std::uint64_t seedOffset = 0; ///< --seed-offset
    /** Bare integers, in order (legacy positional [nthreads] [jobs]). */
    std::vector<long> positionals;
};

/**
 * Parse the common bench argv: spec-key flags via specFlag(), limited
 * to the machine/scheduler keys a bench consumes, bare integers into
 * positionals (each bench interprets its own), --help printing
 * @p usage. Fatal (with the registry-sourced message) on unknown flags
 * or bad values.
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv, const char *usage)
{
    BenchOptions o;
    ExperimentSpec spec; // carries machine/sched/seed state while parsing
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            std::string key, value;
            if (arg == "--jobs") {
                o.jobs = parseInt("--jobs", argValue(argc, argv, i), 0,
                                  1 << 20);
            } else if (arg == "--help" || arg == "-h") {
                std::printf("usage: %s\n", usage);
                std::printf("  [N]                     positional "
                            "worker/thread counts (bench-specific)\n"
                            "  --jobs N                worker "
                            "threads (default: hardware)\n"
                            "  --sched POLICY          scheduler policy\n"
                            "  --sched-seed K          RNG stream for "
                            "--sched random\n"
                            "  --seed-offset K         replication RNG "
                            "stream\n"
                            "  --KEY=VALUE             any machine/"
                            "scheduler spec key, e.g. "
                            "--machine.time-slice-cycles=8000\n");
                std::exit(0);
            } else if (!arg.empty() &&
                       (std::isdigit(static_cast<unsigned char>(
                            arg[0])) != 0)) {
                o.positionals.push_back(
                    parseInt("positional", arg.c_str(), 0, 1 << 20));
            } else if (specFlag(argc, argv, i, key, value)) {
                // Only keys a bench actually consumes are legal here —
                // the sweep axes (profiles/threads/...) are fixed per
                // figure, and silently dropping one would fake a result.
                if (key.compare(0, 8, "machine.") != 0 && key != "sched" &&
                    key != "sched-seed" && key != "seed-offset") {
                    fatal("'" + key + "' is not a machine/scheduler "
                          "key; this bench's grid is fixed (use the "
                          "sst CLI for arbitrary specs)");
                }
                applySpecValue(spec, key, value);
            } else {
                fatal("unknown argument '" + arg + "' (try --help)");
            }
        }
        validateSpec(spec);
    } catch (const std::invalid_argument &e) {
        fatal(e.what());
    }
    o.params = spec.machine;
    o.seedOffset = spec.seedOffset;
    return o;
}

/**
 * Run @p specs on the experiment driver with @p jobs workers (0 = one
 * per hardware thread) and return the results in input order. No
 * result cache: a cached result drops the per-thread counters, per-core
 * stats and regions the benches read. A failed job is fatal: its error
 * goes to stderr and the process exits 1.
 */
inline std::vector<JobResult>
runJobs(const std::vector<JobSpec> &specs, int jobs)
{
    DriverOptions opts;
    opts.jobs = jobs;
    std::vector<JobResult> results = runExperimentBatch(specs, opts);
    for (const JobResult &r : results)
        if (!r.ok())
            fatal(r.error);
    return results;
}

} // namespace cli
} // namespace sst

#endif // SST_BENCH_CLI_COMMON_HH
