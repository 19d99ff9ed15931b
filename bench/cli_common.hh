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
 * Options shared by every figure/table bench. Parsed once here so the
 * benches stop hand-rolling argv loops — and all of them gain
 * `--sched`, `--sched-seed` and `--seed-offset` for free, routed
 * through the same applySpecValue() path spec files use.
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
 * Parse the common bench argv: flags via the spec key machinery,
 * bare integers into positionals (each bench interprets its own),
 * --help printing @p usage. Fatal (with the registry-sourced message)
 * on unknown flags or bad values. Benches that run their loop serially
 * (no experiment driver) pass @p driver_backed = false so --jobs and
 * worker-count positionals are rejected instead of silently ignored.
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv, const char *usage,
               bool driver_backed = true)
{
    BenchOptions o;
    ExperimentSpec spec; // carries machine/sched/seed state while parsing
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        try {
            if (arg == "--jobs") {
                if (!driver_backed)
                    fatal("this bench runs serially; --jobs has no "
                          "effect here");
                o.jobs = parseInt("--jobs", argValue(argc, argv, i), 0,
                                  1 << 20);
            } else if (arg == "--sched") {
                applySpecValue(spec, "sched", argValue(argc, argv, i));
            } else if (arg == "--sched-seed") {
                applySpecValue(spec, "sched-seed",
                               argValue(argc, argv, i));
            } else if (arg == "--seed-offset") {
                applySpecValue(spec, "seed-offset",
                               argValue(argc, argv, i));
            } else if (arg.size() > 2 &&
                       arg.compare(0, 2, "--") == 0 &&
                       arg.find('=') != std::string::npos) {
                // --machine.time-slice-cycles=8000 style. Only keys a
                // bench actually consumes are legal here — the sweep
                // axes (profiles/threads/...) are fixed per figure, and
                // silently dropping one would fake a result.
                const std::size_t eq = arg.find('=');
                const std::string key = arg.substr(2, eq - 2);
                if (key.compare(0, 8, "machine.") != 0 &&
                    key != "sched" && key != "sched-seed" &&
                    key != "seed-offset") {
                    fatal("'" + key + "' is not a machine/scheduler "
                          "key; this bench's grid is fixed (use the "
                          "sst CLI for arbitrary specs)");
                }
                applySpecValue(spec, key, arg.substr(eq + 1));
            } else if (arg == "--help" || arg == "-h") {
                std::printf("usage: %s\n", usage);
                if (driver_backed)
                    std::printf("  [N]                     positional "
                                "worker/thread counts (bench-specific)\n"
                                "  --jobs N                worker "
                                "threads (default: hardware)\n");
                std::printf("  --sched POLICY          scheduler policy\n"
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
                if (!driver_backed)
                    fatal("this bench runs serially and takes no "
                          "worker-count argument ('" + arg + "')");
                o.positionals.push_back(
                    parseInt("positional", arg.c_str(), 0, 1 << 20));
            } else {
                fatal("unknown argument '" + arg + "' (try --help)");
            }
        } catch (const std::invalid_argument &e) {
            fatal(e.what());
        }
    }
    if (spec.machine.schedSeed != 0 &&
        spec.machine.schedPolicy != SchedPolicy::kRandom) {
        fatal("--sched-seed only affects --sched random; the seed "
              "would be silently ignored");
    }
    o.params = spec.machine;
    o.seedOffset = spec.seedOffset;
    return o;
}

} // namespace cli
} // namespace sst

#endif // SST_BENCH_CLI_COMMON_HH
