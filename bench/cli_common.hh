/**
 * @file
 * Small helpers shared by the bench/ command-line tools (`sst`,
 * `inspect` and the ablation benches), above all parseFlags(): every
 * `sst` command line is parsed from a Flag table, and its help is
 * generated from the same table. Header-only; CMake builds one
 * executable per bench .cc, so shared code lives here rather than in
 * the sst library.
 */

#ifndef SST_BENCH_CLI_COMMON_HH
#define SST_BENCH_CLI_COMMON_HH

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "driver/driver.hh"
#include "spec/spec.hh"
#include "util/logging.hh"
#include "util/parse.hh"

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
 * Where a flag's value goes. @c apply stores it (the value is null for
 * a switch; the flag's name comes along for error messages); without
 * one, the flag is only recorded as given. @c shown is the default that
 * help prints: the binders below read it from the destination when the
 * table is built, after the command has set its defaults.
 */
struct FlagTarget
{
    std::function<void(const char *flag, const char *value)> apply;
    std::string shown = {};
};

/** One row of a command's flag table; help is generated from it. */
struct Flag
{
    const char *name;
    const char *arg; ///< value placeholder; null for a switch
    std::string help;
    FlagTarget target = {};
};

inline FlagTarget
into(std::string &dst)
{
    return {[&dst](const char *, const char *v) { dst = v; }, dst};
}

inline FlagTarget
into(int &dst, long min, long max)
{
    return {[&dst, min, max](const char *flag, const char *v) {
                dst = parseInt(flag, v, min, max);
            },
            std::to_string(dst)};
}

inline FlagTarget
into(std::uint64_t &dst)
{
    return {[&dst](const char *flag, const char *v) {
                dst = parseU64Text(flag, v);
            },
            std::to_string(dst)};
}

/** A switch that sets @p dst. */
inline FlagTarget
into(bool &dst)
{
    return {[&dst](const char *, const char *) { dst = true; }};
}

/** A switch that empties @p dst (`--no-cache`). */
inline FlagTarget
clearing(std::string &dst)
{
    return {[&dst](const char *, const char *) { dst.clear(); }};
}

/** One line of generated help: the flag column, then its text. */
inline std::string
usageRow(const std::string &left, const std::string &right)
{
    return "  " + left + std::string(left.size() < 23 ? 23 - left.size() : 0,
                                     ' ') +
           " " + right + "\n";
}

/**
 * Parse argv[first..] against @p flags. `--help`/`-h` prints @p head,
 * one generated row per flag and @p notes, then exits 0. A value flag
 * reads the next argument ("missing value for --X" at the end of the
 * line). An argument no flag names goes to @p other, which may advance
 * i past what it reads and returns false when it does not know the
 * argument either: then it is fatal, "unknown argument 'X'". Returns
 * the names of the flags given.
 */
inline std::set<std::string>
parseFlags(int argc, char **argv, int first, const std::string &head,
           const std::vector<Flag> &flags,
           const std::function<bool(int &i)> &other = nullptr,
           const std::string &notes = "")
{
    std::set<std::string> given;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::string text = head;
            for (const Flag &f : flags) {
                const std::string &shown = f.target.shown;
                text += usageRow(
                    f.arg ? std::string(f.name) + " " + f.arg : f.name,
                    f.help +
                        (shown.empty() ? "" : " (default: " + shown + ")"));
            }
            std::fputs((text + notes).c_str(), stdout);
            std::exit(0);
        }
        const auto f =
            std::find_if(flags.begin(), flags.end(),
                         [&arg](const Flag &g) { return arg == g.name; });
        if (f != flags.end()) {
            const char *value = f->arg ? argValue(argc, argv, i) : nullptr;
            if (f->target.apply)
                f->target.apply(f->name, value);
            given.insert(f->name);
        } else if (!other || !other(i)) {
            fatal("unknown argument '" + arg + "' (try --help)");
        }
    }
    return given;
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
    {"--report", "output.report", nullptr},
};

/**
 * Read the flag at argv[i] as one spec assignment, advancing i past its
 * value: `--set KEY=VALUE`, `--KEY=VALUE`, `--KEY VALUE` or an alias in
 * kFlagAliases. Returns false when argv[i] does not start with `--`.
 * An unknown key throws requireSpecKey()'s error, listing the valid
 * keys, before any value is read: a mistyped switch never swallows the
 * next argument. Every experiment command line reaches the spec
 * through this one mapping.
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
    if (eq == std::string::npos && arg == "--set")
        fatal("--set needs KEY=VALUE, got '" + kv + "'");
    key = kv.substr(0, eq);
    requireSpecKey(key);
    value = eq != std::string::npos ? kv.substr(eq + 1)
                                    : argValue(argc, argv, i);
    return true;
}

/**
 * Run @p specs on the experiment driver with @p jobs workers (0 = one
 * per hardware thread) and return the results in input order. No
 * result cache; @p full_runs keeps the per-core stats and region
 * snapshots `inspect` and `abl_region_stacks` read, which a cached or
 * default result drops (DriverOptions::fullRuns). A failed job is
 * fatal: its error goes to stderr and the process exits 1.
 */
inline std::vector<JobResult>
runJobs(const std::vector<JobSpec> &specs, int jobs, bool full_runs = false)
{
    DriverOptions opts;
    opts.jobs = jobs;
    opts.fullRuns = full_runs;
    std::vector<JobResult> results = runExperimentBatch(specs, opts);
    for (const JobResult &r : results)
        if (!r.ok())
            fatal(r.error);
    return results;
}

} // namespace cli
} // namespace sst

#endif // SST_BENCH_CLI_COMMON_HH
