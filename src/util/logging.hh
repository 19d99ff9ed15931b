/**
 * @file
 * Minimal gem5-style status/error reporting: panic() for internal
 * invariant violations, fatal() for user/configuration errors, warn(),
 * inform() and debugLog() for non-fatal diagnostics.
 *
 * Thread safety: each message is rendered into one string and emitted
 * with a single fprintf, so concurrent driver/serve threads never
 * interleave partial lines (POSIX stdio locks the stream per call).
 *
 * Levels: the SST_LOG environment variable (read once) selects
 *  - quiet : errors only (panic/fatal still print);
 *  - info  : + warn()/inform() — the default;
 *  - debug : + debugLog().
 *
 * Component tags: the two-argument overloads prefix the message with
 * `[component]` so interleaved serve/worker/driver output stays
 * attributable.
 */

#ifndef SST_UTIL_LOGGING_HH
#define SST_UTIL_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace sst {

/** Diagnostic verbosity, selected once via SST_LOG. */
enum class LogLevel : int {
    kQuiet = 0, ///< errors only
    kInfo = 1,  ///< + warn/inform (default)
    kDebug = 2, ///< + debugLog
};

/** The process log level: SST_LOG in {quiet, info, debug}. */
inline LogLevel
logLevel()
{
    static const LogLevel level = [] {
        const char *env = std::getenv("SST_LOG");
        if (!env)
            return LogLevel::kInfo;
        const std::string v(env);
        if (v == "quiet")
            return LogLevel::kQuiet;
        if (v == "debug")
            return LogLevel::kDebug;
        return LogLevel::kInfo;
    }();
    return level;
}

namespace detail {

/** Render and emit one complete line with a single fprintf. */
inline void
emitLog(const char *severity, const std::string &component,
        const std::string &msg)
{
    std::string line(severity);
    line += ": ";
    if (!component.empty()) {
        line += "[";
        line += component;
        line += "] ";
    }
    line += msg;
    line += "\n";
    std::fprintf(stderr, "%s", line.c_str());
}

} // namespace detail

/**
 * Abort the process because an internal invariant was violated. Use for
 * conditions that indicate a bug in the toolkit itself, never for bad
 * user input. Prints at every log level.
 */
[[noreturn]] inline void
panic(const std::string &msg)
{
    detail::emitLog("panic", "", msg);
    std::abort();
}

/**
 * Exit the process because of an unrecoverable user error (bad
 * configuration, invalid parameters). Prints at every log level.
 */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    detail::emitLog("fatal", "", msg);
    std::exit(1);
}

/** Report a suspicious but survivable condition. */
inline void
warn(const std::string &msg)
{
    if (logLevel() >= LogLevel::kInfo)
        detail::emitLog("warn", "", msg);
}

/** warn() tagged with the emitting component (`[serve]`, ...). */
inline void
warn(const std::string &component, const std::string &msg)
{
    if (logLevel() >= LogLevel::kInfo)
        detail::emitLog("warn", component, msg);
}

/** Report normal operating status. */
inline void
inform(const std::string &msg)
{
    if (logLevel() >= LogLevel::kInfo)
        detail::emitLog("info", "", msg);
}

/** inform() tagged with the emitting component. */
inline void
inform(const std::string &component, const std::string &msg)
{
    if (logLevel() >= LogLevel::kInfo)
        detail::emitLog("info", component, msg);
}

/** High-volume diagnostics, printed only under SST_LOG=debug. */
inline void
debugLog(const std::string &component, const std::string &msg)
{
    if (logLevel() >= LogLevel::kDebug)
        detail::emitLog("debug", component, msg);
}

/** panic() unless @p cond holds. */
inline void
sstAssert(bool cond, const std::string &msg)
{
    if (!cond)
        panic(msg);
}

/** sstAssert() for a literal message: builds no string unless @p cond
 *  fails, so it is cheap enough for the simulator's inner loop. */
inline void
sstAssert(bool cond, const char *msg)
{
    if (!cond)
        panic(msg);
}

} // namespace sst

#endif // SST_UTIL_LOGGING_HH
