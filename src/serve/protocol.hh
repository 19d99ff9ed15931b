/**
 * @file
 * The line-oriented wire protocol of the experiment service. One
 * request per connection (the HTTP/1.0 discipline — no connection
 * state to resynchronize after a crash): the client sends a single
 * request line, the server answers with one `ok ...` / `err ...` line,
 * or a stream of lines terminated by an `end ...` line for results and
 * status.
 *
 * Request lines are space-separated tokens; tokens are escaped
 * (escapeToken) so payloads — whole serialized ExperimentSpecs, result
 * blobs, error messages — travel as single tokens regardless of
 * content. Like the spec format, parsing and serialization are exact
 * inverses: parseRequest(serializeRequest(r)) reproduces r for every
 * valid request, so journaled request lines replay bit-exactly.
 *
 * Client requests:
 *   submit <campaign> <priority> <spec-text>   enqueue a campaign
 *   status                                     queue/campaign counters
 *   results <campaign> csv|json wait|nowait    stream results
 *   cancel <campaign>                          cancel pending jobs
 *   drain                                      stop accepting, finish
 *   ping                                       liveness probe
 *   metrics                                    stream telemetry text
 *
 * Worker requests:
 *   lease <worker>                 -> ok job <id> <lease-ms> <spec-text>
 *                                     | ok baseline <id> <lease-ms>
 *                                       <group> <spec-text>
 *                                     | ok none | ok drained
 *                                     (waits briefly for a job before
 *                                     answering none)
 *   heartbeat <worker> <id>        extend the lease
 *   done <worker> <id> <result>    complete (result blob, see below)
 *   fail <worker> <id> <error>     infrastructure failure -> retry
 *
 * A lease hands out one queue job (driver/job_queue.hh): the parallel
 * run of a spec's experiment, or the 1-thread baseline of one group of
 * a spec. Completed jobs travel as encodeJobResult() blobs: a status
 * line plus the job's run in the result cache's encodeRun() (for an
 * experiment, the parallel half of its cache entry) — one codec for
 * the socket and the cache, so they can never disagree about a run.
 * Only the lease holder's `done` counts; any other is answered `err
 * stale`, and one whose run has another thread count than the job, or
 * totals that disagree with its thread lines, fails the job.
 */

#ifndef SST_SERVE_PROTOCOL_HH
#define SST_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/job_queue.hh"

namespace sst {
namespace serve {

/** Wire protocol version (reported by `sst --version` and status). */
inline constexpr int kProtocolVersion = 6;

/**
 * Escape @p s into one space-free token: backslash escapes for
 * backslash, space, newline, CR and tab; the empty string becomes the
 * marker token `\e` (an empty token would vanish between separators).
 */
std::string escapeToken(const std::string &s);

/** Invert escapeToken(). Throws std::invalid_argument on bad escapes. */
std::string unescapeToken(const std::string &s);

/** Split a request/response line into its space-separated tokens. */
std::vector<std::string> splitTokens(const std::string &line);

/** One parsed request. Only the fields its kind carries are set. */
struct Request
{
    enum class Kind : std::uint8_t {
        kSubmit,
        kStatus,
        kResults,
        kCancel,
        kDrain,
        kPing,
        kLease,
        kHeartbeat,
        kDone,
        kFail,
        kMetrics,
    };

    Kind kind = Kind::kPing;
    std::string campaign; ///< submit / results / cancel
    std::string payload;  ///< spec text (submit), result blob / error
    int priority = 0;     ///< submit
    bool json = false;    ///< results: JSON rows instead of CSV
    bool wait = false;    ///< results: block for unsettled jobs
    std::string worker;   ///< lease / heartbeat / done / fail
    std::uint64_t jobId = 0; ///< heartbeat / done / fail
};

/** Stable verb of @p kind ("submit", "lease", ...). */
const char *requestKindName(Request::Kind kind);

/** Canonical request line (no trailing newline). */
std::string serializeRequest(const Request &req);

/**
 * Parse a request line. Throws std::invalid_argument (listing the
 * valid verbs for unknown ones) on malformed input.
 */
Request parseRequest(const std::string &line);

/**
 * Wire form of a completed job: `result-status ok|failed` (a worker's
 * run is never `cached`), an optional `result-error <escaped>` line,
 * then for a non-failed result encodeRun() of the experiment's parallel
 * run, or of a baseline job's run (JobResult::baseline set). Multi-line;
 * embed it in request lines via escapeToken(). The trace flags of
 * @p result are deliberately not carried — they describe the executing
 * side.
 */
std::string encodeJobResult(const JobResult &result);

/** Invert encodeJobResult() of an experiment job, or of a baseline job
 *  (a 1-thread run) when @p baseline. Returns false on malformed input. */
bool decodeJobResult(const std::string &text, JobResult &out,
                     bool baseline = false);

/** The `ok job ...` / `ok baseline ...` reply leasing @p job (no
 *  trailing newline). */
std::string leaseReply(const LeasedJob &job);

/**
 * Parse a leaseReply() line strictly into @p out, except its spec: the
 * spec text goes to @p spec_text, for the caller to expand. Returns
 * false on any malformed, missing or extra token.
 */
bool parseLeaseReply(const std::string &line, LeasedJob &out,
                     std::string &spec_text);

} // namespace serve
} // namespace sst

#endif // SST_SERVE_PROTOCOL_HH
