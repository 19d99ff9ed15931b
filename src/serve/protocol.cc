#include "protocol.hh"

#include <limits>
#include <memory>
#include <stdexcept>

#include "driver/result_cache.hh"
#include "spec/spec.hh"
#include "util/parse.hh"

namespace sst {
namespace serve {
namespace {

constexpr const char *kEmptyToken = "\\e";

const char *kKindNames[] = {
    "submit", "status", "results",   "cancel", "drain",
    "ping",   "lease",  "heartbeat", "done",   "fail",
    "metrics",
};

std::string
kindNamesJoined()
{
    std::string out;
    for (const char *name : kKindNames) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

/** Strict u64 via parseU64Text (digits only, no wrap). */
std::uint64_t
tokenU64(const char *what, const std::string &token)
{
    return parseU64Text(what, token);
}

int
tokenPriority(const std::string &token)
{
    // Priorities are small signed integers; reuse the strict parser on
    // the magnitude so "+3"/"1e2" stay rejected.
    const bool neg = !token.empty() && token[0] == '-';
    const std::uint64_t mag =
        tokenU64("priority", neg ? token.substr(1) : token);
    if (mag > 1000000)
        throw std::invalid_argument("priority out of range: " + token);
    const int v = static_cast<int>(mag);
    return neg ? -v : v;
}

void
require(bool cond, const std::string &msg)
{
    if (!cond)
        throw std::invalid_argument(msg);
}

} // namespace

std::string
escapeToken(const std::string &s)
{
    if (s.empty())
        return kEmptyToken;
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case ' ':
            out += "\\s";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            out += c;
        }
    }
    return out;
}

std::string
unescapeToken(const std::string &s)
{
    if (s == kEmptyToken)
        return "";
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            out += s[i];
            continue;
        }
        require(i + 1 < s.size(), "token ends mid-escape: " + s);
        switch (s[++i]) {
        case '\\':
            out += '\\';
            break;
        case 's':
            out += ' ';
            break;
        case 'n':
            out += '\n';
            break;
        case 'r':
            out += '\r';
            break;
        case 't':
            out += '\t';
            break;
        default:
            throw std::invalid_argument(
                std::string("bad escape '\\") + s[i] + "' in token");
        }
    }
    return out;
}

std::vector<std::string>
splitTokens(const std::string &line)
{
    std::vector<std::string> tokens;
    std::string cur;
    for (const char c : line) {
        if (c == ' ') {
            if (!cur.empty())
                tokens.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        tokens.push_back(cur);
    return tokens;
}

const char *
requestKindName(Request::Kind kind)
{
    return kKindNames[static_cast<std::size_t>(kind)];
}

std::string
serializeRequest(const Request &req)
{
    std::string out = requestKindName(req.kind);
    switch (req.kind) {
    case Request::Kind::kSubmit:
        out += ' ' + escapeToken(req.campaign) + ' ' +
               std::to_string(req.priority) + ' ' +
               escapeToken(req.payload);
        break;
    case Request::Kind::kResults:
        out += ' ' + escapeToken(req.campaign) + ' ' +
               std::string(req.json ? "json" : "csv") + ' ' +
               std::string(req.wait ? "wait" : "nowait");
        break;
    case Request::Kind::kCancel:
        out += ' ' + escapeToken(req.campaign);
        break;
    case Request::Kind::kLease:
        out += ' ' + escapeToken(req.worker);
        break;
    case Request::Kind::kHeartbeat:
        out += ' ' + escapeToken(req.worker) + ' ' +
               std::to_string(req.jobId);
        break;
    case Request::Kind::kDone:
    case Request::Kind::kFail:
        out += ' ' + escapeToken(req.worker) + ' ' +
               std::to_string(req.jobId) + ' ' +
               escapeToken(req.payload);
        break;
    case Request::Kind::kStatus:
    case Request::Kind::kDrain:
    case Request::Kind::kPing:
    case Request::Kind::kMetrics:
        break;
    }
    return out;
}

Request
parseRequest(const std::string &line)
{
    const std::vector<std::string> tokens = splitTokens(line);
    require(!tokens.empty(), "empty request line");

    Request req;
    bool known = false;
    for (std::size_t k = 0; k < std::size(kKindNames); ++k) {
        if (tokens[0] == kKindNames[k]) {
            req.kind = static_cast<Request::Kind>(k);
            known = true;
            break;
        }
    }
    require(known, "unknown request '" + tokens[0] +
                       "'; valid requests: " + kindNamesJoined());

    auto arity = [&](std::size_t n) {
        require(tokens.size() == n,
                std::string(tokens[0]) + " expects " +
                    std::to_string(n - 1) + " argument(s), got " +
                    std::to_string(tokens.size() - 1));
    };

    switch (req.kind) {
    case Request::Kind::kSubmit:
        arity(4);
        req.campaign = unescapeToken(tokens[1]);
        req.priority = tokenPriority(tokens[2]);
        req.payload = unescapeToken(tokens[3]);
        break;
    case Request::Kind::kResults:
        arity(4);
        req.campaign = unescapeToken(tokens[1]);
        require(tokens[2] == "csv" || tokens[2] == "json",
                "results format must be csv or json, got '" +
                    tokens[2] + "'");
        req.json = tokens[2] == "json";
        require(tokens[3] == "wait" || tokens[3] == "nowait",
                "results mode must be wait or nowait, got '" +
                    tokens[3] + "'");
        req.wait = tokens[3] == "wait";
        break;
    case Request::Kind::kCancel:
        arity(2);
        req.campaign = unescapeToken(tokens[1]);
        break;
    case Request::Kind::kLease:
        arity(2);
        req.worker = unescapeToken(tokens[1]);
        break;
    case Request::Kind::kHeartbeat:
        arity(3);
        req.worker = unescapeToken(tokens[1]);
        req.jobId = tokenU64("job id", tokens[2]);
        break;
    case Request::Kind::kDone:
    case Request::Kind::kFail:
        arity(4);
        req.worker = unescapeToken(tokens[1]);
        req.jobId = tokenU64("job id", tokens[2]);
        req.payload = unescapeToken(tokens[3]);
        break;
    case Request::Kind::kStatus:
    case Request::Kind::kDrain:
    case Request::Kind::kPing:
    case Request::Kind::kMetrics:
        arity(1);
        break;
    }
    return req;
}

std::string
encodeJobResult(const JobResult &result)
{
    const char *status = result.status == JobStatus::kOk       ? "ok"
                         : result.status == JobStatus::kCached ? "cached"
                                                               : "failed";
    std::string out = std::string("result-status ") + status + "\n";
    if (!result.error.empty())
        out += "result-error " + escapeToken(result.error) + "\n";
    if (result.baseline)
        out += encodeBaselineSummary(*result.baseline);
    else if (result.ok())
        out += encodeExperimentRuns(result.exp);
    return out;
}

bool
decodeJobResult(const std::string &text, JobResult &out, bool baseline)
{
    // A status line, an optional error line, then the body: the
    // experiment's runs or the baseline summary of the shared cache
    // codec.
    const std::string status_key = "result-status ";
    const std::string error_key = "result-error ";
    std::size_t nl = text.find('\n');
    if (text.rfind(status_key, 0) != 0 || nl == std::string::npos)
        return false;
    const std::string status =
        text.substr(status_key.size(), nl - status_key.size());
    JobResult res;
    if (status == "ok")
        res.status = JobStatus::kOk;
    else if (status == "cached" && !baseline)
        res.status = JobStatus::kCached;
    else if (status == "failed")
        res.status = JobStatus::kFailed;
    else
        return false;

    std::size_t pos = nl + 1;
    if (text.compare(pos, error_key.size(), error_key) == 0) {
        if ((nl = text.find('\n', pos)) == std::string::npos)
            return false;
        try {
            res.error = unescapeToken(text.substr(
                pos + error_key.size(), nl - pos - error_key.size()));
        } catch (const std::invalid_argument &) {
            return false;
        }
        pos = nl + 1;
    }

    if (res.ok() && baseline) {
        RunResult run;
        if (!decodeBaselineSummary(text.substr(pos), run))
            return false;
        res.baseline = std::make_shared<const RunResult>(std::move(run));
    } else if (res.ok()) {
        if (!decodeExperimentRuns(text.substr(pos), res.exp))
            return false;
    } else if (pos != text.size()) {
        return false;
    }
    out = std::move(res);
    return true;
}

std::string
leaseReply(const LeasedJob &job)
{
    const std::string spec = escapeToken(serializeSpec(specForJob(job.spec)));
    std::string out = std::string("ok ") +
                      (job.isBaseline() ? "baseline " : "job ") +
                      std::to_string(job.id) + ' ' +
                      std::to_string(job.leaseMs) + ' ';
    if (job.isBaseline())
        return out + std::to_string(job.group) + ' ' + spec;
    out += spec;
    for (const std::shared_ptr<const RunResult> &run : job.baselines)
        out += ' ' + escapeToken(encodeBaselineSummary(*run));
    return out;
}

bool
parseLeaseReply(const std::string &line, LeasedJob &out,
                std::string &spec_text)
{
    const std::vector<std::string> tokens = splitTokens(line);
    if (tokens.size() < 5 || tokens[0] != "ok" ||
        (tokens[1] != "job" && tokens[1] != "baseline"))
        return false;
    const bool baseline = tokens[1] == "baseline";
    if (baseline && tokens.size() != 6)
        return false;
    LeasedJob job;
    try {
        job.id = tokenU64("job id", tokens[2]);
        job.leaseMs = tokenU64("lease ms", tokens[3]);
        std::size_t next = 4;
        if (baseline) {
            const std::uint64_t group = tokenU64("group", tokens[next++]);
            if (group > static_cast<std::uint64_t>(
                            std::numeric_limits<int>::max()))
                return false;
            job.group = static_cast<int>(group);
        }
        spec_text = unescapeToken(tokens[next++]);
        for (; next < tokens.size(); ++next) {
            RunResult run;
            if (!decodeBaselineSummary(unescapeToken(tokens[next]), run))
                return false;
            job.baselines.push_back(
                std::make_shared<const RunResult>(std::move(run)));
        }
    } catch (const std::invalid_argument &) {
        return false;
    }
    out = std::move(job);
    return true;
}

} // namespace serve
} // namespace sst
