#include "sweep.hh"

#include <cstdio>
#include <sstream>

#include "util/logging.hh"

namespace sst {
namespace {

std::string
f64(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** CSV/JSON `suite` column: the profile's suite for homogeneous jobs
 *  (bit-identical to the pre-WorkloadSpec output), the workload role
 *  for mixes and pipelines. */
std::string
jobSuite(const JobSpec &s)
{
    if (s.workload.isHomogeneous())
        return s.workload.groups[0].profile.suite;
    return workloadRoleName(s.workload.role);
}

const char *
statusName(JobStatus s)
{
    switch (s) {
    case JobStatus::kOk:
        return "ok";
    case JobStatus::kCached:
        return "cached";
    case JobStatus::kFailed:
        return "failed";
    }
    return "?";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
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
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
sweepCsvHeader()
{
    return "benchmark,suite,nthreads,ncores,llc_bytes,seed_offset,status,"
           "ts,tp,"
           "actual_speedup,estimated_speedup,error,base,pos_llc,neg_llc,"
           "net_neg_llc,neg_mem,spin,yield,imbalance,coherency,"
           "par_overhead";
}

std::string
sweepCsvRow(const JobSpec &s, const JobResult &r)
{
    std::ostringstream os;
    os << s.label() << ',' << jobSuite(s) << ','
       << s.nthreads() << ',' << s.ncoresEffective() << ','
       << s.params.cache.llcBytes << ',' << s.seedOffset << ','
       << statusName(r.status);
    if (r.ok()) {
        const SpeedupExperiment &e = r.exp;
        os << ',' << e.ts << ',' << e.tp << ','
           << f64(e.actualSpeedup) << ',' << f64(e.estimatedSpeedup)
           << ',' << f64(e.error) << ',' << f64(e.stack.baseSpeedup)
           << ',' << f64(e.stack.posLlc) << ',' << f64(e.stack.negLlc)
           << ',' << f64(e.stack.netNegLlc()) << ','
           << f64(e.stack.negMem) << ',' << f64(e.stack.spin) << ','
           << f64(e.stack.yield) << ',' << f64(e.stack.imbalance)
           << ',' << f64(e.stack.coherency) << ','
           << f64(e.parOverheadMeasured);
    } else {
        for (int k = 0; k < 15; ++k)
            os << ',';
    }
    return os.str();
}

std::string
sweepCsv(const std::vector<JobSpec> &specs,
         const std::vector<JobResult> &results)
{
    sstAssert(specs.size() == results.size(),
              "sweepCsv: specs/results size mismatch");
    std::ostringstream os;
    os << sweepCsvHeader() << '\n';
    for (std::size_t i = 0; i < specs.size(); ++i)
        os << sweepCsvRow(specs[i], results[i]) << '\n';
    return os.str();
}

std::string
sweepJsonRow(const JobSpec &s, const JobResult &r)
{
    std::ostringstream os;
    os << "{\"benchmark\": \"" << jsonEscape(s.label())
       << "\", \"suite\": \"" << jsonEscape(jobSuite(s))
       << "\", \"nthreads\": " << s.nthreads()
       << ", \"ncores\": " << s.ncoresEffective()
       << ", \"llc_bytes\": " << s.params.cache.llcBytes
       << ", \"seed_offset\": " << s.seedOffset << ", \"status\": \""
       << statusName(r.status) << '"';
    if (r.ok()) {
        const SpeedupExperiment &e = r.exp;
        os << ", \"ts\": " << e.ts << ", \"tp\": " << e.tp
           << ", \"actual_speedup\": " << f64(e.actualSpeedup)
           << ", \"estimated_speedup\": " << f64(e.estimatedSpeedup)
           << ", \"error\": " << f64(e.error)
           << ", \"stack\": {\"base\": " << f64(e.stack.baseSpeedup)
           << ", \"pos_llc\": " << f64(e.stack.posLlc)
           << ", \"neg_llc\": " << f64(e.stack.negLlc)
           << ", \"neg_mem\": " << f64(e.stack.negMem)
           << ", \"spin\": " << f64(e.stack.spin)
           << ", \"yield\": " << f64(e.stack.yield)
           << ", \"imbalance\": " << f64(e.stack.imbalance)
           << ", \"coherency\": " << f64(e.stack.coherency) << '}'
           << ", \"par_overhead\": " << f64(e.parOverheadMeasured);
    } else {
        os << ", \"error_message\": \"" << jsonEscape(r.error) << '"';
    }
    os << '}';
    return os.str();
}

std::string
sweepJson(const std::vector<JobSpec> &specs,
          const std::vector<JobResult> &results)
{
    sstAssert(specs.size() == results.size(),
              "sweepJson: specs/results size mismatch");
    std::ostringstream os;
    os << "[\n";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        os << "  " << sweepJsonRow(specs[i], results[i])
           << (i + 1 < specs.size() ? "," : "") << '\n';
    }
    os << "]\n";
    return os.str();
}

} // namespace sst
