#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "accounting/hw_cost.hh"
#include "core/classify.hh"
#include "core/experiment.hh"
#include "core/render.hh"
#include "spec/spec.hh"
#include "util/format.hh"
#include "util/stats.hh"
#include "workload/profile.hh"

namespace sst {
namespace {

using Jobs = std::vector<JobSpec>;
using Results = std::vector<JobResult>;

/** The thread count of the paper's per-benchmark numbers (Figure 6,
 *  Section 6); a paper column prints `-` at any other count. */
constexpr int kPaperThreads = 16;

/** @p job's value of each machine axis of @p spec (sizes as `2MB`),
 *  appended to @p row; with no job, the axes' names. */
void
addAxisCells(const ExperimentSpec &spec, const JobSpec *job,
             std::vector<std::string> &row)
{
    for (const auto &axis : spec.machineAxes) {
        const MachineKey &key = *axis.first;
        const std::uint64_t v = job ? key.get(job->params) : 0;
        row.push_back(!job ? axisName(key)
                      : key.kind == MachineKey::Kind::kSize
                          ? fmtBytes(v)
                          : machineValueText(key, v));
    }
}

/** One row per job: speedups, error, top delimiters and stack
 *  components; a cores column and a column per machine axis only when
 *  that axis is swept. */
std::string
renderTable(const ExperimentSpec &spec, const Jobs &jobs,
            const Results &results)
{
    const bool show_cores = !spec.cores.empty();
    TextTable table;
    std::vector<std::string> header = {"benchmark", "threads"};
    if (show_cores)
        header.push_back("cores");
    addAxisCells(spec, nullptr, header);
    for (const char *c : {"paper", "actual", "estimated", "err", "1st",
                          "2nd", "3rd", "base", "pos", "netneg", "mem",
                          "spin", "yield"})
        header.push_back(c);
    table.setHeader(header);

    RunningStat err;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobSpec &s = jobs[i];
        const JobResult &r = results[i];
        std::vector<std::string> row = {s.label(),
                                        std::to_string(s.nthreads())};
        if (show_cores)
            row.push_back(std::to_string(s.ncoresEffective()));
        addAxisCells(spec, &s, row);
        if (!r.ok()) {
            row.push_back("FAILED: " + r.error);
            row.resize(header.size(), "-");
            table.addRow(row);
            continue;
        }
        const SpeedupExperiment &e = r.exp;
        // The paper reports 16-thread speedups per benchmark; mixes,
        // pipelines and user-authored WDL scenarios have no paper row.
        row.push_back(s.workload.isHomogeneous() && !s.workload.wdlProgram
                          ? fmtDouble(s.workload.groups[0].profile
                                          .paperSpeedup16, 2)
                          : "-");
        row.push_back(fmtDouble(e.actualSpeedup, 2));
        row.push_back(fmtDouble(e.estimatedSpeedup, 2));
        row.push_back(fmtPercent(e.error, 1));
        const auto ranked = rankedDelimiters(e.stack);
        for (std::size_t k = 0; k < 3; ++k)
            row.push_back(k < ranked.size() ? shortComponentName(ranked[k])
                                            : "-");
        for (const double v : {e.stack.baseSpeedup, e.stack.posLlc,
                               e.stack.netNegLlc(), e.stack.negMem,
                               e.stack.spin, e.stack.yield})
            row.push_back(fmtDouble(v, 2));
        table.addRow(row);
        err.add(std::fabs(e.error));
    }
    std::string out = table.render() + "\n";
    if (err.count() > 0)
        out += "average absolute error: " + fmtPercent(err.mean(), 1) + "\n";
    return out;
}

/** Figure 4: S and S^ per benchmark and thread count, the Eq. 6 error
 *  at the largest count, and the average |error| per thread count next
 *  to the paper's. */
std::string
renderValidation(const ExperimentSpec &spec, const Jobs &jobs,
                 const Results &results)
{
    const std::vector<int> &threads = spec.threads;
    TextTable table;
    std::vector<std::string> header = {"benchmark"};
    for (const int t : threads) {
        header.push_back("S(" + std::to_string(t) + ")");
        header.push_back("S^(" + std::to_string(t) + ")");
    }
    header.push_back("err" + std::to_string(threads.back()));
    table.setHeader(header);

    // expandGrid() is profile-major: each benchmark contributes one
    // contiguous block of |threads| jobs, in thread order.
    std::vector<RunningStat> err(threads.size());
    for (std::size_t base = 0; base < jobs.size(); base += threads.size()) {
        std::vector<std::string> row = {jobs[base].label()};
        for (std::size_t i = 0; i < threads.size(); ++i) {
            const JobResult &r = results[base + i];
            row.push_back(r.ok() ? fmtDouble(r.exp.actualSpeedup, 2) : "fail");
            row.push_back(r.ok() ? fmtDouble(r.exp.estimatedSpeedup, 2)
                                 : "fail");
            if (r.ok())
                err[i].add(std::fabs(r.exp.error));
        }
        const JobResult &last = results[base + threads.size() - 1];
        row.push_back(last.ok() ? fmtPercent(last.exp.error, 1) : "fail");
        table.addRow(row);
    }

    TextTable summary;
    summary.setHeader({"threads", "avg |error| (measured)",
                       "avg |error| (paper)"});
    const std::map<int, const char *> paper = {
        {2, "3.0%"}, {4, "3.4%"}, {8, "2.8%"}, {16, "5.1%"}};
    for (std::size_t i = 0; i < threads.size(); ++i) {
        const auto reported = paper.find(threads[i]);
        summary.addRow({std::to_string(threads[i]),
                        fmtPercent(err[i].mean(), 1),
                        reported == paper.end() ? "-" : reported->second});
    }
    return "Figure 4: actual vs estimated speedup (error metric: Eq. 6, "
           "(S^ - S)/N)\n\n" +
           table.render() + "\n" + summary.render() + "\n";
}

/** Figure 5: each benchmark's stacks across thread counts as ASCII
 *  stacked bars plus the exact component table (CSV). */
std::string
renderStacks(const ExperimentSpec &spec, const Jobs &jobs,
             const Results &results)
{
    const std::size_t nt = spec.threads.size();
    std::string out = "Figure 5: speedup stacks as a function of the "
                      "number of threads\n\n";
    for (std::size_t base = 0; base < jobs.size(); base += nt) {
        std::vector<SpeedupStack> stacks;
        std::vector<std::string> labels;
        out += "== " + jobs[base].label() + " ==\n";
        for (std::size_t i = 0; i < nt; ++i) {
            const JobResult &r = results[base + i];
            const std::string label = std::to_string(spec.threads[i]) + "thr";
            if (!r.ok()) {
                out += label + ": fail (" + r.error + ")\n";
                continue;
            }
            stacks.push_back(r.exp.stack);
            labels.push_back(label);
        }
        if (!stacks.empty())
            out += renderStackBars(stacks, labels, 20) + "\n" +
                   renderStacksCsv(stacks, labels) + "\n";
    }
    return out;
}

/** Figure 6: the classification tree (good / moderate / poor, top-3
 *  delimiters), then speedup and class cross-checked against the
 *  paper's. */
std::string
renderClassify(const ExperimentSpec &spec, const Jobs &jobs,
               const Results &results)
{
    const bool paper = spec.threads[0] == kPaperThreads;
    std::vector<ClassifiedBenchmark> rows;
    TextTable compare;
    compare.setHeader({"benchmark", "speedup (measured)",
                       "speedup (paper)", "class (measured)",
                       "class (paper)"});
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const BenchmarkProfile &p = jobs[i].workload.groups[0].profile;
        const SpeedupExperiment &exp = results[i].exp;
        const bool ok = results[i].ok();
        if (ok)
            rows.push_back(classifyBenchmark(p.label(), p.suite,
                                             exp.actualSpeedup, exp.stack));
        compare.addRow(
            {p.label(), ok ? fmtDouble(exp.actualSpeedup, 2) : "fail",
             paper ? fmtDouble(p.paperSpeedup16, 2) : "-",
             ok ? scalingClassName(classifySpeedup(exp.actualSpeedup))
                : "fail",
             paper ? p.paperClass : "-"});
    }
    return "Figure 6: classification tree at " +
           std::to_string(spec.threads[0]) + " threads\n\n" +
           renderClassificationTree(rows) + "\npaper cross-check:\n" +
           compare.render() + "\n";
}

/** Section 6: parallelization overhead, which the method leaves out,
 *  so the estimation error should correlate with the parallel run's
 *  extra instructions (spin excluded); the paper's two largest error
 *  cases are swaptions_small (+26%) and fluidanimate_medium (+18%). */
std::string
renderOverhead(const ExperimentSpec &spec, const Jobs &jobs,
               const Results &results)
{
    const bool paper = spec.threads[0] == kPaperThreads;
    TextTable table;
    table.setHeader({"benchmark", "extra instructions", "paper",
                     "estimation error"});
    double n = 0, sx = 0, sy = 0, sxy = 0, sxx = 0, syy = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::string label = jobs[i].label();
        const double x = results[i].exp.parOverheadMeasured;
        const double y = results[i].exp.error;
        const bool ok = results[i].ok();
        table.addRow({label, ok ? fmtPercent(x, 1) : "fail",
                      !paper                          ? "-"
                      : label == "swaptions_small"     ? "+26%"
                      : label == "fluidanimate_medium" ? "+18%"
                                                       : "-",
                      ok ? fmtPercent(y, 1) : "fail"});
        if (!ok)
            continue;
        n += 1;
        sx += x;
        sy += y;
        sxy += x * y;
        sxx += x * x;
        syy += y * y;
    }
    const double cov = sxy / n - (sx / n) * (sy / n);
    const double vx = sxx / n - (sx / n) * (sx / n);
    const double vy = syy / n - (sy / n) * (sy / n);
    // Undefined below two benchmarks that ran, or with no spread.
    const double r = cov / std::sqrt(vx * vy);
    return "Section 6: parallelization overhead vs estimation error (" +
           std::to_string(spec.threads[0]) + " threads)\n\n" +
           table.render() + "\ncorrelation(extra instructions, error) = " +
           (std::isfinite(r) ? fmtDouble(r, 2) : "-") +
           " (positive: unaccounted overhead inflates the estimate)\n";
}

/** S^ rebuilt from @p exp's thread counters under @p opts. */
double
estimateWith(const SpeedupExperiment &exp, const ReportOptions &opts)
{
    return buildSpeedupStack(
               computeComponents(exp.parallel.threads, exp.tp, opts), exp.tp)
        .estimatedSpeedup;
}

/** One row per job: its label, then the @p cells of a job that ran or
 *  `fail` in every column. */
template <typename Cells>
std::string
perJobTable(const std::vector<std::string> &header, const Jobs &jobs,
            const Results &results, Cells cells)
{
    TextTable table;
    table.setHeader(header);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        std::vector<std::string> row = {jobs[i].label()};
        for (const std::string &cell :
             results[i].ok() ? cells(jobs[i], results[i].exp)
                             : std::vector<std::string>(header.size() - 1,
                                                        "fail"))
            row.push_back(cell);
        table.addRow(row);
    }
    return table.render();
}

/** Section 4.3: spin per Tp summed over threads (ground truth and each
 *  detector), and S^ with each detector as the spin component; every
 *  column names its detector, whatever machine.stack-detector says. */
std::string
renderDetectors(const ExperimentSpec &spec, const Jobs &jobs,
                const Results &results)
{
    const auto cells = [](const JobSpec &job, const SpeedupExperiment &e) {
        ReportOptions tian = defaultReportOptions(job.params), li = tian;
        tian.spinDetector = AccountingParams::Detector::kTian;
        li.spinDetector = AccountingParams::Detector::kLi;
        const double tp = static_cast<double>(e.tp);
        double gt = 0, det_tian = 0, det_li = 0;
        for (const ThreadCounters &t : e.parallel.threads) {
            gt += static_cast<double>(t.gtSpin()) / tp;
            det_tian += static_cast<double>(t.spinDetectedTian) / tp;
            det_li += static_cast<double>(t.spinDetectedLi) / tp;
        }
        return std::vector<std::string>{
            fmtDouble(gt, 3), fmtDouble(det_tian, 3), fmtDouble(det_li, 3),
            fmtDouble(estimateWith(e, tian), 2),
            fmtDouble(estimateWith(e, li), 2), fmtDouble(e.actualSpeedup, 2)};
    };
    return "Spin detector ablation (" + std::to_string(spec.threads[0]) +
           " threads, cycles summed over threads, in speedup units)\n\n" +
           perJobTable({"benchmark", "ground truth spin", "Tian", "Li",
                        "est. speedup (Tian)", "est. speedup (Li)",
                        "actual"},
                       jobs, results, cells) +
           "\nnote: Tian undercounts spin episodes that end in a yield "
           "(the table is flushed on a context switch); Li accumulates "
           "per loop iteration and keeps the pre-yield portion.\n";
}

/** Section 4.5: the paper leaves coherency misses unaccounted; S^ and
 *  the Eq. 6 error without and with the optional coherency component
 *  (invalid-tag re-references times a fixed penalty). */
std::string
renderCoherency(const ExperimentSpec &spec, const Jobs &jobs,
                const Results &results)
{
    const auto cells = [](const JobSpec &job, const SpeedupExperiment &e) {
        ReportOptions off = defaultReportOptions(job.params), on = off;
        on.accountCoherency = true;
        const double s = e.actualSpeedup, est_off = estimateWith(e, off),
                     est_on = estimateWith(e, on);
        return std::vector<std::string>{
            std::to_string(e.parallel.sumThreads(
                [](const ThreadCounters &t) { return t.coherencyMisses; })),
            fmtDouble(s, 2), fmtDouble(est_off, 2), fmtDouble(est_on, 2),
            fmtPercent(speedupError(est_off, s, e.nthreads), 1),
            fmtPercent(speedupError(est_on, s, e.nthreads), 1)};
    };
    return "Coherency accounting ablation (" +
           std::to_string(spec.threads[0]) + " threads)\n\n" +
           perJobTable({"benchmark", "coherency misses", "actual",
                        "est (off, paper)", "est (on)", "err off", "err on"},
                       jobs, results, cells) +
           "\n";
}

/** Section 4.7: the accounting hardware's bytes per core in the
 *  paper's configuration (HwCostConfig's defaults, which sample one LLC
 *  set in 128 where the simulator samples one in 32) next to the
 *  paper's numbers; then per point of the machine axes (e.g. each ATD
 *  sampling factor) its cost and the mean and max |error| of its jobs. */
std::string
renderHwCost(const ExperimentSpec &spec, const Jobs &jobs,
             const Results &results)
{
    const HwCostBreakdown b = computeHwCost();
    TextTable table;
    table.setHeader({"structure", "bytes/core", "paper"});
    const auto add = [&table](const char *name, std::uint64_t bytes,
                              const char *paper) {
        table.addRow({name, std::to_string(bytes), paper});
    };
    add("ATD (sampled)", b.atdBytes(), "-");
    add("ORA", b.oraBytes(), "-");
    add("event counters", b.counterBytes(), "-");
    add("interference accounting subtotal", b.interferenceBytesPerCore(),
        "952");
    add("spin detection load table", b.spinTableBytes(), "217");
    table.addRule();
    add("total per core", b.totalBytesPerCore(), "~1.1KB");
    add("total 16-core CMP", b.totalBytesChip(16), "~18KB");

    // Each point of the machine axes: its cells, then its jobs.
    std::vector<std::pair<std::vector<std::string>, std::vector<std::size_t>>>
        points;
    std::string labels;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        std::vector<std::string> cells;
        addAxisCells(spec, &jobs[i], cells);
        auto p = std::find_if(
            points.begin(), points.end(),
            [&cells](const auto &q) { return q.first == cells; });
        if (p == points.end())
            p = points.insert(p, {cells, {}});
        p->second.push_back(i);
        if (labels.find(" " + jobs[i].label() + ",") == std::string::npos)
            labels += " " + jobs[i].label() + ",";
    }
    TextTable sweep;
    std::vector<std::string> header;
    addAxisCells(spec, nullptr, header);
    for (const char *c : {"monitored sets", "ATD bytes/core",
                          "total bytes/core", "avg |error|", "max |error|"})
        header.push_back(c);
    sweep.setHeader(header);
    for (const auto &[cells, members] : points) {
        const SimParams &m = jobs[members[0]].params;
        std::vector<std::string> row = cells;
        try {
            validateMachine(m); // the cost model's geometry checks
            HwCostConfig cfg;
            cfg.llcBytes = m.cache.llcBytes;
            cfg.llcWays = m.cache.llcWays;
            cfg.atdSamplingFactor = m.cache.atdSamplingFactor;
            cfg.nbanks = m.dram.nbanks;
            cfg.tian = m.accounting.tian;
            const HwCostBreakdown c = computeHwCost(cfg);
            for (const std::uint64_t v :
                 {cfg.llcBytes / kLineBytes / cfg.llcWays /
                      cfg.atdSamplingFactor,
                  c.atdBytes(), c.totalBytesPerCore()})
                row.push_back(std::to_string(v));
        } catch (const std::invalid_argument &) {
            row.resize(row.size() + 3, "fail");
        }
        RunningStat err;
        for (const std::size_t i : members)
            if (results[i].ok())
                err.add(std::fabs(results[i].exp.error));
        for (const double v : {err.mean(), err.max()})
            row.push_back(err.count() == members.size() ? fmtPercent(v, 1)
                                                        : "fail");
        sweep.addRow(row);
    }
    labels.back() = ')';
    return "Section 4.7: accounting hardware cost\n\n" + table.render() +
           "\nestimation accuracy vs hardware cost (|error| over the jobs of "
           "each row:" +
           labels + "\n\n" + sweep.render() + "\n";
}

} // namespace

const NamedRegistry<ReportView> &
reportRegistry()
{
    static const NamedRegistry<ReportView> registry = [] {
        NamedRegistry<ReportView> r("report view", "report views");
        r.add("table", {"one row per job: speedups, error, delimiters, "
                        "stack components",
                        false, false, renderTable});
        r.add("validation", {"Figure 4: S and S^ per benchmark and thread "
                             "count, average |error|",
                             true, false, renderValidation});
        r.add("stacks", {"Figure 5: stack bars and component CSV per "
                         "benchmark",
                         true, false, renderStacks});
        r.add("classify", {"Figure 6: classification tree at one thread "
                           "count",
                           true, true, renderClassify});
        r.add("overhead", {"Section 6: extra instructions vs estimation "
                           "error at one thread count",
                           true, true, renderOverhead});
        r.add("detectors", {"Section 4.3: ground-truth spin vs the Tian and "
                            "Li detectors, S^ with each",
                            true, true, renderDetectors});
        r.add("coherency", {"Section 4.5: S^ and error without and with "
                            "coherency-miss accounting",
                            true, true, renderCoherency});
        r.add("hw-cost", {"Section 4.7: hardware bytes/core; cost and "
                          "|error| per machine-axis point",
                          false, false, renderHwCost});
        return r;
    }();
    return registry;
}

} // namespace sst
