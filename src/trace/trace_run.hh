/**
 * @file
 * The trace primitives the driver records and replays through
 * (`--record-dir` / `--trace-dir`): workload identities for trace
 * headers, the canonical trace-directory naming, baseline streams
 * encoded by pure generation, and re-simulation of one recorded run
 * without constructing a single ThreadProgram. Assembling the speedup
 * experiment from those runs is the driver's job.
 */

#ifndef SST_TRACE_TRACE_RUN_HH
#define SST_TRACE_TRACE_RUN_HH

#include <string>

#include "sim/params.hh"
#include "sim/run_result.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"
#include "workload/profile.hh"
#include "workload/workload_spec.hh"

namespace sst {

/**
 * Content hash identifying the workload a trace captures: FNV-1a over
 * the canonical profile serialization (the driver fingerprint encoding,
 * so every op-stream-relevant knob participates).
 */
std::uint64_t traceProfileHash(const BenchmarkProfile &profile);

/**
 * Content hash of a whole workload. Equals traceProfileHash() of the
 * single profile for homogeneous specs; heterogeneous specs fold the
 * role and every group's thread count + profile encoding.
 */
std::uint64_t traceWorkloadHash(const WorkloadSpec &workload);

/** Per-group trace identities of @p workload (header / compat check). */
std::vector<trace::TraceGroup> traceGroupsOf(const WorkloadSpec &workload);

/** Trace header describing @p workload recorded under @p params. */
trace::TraceMeta traceMetaFor(const WorkloadSpec &workload,
                              const SimParams &params);

/**
 * Canonical path of @p workload's trace in @p dir. Homogeneous specs
 * are named by profile label and thread count ("cholesky_t4.sstt");
 * heterogeneous specs by the workload label ("a:8+b:8_t16.sstt"), and
 * WDL workloads also carry a short hash of their compiled program.
 * A nonzero replication stream (@p seed_offset, see JobSpec) gets its
 * own `_sK` suffix, a non-default scheduler policy a `_<policy>`
 * suffix, and a random-policy RNG stream a further `_ssK` suffix — so
 * recordings of different configurations coexist instead of silently
 * overwriting each other, and a sweep at a different configuration
 * falls back to live generation instead of tripping over the wrong
 * recording.
 */
std::string tracePathFor(const std::string &dir,
                         const WorkloadSpec &workload,
                         std::uint64_t seed_offset = 0,
                         SchedPolicy policy = SchedPolicy::kAffinityFifo,
                         std::uint64_t sched_seed = 0);

/**
 * Encode group @p group's 1-thread sequential reference program
 * (workloadGroupBaselineSources()) by pure generation — an op stream is
 * a deterministic function of its workload, so no simulation is needed
 * and the bytes equal what a recorded live baseline run would capture.
 */
trace::OpEncoder encodeGeneratedBaseline(const WorkloadSpec &workload,
                                         int group);

/**
 * Fill @p writer's baseline stream of group @p group with
 * encodeGeneratedBaseline(). The stream must be empty.
 */
void appendGeneratedBaseline(TraceWriter &writer,
                             const WorkloadSpec &workload, int group);

/** Replay the parallel run of @p reader (one core per thread, like
 *  simulateWorkload(); the recorded workload's barrier quorums and
 *  affinity hints are reconstructed from the header's group table). */
RunResult replayParallel(const SimParams &params,
                         const TraceReader &reader);

/** Replay group @p group's sequential reference run of @p reader. */
RunResult replayBaseline(const SimParams &params,
                         const TraceReader &reader, int group = 0);

} // namespace sst

#endif // SST_TRACE_TRACE_RUN_HH
