/**
 * @file
 * High-level trace workflows tying the capture/replay primitives to the
 * experiment machinery: record a profile's speedup experiment while
 * writing the trace (live results come for free), replay a recorded
 * trace into a bit-identical experiment without constructing a single
 * ThreadProgram, and the canonical trace-directory naming the driver's
 * `--trace-dir` mode uses to find recordings.
 */

#ifndef SST_TRACE_TRACE_RUN_HH
#define SST_TRACE_TRACE_RUN_HH

#include <string>

#include "core/experiment.hh"
#include "sim/params.hh"
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
 * Canonical path of @p profile's @p nthreads-thread trace in @p dir.
 * A nonzero replication stream (@p seed_offset, see JobSpec) gets its
 * own `_sK` suffix, a non-default scheduler policy a `_<policy>`
 * suffix, and a random-policy RNG stream a further `_ssK` suffix — so
 * recordings of different configurations coexist instead of silently
 * overwriting each other, and a sweep at a different configuration
 * falls back to live generation instead of tripping over the wrong
 * recording. Default-configuration names are unchanged.
 */
std::string tracePathFor(const std::string &dir,
                         const BenchmarkProfile &profile, int nthreads,
                         std::uint64_t seed_offset = 0,
                         SchedPolicy policy = SchedPolicy::kAffinityFifo,
                         std::uint64_t sched_seed = 0);

/**
 * As above for a whole workload: homogeneous specs keep the historical
 * profile naming; heterogeneous specs name the file by the workload
 * label ("a:8+b:8_t16.sstt").
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

/**
 * Run the full speedup experiment (1-thread baseline + @p nthreads-run)
 * while recording both op streams, and write the trace container to
 * @p path. Returns the live experiment — identical to what
 * runSpeedupExperiment() produces, since the capture shim is
 * transparent. Throws TraceError (not an assert) on an out-of-range
 * thread count or an unwritable path.
 *
 * @param[out] ops_recorded total ops across all streams when non-null
 */
SpeedupExperiment recordSpeedupTrace(const SimParams &params,
                                     const BenchmarkProfile &profile,
                                     int nthreads,
                                     const std::string &path,
                                     std::uint64_t *ops_recorded = nullptr);

/**
 * As above for a whole workload: per-group 1-thread reference runs
 * (each recorded into its baseline stream) plus the co-scheduled
 * parallel run, all captured into one container at @p path.
 */
SpeedupExperiment recordSpeedupTrace(const SimParams &params,
                                     const WorkloadSpec &workload,
                                     const std::string &path,
                                     std::uint64_t *ops_recorded = nullptr);

/** Replay the parallel run of @p reader (cores pinned like simulate();
 *  the recorded workload's barrier quorums and affinity hints are
 *  reconstructed from the header's group table). */
RunResult replayParallel(const SimParams &params,
                         const TraceReader &reader);

/** Replay group @p group's sequential reference run of @p reader. */
RunResult replayBaseline(const SimParams &params,
                         const TraceReader &reader, int group = 0);

/**
 * Re-simulate both recorded runs of the trace at @p path and assemble
 * the speedup experiment. The scheduler policy recorded in the trace
 * header overrides @p params.schedPolicy (recorded stacks only
 * reproduce under the schedule they were captured with). Bit-identical
 * to the experiment measured at record time when @p params matches; no
 * workload generation happens on this path.
 */
SpeedupExperiment replaySpeedupTrace(const SimParams &params,
                                     const std::string &path);

/** As above, over an already-opened reader (saves a re-parse). */
SpeedupExperiment replaySpeedupTrace(const SimParams &params,
                                     const TraceReader &reader);

} // namespace sst

#endif // SST_TRACE_TRACE_RUN_HH
