/**
 * @file
 * Claim-or-defer sharing of 1-thread baseline runs between jobs.
 *
 * Jobs that differ only in thread count (or in anything else the
 * 1-thread run does not depend on) share one baseline. A job does not
 * block on a baseline another job is computing: it *claims* each of its
 * group baselines and gets one of three answers —
 *  - have:    the run is ready; use it;
 *  - compute: this job owns the slot; simulate the run now and publish
 *             it (or abandon it with the error);
 *  - pending: another job is computing it. The caller runs its parallel
 *             simulation first, which does not need the baseline, and
 *             collects the baseline with await() just before it
 *             assembles the experiment.
 *
 * A claim belongs to the job that made it. A backend that can lose a
 * job (a served worker that dies mid-lease) releases the job's
 * unpublished claims, and the next asker of such a slot gets compute.
 *
 * Two backends implement the interface: LocalBaselineStore (one
 * in-process table, used by the batch driver's pool and by the server,
 * which also answers external workers from it) and the remote store of
 * `sst worker` (src/serve/worker.cc), which asks that server table over
 * the protocol's `baseline` / `baseline-done` verbs.
 */

#ifndef SST_DRIVER_BASELINE_STORE_HH
#define SST_DRIVER_BASELINE_STORE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/run_result.hh"

namespace sst {

/** One group baseline of one job. */
struct BaselineSlot
{
    /** The claiming job (its queue id); claims are released per job. */
    std::uint64_t job = 0;

    /** Group index within the job's workload (what remote backends name). */
    int group = 0;

    /**
     * Canonical fingerprintWorkloadGroupBaseline() text: equal keys
     * name identical 1-thread runs (what in-process backends key on).
     */
    std::string key;
};

/** The store's answer to a claim. */
struct BaselineTicket
{
    enum class Claim : std::uint8_t {
        kHave,    ///< ready: `run` holds it
        kCompute, ///< the caller owns the slot: compute, then publish
        kPending, ///< another job is computing it: await() later
    };

    Claim claim = Claim::kPending;
    std::shared_ptr<const RunResult> run; ///< set for kHave
};

/** Claim / publish / await access to shared baselines. See file comment. */
class BaselineStore
{
  public:
    virtual ~BaselineStore() = default;

    /**
     * Claim @p slot without blocking. Rethrows the owner's exception
     * when the slot's computation failed.
     */
    virtual BaselineTicket claim(const BaselineSlot &slot) = 0;

    /**
     * Block while another job computes @p slot. Returns kHave, or
     * kCompute when the slot's owner released it (the caller now owns
     * it). Rethrows the owner's exception like claim().
     */
    virtual BaselineTicket await(const BaselineSlot &slot) = 0;

    /**
     * Publish the run of a slot the caller owns (or that nobody holds:
     * its claim was released). Returns false, dropping @p run, when
     * another job holds the slot.
     */
    virtual bool publish(const BaselineSlot &slot,
                         std::shared_ptr<const RunResult> run) = 0;

    /** The owner's computation of @p slot threw @p error. Ignored from
     *  a job that no longer owns the slot. */
    virtual void abandon(const BaselineSlot &slot,
                         std::exception_ptr error) = 0;

    /**
     * The owner gives @p slot up unpublished for a reason of its own (a
     * malformed recording of the run, not the run itself): the next
     * claim answers kCompute. Ignored from a job that does not own it.
     */
    virtual void release(const BaselineSlot &slot) = 0;
};

/** The in-process backend: one thread-safe table of baseline slots. */
class LocalBaselineStore final : public BaselineStore
{
  public:
    BaselineTicket claim(const BaselineSlot &slot) override;
    BaselineTicket await(const BaselineSlot &slot) override;
    bool publish(const BaselineSlot &slot,
                 std::shared_ptr<const RunResult> run) override;

    /** Every awaiter of the slot, now and later, rethrows @p error. */
    void abandon(const BaselineSlot &slot,
                 std::exception_ptr error) override;
    void release(const BaselineSlot &slot) override;

    /**
     * Release every unpublished claim of @p job: the next claim of each
     * of those slots answers kCompute. Returns the claims released.
     */
    std::size_t release(std::uint64_t job);

    /**
     * Release every unpublished claim, so every awaiter returns (as the
     * slot's new owner). For shutdown, when owners may never finish.
     */
    std::size_t releaseAll();

  private:
    struct Entry
    {
        std::uint64_t owner = 0;
        std::shared_ptr<const RunResult> run; ///< set once published
        std::exception_ptr error;             ///< set once abandoned
    };

    /** Answer a claim with the lock held; grants absent slots. */
    BaselineTicket claimLocked(const BaselineSlot &slot);

    /** Release the unpublished claims whose owner satisfies @p pred. */
    template <typename Pred>
    std::size_t releaseIf(Pred pred);

    std::mutex mutex_;
    std::condition_variable changed_;
    std::unordered_map<std::string, Entry> entries_; ///< absent = unclaimed
};

} // namespace sst

#endif // SST_DRIVER_BASELINE_STORE_HH
