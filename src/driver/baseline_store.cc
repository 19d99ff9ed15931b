#include "baseline_store.hh"

namespace sst {

BaselineTicket
LocalBaselineStore::claimLocked(const BaselineSlot &slot)
{
    BaselineTicket ticket;
    auto [it, absent] = entries_.try_emplace(slot.key);
    Entry &entry = it->second;
    if (absent) {
        entry.owner = slot.job;
        ticket.claim = BaselineTicket::Claim::kCompute;
    } else if (entry.error) {
        std::rethrow_exception(entry.error);
    } else if (entry.run) {
        ticket.claim = BaselineTicket::Claim::kHave;
        ticket.run = entry.run;
    }
    return ticket;
}

BaselineTicket
LocalBaselineStore::claim(const BaselineSlot &slot)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return claimLocked(slot);
}

BaselineTicket
LocalBaselineStore::await(const BaselineSlot &slot)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        BaselineTicket ticket = claimLocked(slot);
        if (ticket.claim != BaselineTicket::Claim::kPending)
            return ticket;
        changed_.wait(lock);
    }
}

bool
LocalBaselineStore::publish(const BaselineSlot &slot,
                            std::shared_ptr<const RunResult> run)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, absent] = entries_.try_emplace(slot.key);
        Entry &entry = it->second;
        if (absent)
            entry.owner = slot.job; // a released claim's late publish
        else if (entry.owner != slot.job)
            return false;
        if (!entry.run && !entry.error)
            entry.run = std::move(run);
    }
    changed_.notify_all();
    return true;
}

void
LocalBaselineStore::abandon(const BaselineSlot &slot,
                            std::exception_ptr error)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // A released owner's failure must not poison a re-granted slot.
        const auto it = entries_.find(slot.key);
        if (it == entries_.end() || it->second.owner != slot.job)
            return;
        Entry &entry = it->second;
        if (!entry.run && !entry.error)
            entry.error = std::move(error);
    }
    changed_.notify_all();
}

void
LocalBaselineStore::release(const BaselineSlot &slot)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(slot.key);
        if (it == entries_.end() || it->second.owner != slot.job ||
            it->second.run || it->second.error)
            return;
        entries_.erase(it);
    }
    changed_.notify_all();
}

template <typename Pred>
std::size_t
LocalBaselineStore::releaseIf(Pred pred)
{
    std::size_t released = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = entries_.begin(); it != entries_.end();) {
            const Entry &entry = it->second;
            if (!entry.run && !entry.error && pred(entry.owner)) {
                it = entries_.erase(it);
                ++released;
            } else {
                ++it;
            }
        }
    }
    if (released > 0)
        changed_.notify_all();
    return released;
}

std::size_t
LocalBaselineStore::release(std::uint64_t job)
{
    return releaseIf([job](std::uint64_t owner) { return owner == job; });
}

std::size_t
LocalBaselineStore::releaseAll()
{
    return releaseIf([](std::uint64_t) { return true; });
}

} // namespace sst
