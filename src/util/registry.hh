/**
 * @file
 * NamedRegistry: the one lookup-by-name mechanism behind every pluggable
 * axis of an experiment (benchmark profiles, scheduler policies, workload
 * frontends). A registry is an ordered name -> value table plus optional
 * aliases; enumeration order is registration order, so `--list` output,
 * error messages and canonical spec serialization all agree without any
 * hand-maintained label list.
 */

#ifndef SST_UTIL_REGISTRY_HH
#define SST_UTIL_REGISTRY_HH

#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sst {

/**
 * An ordered, enumerable name -> T table. Primary names are what
 * names() enumerates; aliases resolve through find()/at() but stay out
 * of listings (e.g. a profile's bare name "facesim" aliases its first
 * input variant "facesim_small").
 */
template <typename T>
class NamedRegistry
{
  public:
    /** What this registry holds (singular/plural), for error messages. */
    NamedRegistry(std::string subject, std::string plural)
        : subject_(std::move(subject)), plural_(std::move(plural))
    {
    }

    /** Register @p value under primary @p name (must be unique). */
    void
    add(const std::string &name, T value)
    {
        if (index_.count(name))
            throw std::logic_error(subject_ + " '" + name +
                                   "' registered twice");
        index_.emplace(name, entries_.size());
        names_.push_back(name);
        entries_.push_back(std::move(value));
    }

    /**
     * Register @p alias resolving to primary @p name. First registration
     * wins when several targets want the same alias (matching the
     * historical "bare name matches its first input variant" rule); an
     * alias colliding with a primary name is ignored.
     */
    void
    addAlias(const std::string &alias, const std::string &name)
    {
        if (index_.count(alias))
            return;
        index_.emplace(alias, index_.at(name));
    }

    /** Value registered under @p name (or an alias); nullptr unknown. */
    const T *
    find(const std::string &name) const
    {
        const auto it = index_.find(name);
        return it == index_.end() ? nullptr : &entries_[it->second];
    }

    /**
     * Value registered under @p name. Throws std::invalid_argument
     * naming every valid primary name when unknown — the one place the
     * "unknown X, valid: ..." message is generated.
     */
    const T &
    at(const std::string &name) const
    {
        if (const T *v = find(name))
            return *v;
        throw std::invalid_argument("unknown " + subject_ + " '" + name +
                                    "'; valid " + plural_ + ": " +
                                    namesJoined());
    }

    /** Primary names, in registration order. */
    const std::vector<std::string> &names() const { return names_; }

    /** Primary names joined with ", " (error messages, --help). */
    std::string
    namesJoined() const
    {
        std::string out;
        for (const std::string &n : names_) {
            if (!out.empty())
                out += ", ";
            out += n;
        }
        return out;
    }

    const std::string &subject() const { return subject_; }

    std::size_t size() const { return entries_.size(); }

  private:
    std::string subject_;
    std::string plural_;
    std::vector<std::string> names_;
    std::vector<T> entries_;
    std::unordered_map<std::string, std::size_t> index_;
};

} // namespace sst

#endif // SST_UTIL_REGISTRY_HH
