/**
 * @file
 * Small statistics helpers used by the validation harness and the bench
 * binaries: running mean/min/max/stddev.
 */

#ifndef SST_UTIL_STATS_HH
#define SST_UTIL_STATS_HH

#include <cmath>
#include <cstdint>

namespace sst {

/**
 * Incremental summary statistics (Welford's algorithm for the variance so
 * long accumulations stay numerically stable).
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void
    add(double x)
    {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        if (n_ == 1 || x < min_)
            min_ = x;
        if (n_ == 1 || x > max_)
            max_ = x;
        sum_ += x;
    }

    std::uint64_t count() const { return n_; }
    double sum() const { return sum_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    /** Sample variance (n-1 denominator); 0 for fewer than two samples. */
    double
    variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }

    double stddev() const { return std::sqrt(variance()); }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

} // namespace sst

#endif // SST_UTIL_STATS_HH
