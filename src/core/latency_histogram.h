/**
 * @file
 * Fixed-bucket latency histogram of the serving layer.
 *
 * serving::ServingFrontend records each tenant's queue and service
 * latencies into one of these: 16 logarithmic buckets with upper
 * bounds 0.25 ms * 2^i (i = 0..14) plus a final overflow bucket,
 * covering 0.25 ms .. 4.096 s — the whole useful range of this
 * framework's request latencies at a fixed, schema-stable bucket
 * layout, so histograms recorded by different PRs (and committed in
 * BENCH_*.json reports) stay directly comparable.
 *
 * The histogram is a trivially-copyable value type: stats snapshots
 * copy it wholesale under the owning component's lock.  percentileMs()
 * returns the *upper bound* of the bucket containing the requested
 * quantile — a conservative (never optimistic) estimate, which is the
 * right bias for latency SLO reporting.
 */

#ifndef AQFPSC_CORE_LATENCY_HISTOGRAM_H
#define AQFPSC_CORE_LATENCY_HISTOGRAM_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

namespace aqfpsc::core {

/** Fixed log-bucket latency histogram (see the file comment). */
class LatencyHistogram
{
  public:
    /** Bucket count: 15 bounded buckets + 1 overflow. */
    static constexpr std::size_t kBuckets = 16;

    /** Upper bound of bucket @p i in milliseconds; the last bucket is
     *  unbounded (returns +infinity). */
    static double
    upperBoundMs(std::size_t i)
    {
        if (i + 1 >= kBuckets)
            return std::numeric_limits<double>::infinity();
        return 0.25 * static_cast<double>(std::uint64_t{1} << i);
    }

    /** Record one latency observation. */
    void
    record(double seconds)
    {
        const double ms = seconds * 1e3;
        std::size_t i = 0;
        while (i + 1 < kBuckets && ms > upperBoundMs(i))
            ++i;
        ++counts_[i];
        ++total_;
    }

    /** Observations recorded into bucket @p i. */
    std::uint64_t count(std::size_t i) const { return counts_[i]; }

    /** Total observations recorded. */
    std::uint64_t total() const { return total_; }

    /**
     * Upper bound (ms) of the bucket containing quantile @p q in
     * [0, 1] — a conservative percentile estimate.  Returns 0 when the
     * histogram is empty and +infinity when the quantile lands in the
     * overflow bucket.
     */
    double
    percentileMs(double q) const
    {
        if (total_ == 0)
            return 0.0;
        if (q < 0.0)
            q = 0.0;
        if (q > 1.0)
            q = 1.0;
        // Rank of the quantile observation, 1-based, ceiling: the
        // smallest rank r with r >= q * total.
        std::uint64_t rank = static_cast<std::uint64_t>(
            q * static_cast<double>(total_));
        if (rank * 1.0 < q * static_cast<double>(total_))
            ++rank;
        if (rank == 0)
            rank = 1;
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            seen += counts_[i];
            if (seen >= rank)
                return upperBoundMs(i);
        }
        return upperBoundMs(kBuckets - 1);
    }

    /** One-line summary, e.g. "p50<=2ms p90<=8ms p99<=16ms (n=412)". */
    std::string
    summary() const
    {
        auto fmt = [](double ms) -> std::string {
            if (ms == std::numeric_limits<double>::infinity())
                return ">4096";
            if (ms < 1.0)
                return std::to_string(ms).substr(0, 4);
            return std::to_string(static_cast<long long>(ms));
        };
        return "p50<=" + fmt(percentileMs(0.50)) + "ms p90<=" +
               fmt(percentileMs(0.90)) + "ms p99<=" +
               fmt(percentileMs(0.99)) + "ms (n=" +
               std::to_string(total_) + ")";
    }

  private:
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t total_ = 0;
};

} // namespace aqfpsc::core

#endif // AQFPSC_CORE_LATENCY_HISTOGRAM_H
