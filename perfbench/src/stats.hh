/**
 * @file
 * Small numeric helpers of the benchmark: medians, the reporting
 * percentile rule, FNV-1a digests and process clocks.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <time.h>

namespace perfbench {

/** Median of @p v (0 for an empty set); sorts a copy. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The highest of the standard reporting percentiles (50, 90, 99,
 * 99.9, 99.99) that leaves at least ten samples beyond it; 0 when even
 * the median does not (fewer than 20 samples).
 */
inline double
tailPercentile(std::size_t samples)
{
    static constexpr double kCandidates[] = {99.99, 99.9, 99.0, 90.0,
                                             50.0};
    for (const double p : kCandidates)
        if (double(samples) * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
            return p;
    return 0.0;
}

/** Nearest-rank percentile @p p of @p sorted (ascending). */
template <class T>
double
percentileOf(const std::vector<T> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    // Nearest rank: the smallest value with at least p% of the samples
    // at or below it.
    const double r = std::ceil(p / 100.0 * double(sorted.size()));
    const std::size_t rank = r < 1.0 ? 0 : std::size_t(r) - 1;
    return double(sorted[std::min(rank, sorted.size() - 1)]);
}

/**
 * Median and tail of one latency sample set.  The tail is reported at
 * @p want_pct, lowered to tailPercentile(n) when fewer than ten
 * samples lie beyond @p want_pct.
 */
struct Tail
{
    double p50 = 0.0;
    double tail = 0.0;
    double tailPct = 0.0; //!< percentile the tail value was taken at
    std::size_t samples = 0;
};

template <class T>
Tail
summarize(std::vector<T> samples, double want_pct)
{
    Tail t;
    t.samples = samples.size();
    if (samples.empty())
        return t;
    std::sort(samples.begin(), samples.end());
    t.p50 = percentileOf(samples, 50.0);
    t.tailPct = std::min(want_pct, tailPercentile(samples.size()));
    t.tail = t.tailPct > 0.0 ? percentileOf(samples, t.tailPct)
                             : double(samples.back());
    return t;
}

/** FNV-1a over the bytes of values and strings. */
class Fnv
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ull;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof v); }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/** Monotonic wall clock in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time of the calling thread in nanoseconds. */
inline std::int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return std::int64_t(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/** User and system CPU of the whole process, nanoseconds. */
struct ProcCpu
{
    std::int64_t userNs = 0;
    std::int64_t sysNs = 0;

    std::int64_t total() const { return userNs + sysNs; }

    static ProcCpu
    now()
    {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        const auto ns = [](const timeval &tv) {
            return std::int64_t(tv.tv_sec) * 1000000000 +
                   std::int64_t(tv.tv_usec) * 1000;
        };
        return {ns(ru.ru_utime), ns(ru.ru_stime)};
    }

    ProcCpu
    operator-(const ProcCpu &o) const
    {
        return {userNs - o.userNs, sysNs - o.sysNs};
    }
};

/** Peak resident set of the process in MiB. */
inline double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
