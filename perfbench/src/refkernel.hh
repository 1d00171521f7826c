/**
 * @file
 * The reference kernel: a fixed quantum of host work that the
 * benchmark times next to each workload, so that host-speed drift
 * (a shared machine slowing per cycle) divides out of `norm_cost`.
 *
 * Each call reads an 8 MiB table through once, untimed, then performs
 * the same random read-modify-write pass over it and a fixed run of
 * register-only mixing: the same index sequence, the same arithmetic.
 * The untimed read brings the table back into the caches, so what the
 * workload evicted before a call does not change the call's time,
 * while other tenants' pressure on the shared cache and memory still
 * does.  Only the table contents evolve
 * from call to call, so two kernels given the same sequence of calls
 * return the same checksums.  It shares no code with the simulator.
 */

#ifndef PERFBENCH_REFKERNEL_HH
#define PERFBENCH_REFKERNEL_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "stats.hh"

namespace perfbench {

class RefKernel
{
  public:
    /** Table size: 1 Mi words, 8 MiB: past L2, inside the shared L3. */
    static constexpr std::size_t kWords = std::size_t{1} << 20;
    /** Table updates in one call. */
    static constexpr std::uint64_t kTableIters = std::uint64_t{1} << 13;
    /** Register-only mixing steps in one call. */
    static constexpr std::uint64_t kMixIters = 40960;
    /** Calls in one reference unit, the denominator of norm_cost. */
    static constexpr std::uint64_t kUnitCalls = 128;
    /**
     * Host seconds of one reference unit on the quiet host the
     * benchmark was calibrated on; setup_s is reported in seconds of
     * that host.
     */
    static constexpr double kNominalUnitS = 0.017;

    RefKernel() : table_(kWords)
    {
        for (std::size_t i = 0; i < kWords; ++i)
            table_[i] = i * 0x9e3779b97f4a7c15ull;
    }

    /**
     * The memory-bound half: @p iters random read-modify-writes of the
     * table.  Returns the sum of the values read.
     */
    std::uint64_t
    runTable(std::uint64_t iters)
    {
        std::uint64_t x = 0x2545f4914f6cdd1dull;
        std::uint64_t sum = 0;
        for (std::uint64_t i = 0; i < iters; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::uint64_t &w = table_[x & (kWords - 1)];
            sum += w;
            w = w * 6364136223846793005ull + x;
        }
        return sum;
    }

    /** The core-bound half: @p iters dependent mixing steps. */
    static std::uint64_t
    runMix(std::uint64_t seed, std::uint64_t iters)
    {
        std::uint64_t h = seed | 1;
        for (std::uint64_t i = 0; i < iters; ++i) {
            h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ull + i;
            if (h & 1)
                h += 7;
        }
        return h;
    }

    /**
     * Run one call and book the host time of each half.  The thread
     * CPU it used is booked too, so callers can take it out of their
     * own CPU measurements.
     */
    void
    tick()
    {
        const std::int64_t c0 = threadCpuNs();
        const std::int64_t t0 = nowNs();
        // Bring the table back into the caches first, so the timed part
        // does not depend on what the workload evicted before the call.
        std::uint64_t warm = 0;
        for (const std::uint64_t w : table_)
            warm += w;
        const std::int64_t t1 = nowNs();
        const std::uint64_t sum = runTable(kTableIters) + warm;
        const std::int64_t t2 = nowNs();
        sink_ ^= runMix(sum, kMixIters);
        const std::int64_t t3 = nowNs();
        tableNs_ += t2 - t1;
        mixNs_ += t3 - t2;
        bookedNs_ += t3 - t0;
        cpuNs_ += threadCpuNs() - c0;
        ++calls_;
    }

    /** Forget the booked time (start of a new measured interval). */
    void
    resetBooking()
    {
        tableNs_ = 0;
        mixNs_ = 0;
        bookedNs_ = 0;
        cpuNs_ = 0;
        calls_ = 0;
    }

    std::int64_t bookedWallNs() const { return bookedNs_; }
    std::int64_t bookedCpuNs() const { return cpuNs_; }

    /**
     * Host seconds of one reference unit over the booked calls: the
     * geometric mean of the two halves' unit times.  A shared host
     * slows memory-bound and core-bound code by different factors, and
     * the simulator does both kinds of work (see README.md).
     */
    double
    unitSeconds() const
    {
        if (calls_ == 0)
            return 0.0;
        const double scale = double(kUnitCalls) / double(calls_) / 1e9;
        return std::sqrt(double(tableNs_) * scale * double(mixNs_) * scale);
    }

  private:
    std::vector<std::uint64_t> table_;
    /** Folded checksums, so the work cannot be optimised away. */
    std::uint64_t sink_ = 0;
    std::int64_t tableNs_ = 0;
    std::int64_t mixNs_ = 0;
    std::int64_t bookedNs_ = 0;
    std::int64_t cpuNs_ = 0;
    std::uint64_t calls_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REFKERNEL_HH
