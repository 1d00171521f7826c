/**
 * @file
 * The one host-side worker pool: run n independent work items on up
 * to `workers` threads.
 *
 * Every parallel sweep in the tree goes through parallelFor(): the
 * driver's (experiment, rep) units and their queued cells
 * (exp::runExperiments) and damn_fuzz's scheme x backend matrix.  Items
 * are claimed from one atomic counter, so which thread runs which item
 * is scheduling noise; callers keep output deterministic by writing
 * each item's result to its own slot and merging the slots in index
 * order.  `sim::ShardedEngine`'s PDES workers are the only other
 * threads the simulator starts.
 */

#ifndef DAMN_SIM_PARALLEL_HH
#define DAMN_SIM_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace damn::sim {

/**
 * Call fn(i) exactly once for every i in [0, n), on min(workers, n)
 * threads, the caller's among them (fewer if the host refuses to start
 * one).  With one worker the items run inline on the caller in index
 * order and no thread is started.  An item that throws does not stop
 * the others: once all have finished, the first failure in index
 * order is rethrown.
 */
template <typename Fn>
void
parallelFor(std::size_t n, unsigned workers, Fn &&fn)
{
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    const auto drain = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    const std::size_t threads = std::min<std::size_t>(workers, n);
    std::vector<std::thread> pool;
    pool.reserve(threads > 1 ? threads - 1 : 0);
    try {
        for (std::size_t w = 1; w < threads; ++w)
            pool.emplace_back(drain);
    } catch (const std::system_error &) {
        // The host refused a thread: the ones started and the caller
        // still claim every item, on fewer workers.
    }
    drain();
    for (std::thread &t : pool)
        t.join();
    for (const std::exception_ptr &ep : errors)
        if (ep)
            std::rethrow_exception(ep);
}

} // namespace damn::sim

#endif // DAMN_SIM_PARALLEL_HH
