/**
 * @file
 * ShardedEngine execution: window planning (earliest-activity
 * fixpoint), deterministic message delivery, and the worker pool.
 */

#include "sim/shard.hh"

#include <algorithm>
#include <cassert>
#include <thread>

namespace damn::sim {

namespace {

/**
 * Generation-counting spin barrier.  Spins briefly then yields, so it
 * behaves on machines with fewer cores than workers (windows are
 * coarse; barrier cost is not the bottleneck either way).
 */
class SpinBarrier
{
  public:
    explicit SpinBarrier(unsigned n) : n_(n) {}

    void
    wait()
    {
        const unsigned gen = gen_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            n_) {
            arrived_.store(0, std::memory_order_relaxed);
            gen_.fetch_add(1, std::memory_order_acq_rel);
            return;
        }
        unsigned spins = 0;
        while (gen_.load(std::memory_order_acquire) == gen)
            if (++spins > 64)
                std::this_thread::yield();
    }

  private:
    const unsigned n_;
    std::atomic<unsigned> arrived_{0};
    std::atomic<unsigned> gen_{0};
};

} // namespace

void
ShardedEngine::send(unsigned channel, Engine::Callback cb)
{
    Channel &ch = channels_[channel];
    const TimeNs at = shards_[ch.src].eng->now();
    assert(at >= ch.promise &&
           "send() violates an active promiseNoSendBefore()");
    ch.outbox.push_back(Msg{timeSatAdd(at, ch.lookahead),
                            std::move(cb)});
}

void
ShardedEngine::promiseNoSendBefore(unsigned channel, TimeNs when)
{
    channels_[channel].promise = when;
}

void
ShardedEngine::deliverOutboxes()
{
    // Fixed global order — channel creation order, then per-channel
    // send order — so destination sequence numbers (the
    // same-timestamp tie-break) are identical at any worker count.
    for (Channel &ch : channels_) {
        for (Msg &m : ch.outbox) {
            shards_[ch.dst].eng->schedule(m.arrival, std::move(m.cb));
            ++stats_.messages;
        }
        ch.outbox.clear();
    }
}

void
ShardedEngine::computePlan(TimeNs until, Plan *plan)
{
    const std::size_t n = shards_.size();
    plan->lockstep = false;
    plan->horizonEnd.assign(n, until);

    TimeNs t = kTimeNever;
    for (Shard &sh : shards_) {
        const TimeNs next = sh.eng->nextEventTime();
        if (next < t)
            t = next;
    }
    if (t == kTimeNever || t > until) {
        plan->done = true;
        return;
    }
    plan->done = false;

    if (channels_.empty())
        return; // independent shards: one wide-open window each

    if (minLookahead_ == 0) {
        // A zero-lookahead edge exists: a send at time T can arrive at
        // T, so no shard may run past T.  Lock-step over exactly the
        // minimal timestamp; delivered same-time messages re-enter the
        // next round (with higher sequence numbers, i.e. serial FIFO
        // order after the pre-existing events at T).
        plan->lockstep = true;
        plan->horizonEnd.assign(n, t);
        return;
    }

    // Earliest-activity fixpoint (Bellman–Ford over the channel
    // graph): activity_[s] lower-bounds the next virtual time shard s
    // can dispatch anything, accounting for transitive cross-shard
    // wakeups.  Seeded with each queue's head; relaxed through every
    // edge (promise-clamped, lookahead-shifted) until stable.  All
    // lookaheads here are >= 1, so cycles strictly increase and n-1
    // passes suffice.
    activity_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        activity_[i] = shards_[i].eng->nextEventTime();
    for (std::size_t pass = 0; pass < n; ++pass) {
        bool changed = false;
        for (const Channel &ch : channels_) {
            const TimeNs cand = timeSatAdd(
                std::max(activity_[ch.src], ch.promise), ch.lookahead);
            if (cand < activity_[ch.dst]) {
                activity_[ch.dst] = cand;
                changed = true;
            }
        }
        if (!changed)
            break;
    }

    // A shard may dispatch strictly below the earliest possible
    // arrival on any of its in-channels.  The shard holding the
    // global-minimum timestamp always keeps it (every bound is
    // >= t + 1), so each round makes progress.
    for (const Channel &ch : channels_) {
        const TimeNs bound = timeSatAdd(
            std::max(activity_[ch.src], ch.promise), ch.lookahead);
        if (bound != kTimeNever && bound - 1 < plan->horizonEnd[ch.dst])
            plan->horizonEnd[ch.dst] = bound - 1;
    }
}

void
ShardedEngine::runShardWindow(unsigned s, const Plan &plan)
{
    Shard &sh = shards_[s];
    try {
        sh.dispatched += sh.eng->run(plan.horizonEnd[s]);
    } catch (...) {
        if (!sh.error)
            sh.error = std::current_exception();
        abort_.store(true, std::memory_order_release);
    }
}

void
ShardedEngine::armShardWatchdogs()
{
    for (unsigned s = 0; s < shards_.size(); ++s) {
        std::function<std::uint64_t()> probe;
        if (wdProgress_)
            probe = [this, s] { return wdProgress_(s); };
        shards_[s].eng->armWatchdog(
            wdMax_, std::move(probe),
            [this, s](const StallInfo &info) { recordStall(s, info); });
    }
}

void
ShardedEngine::recordStall(unsigned s, const StallInfo &info)
{
    std::lock_guard<std::mutex> g(stallMu_);
    stallLog_.push_back(ShardStall{s, shards_[s].name, info});
    abort_.store(true, std::memory_order_release);
    if (wdOnStall_)
        wdOnStall_(stallLog_.back());
}

void
ShardedEngine::runRounds(TimeNs until, unsigned workers)
{
    shardNext_.store(shards_.size(), std::memory_order_relaxed);
    SpinBarrier barrier(workers);

    auto workerBody = [&](unsigned wid) {
        for (;;) {
            if (wid == 0) {
                // Coordinator phase: deliver last round's messages and
                // plan the next window.  Runs strictly between
                // barriers, so it may touch every shard engine.
                bool done = abort_.load(std::memory_order_acquire);
                if (!done) {
                    deliverOutboxes();
                    computePlan(until, &plan_);
                    done = plan_.done;
                }
                if (!done) {
                    ++stats_.rounds;
                    if (plan_.lockstep)
                        ++stats_.lockstepRounds;
                }
                plan_.done = done;
                shardNext_.store(0, std::memory_order_relaxed);
            }
            barrier.wait(); // plan published
            if (plan_.done)
                return;
            for (;;) {
                const std::size_t s =
                    shardNext_.fetch_add(1, std::memory_order_acq_rel);
                if (s >= shards_.size())
                    break;
                runShardWindow(unsigned(s), plan_);
            }
            barrier.wait(); // round complete
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned wid = 1; wid < workers; ++wid)
        pool.emplace_back(workerBody, wid);
    workerBody(0);
    for (std::thread &th : pool)
        th.join();
}

void
ShardedEngine::rethrowFirstError()
{
    for (const Shard &sh : shards_)
        if (sh.error)
            std::rethrow_exception(sh.error);
}

std::uint64_t
ShardedEngine::run(TimeNs until, unsigned workers)
{
    stats_ = ShardRunStats{};
    stallLog_.clear();
    abort_.store(false, std::memory_order_relaxed);
    for (Shard &sh : shards_) {
        sh.dispatched = 0;
        sh.error = nullptr;
    }
    if (wdArmed_)
        armShardWatchdogs();

    const unsigned w = unsigned(std::min<std::size_t>(
        std::max(1u, workers), std::max<std::size_t>(shards_.size(), 1)));
    runRounds(until, w);

    for (const Shard &sh : shards_)
        stats_.dispatched += sh.dispatched;
    std::stable_sort(stallLog_.begin(), stallLog_.end(),
                     [](const ShardStall &a, const ShardStall &b) {
                         return a.shard < b.shard;
                     });
    rethrowFirstError();
    return stats_.dispatched;
}

} // namespace damn::sim
