/**
 * @file
 * Conservative-lookahead sharded simulation: many `sim::Engine`
 * instances advancing in parallel, byte-identical to serial.
 *
 * A ShardedEngine coordinates **shards**: each binds an existing
 * Engine (typically one `sim::Context` / `net::System` partition: a
 * NUMA node, a device, or a client machine), and shards are connected
 * by timestamped **channels**.  A channel carries callbacks from its
 * source shard to its destination shard with a fixed minimum latency —
 * the *lookahead*, derived from the modeled link (PCIe hop, NIC wire,
 * switch hop; see sim/cost_model.hh).  Execution proceeds in
 * conservative windows (classic Chandy–Misra–Bryant null-message
 * reasoning, in its barrier-synchronized LBTS form): each round
 * computes, per shard, a lower bound on the timestamp of any message
 * that could still arrive, lets every shard dispatch freely *below*
 * that bound, then delivers the messages produced by the round.
 * (Fully independent work — isolated configuration cells — needs no
 * engine coordination and runs on sim::parallelFor instead.)
 *
 * Determinism contract (the point of the design): for a fixed input,
 * the outcome — every shard engine's dispatch order, every stat,
 * every trace — is **byte-identical at any worker count**, because
 *
 *  1. a shard's window is executed by exactly one worker, and the
 *     window bounds are pure functions of queue state, not timing;
 *  2. cross-shard sends only buffer into the (source-confined) channel
 *     outbox during a round and are delivered *between* rounds in a
 *     fixed global order: channel-creation order, then per-channel
 *     send order — so destination-engine sequence numbers (the
 *     same-timestamp FIFO tie-break) never depend on scheduling.
 *
 * Zero-lookahead edges are legal and degrade gracefully: rounds
 * become lock-steps over one timestamp, and a same-timestamp message
 * is scheduled *after* the destination's pre-existing events at that
 * instant (higher sequence number) — exactly the order a serial
 * engine would produce.
 *
 * Senders can widen windows beyond the raw link lookahead with
 * promiseNoSendBefore(): a contract that the channel stays quiet
 * until a given virtual time (e.g. a periodic telemetry source
 * promises silence until its next tick).  This is the null message of
 * the classic algorithm, expressed as state instead of traffic.
 */

#ifndef DAMN_SIM_SHARD_HH
#define DAMN_SIM_SHARD_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sim/engine.hh"
#include "sim/types.hh"

namespace damn::sim {

/** A stall report from one shard's engine watchdog. */
struct ShardStall
{
    unsigned shard = 0;    //!< shard id (addShard order)
    std::string name;      //!< shard name
    StallInfo info;        //!< the engine-level diagnostic
};

/** Aggregate counters of the most recent run(). */
struct ShardRunStats
{
    std::uint64_t rounds = 0;         //!< conservative windows executed
    std::uint64_t lockstepRounds = 0; //!< rounds pinned to one timestamp
    std::uint64_t messages = 0;       //!< cross-shard callbacks delivered
    std::uint64_t dispatched = 0;     //!< events dispatched across shards
};

/**
 * Coordinator for conservative parallel discrete-event simulation.
 *
 * Thread-confinement rules callers must follow:
 *  - shard callbacks may touch only their own shard's state, and may
 *    call send()/promiseNoSendBefore() only on channels whose source
 *    is the executing shard;
 *  - the watchdog progress probe for shard `s` is invoked on the
 *    worker currently running `s` and must read only `s`-local state.
 * `verify-tsan` audits these rules for everything routed through the
 * bench driver.
 */
class ShardedEngine
{
  public:
    ShardedEngine() = default;
    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    /**
     * Bind @p eng as a new shard.  The engine is not owned; it must
     * outlive the ShardedEngine and must not be run()/scheduled by
     * anyone else while a sharded run is in flight.
     * @return the shard id (dense, addShard order).
     */
    unsigned
    addShard(std::string name, Engine &eng)
    {
        shards_.push_back(Shard{std::move(name), &eng, 0, {}});
        return unsigned(shards_.size() - 1);
    }

    /**
     * Create a directed channel src → dst with the given lookahead: a
     * callback sent at source-virtual-time t executes on the
     * destination engine at t + lookaheadNs.  Use the minimum modeled
     * latency of the physical link the channel represents — larger
     * lookahead means wider windows and fewer barriers.
     * @return the channel id (creation order = delivery order).
     */
    unsigned
    connect(unsigned src, unsigned dst, TimeNs lookaheadNs)
    {
        channels_.push_back(Channel{src, dst, lookaheadNs, 0, {}});
        if (lookaheadNs < minLookahead_)
            minLookahead_ = lookaheadNs;
        return unsigned(channels_.size() - 1);
    }

    /** The engine bound to shard @p s. */
    Engine &engine(unsigned s) { return *shards_[s].eng; }

    const std::string &shardName(unsigned s) const
    {
        return shards_[s].name;
    }

    unsigned shardCount() const { return unsigned(shards_.size()); }

    /** Minimum lookahead over all channels (kTimeNever when there are
     *  no channels — every shard is independent). */
    TimeNs minLookaheadNs() const { return minLookahead_; }

    /**
     * Send a callback over @p channel.  Must be called from the source
     * shard's executing context (or before run() starts, at source
     * virtual time 0).  The callback is delivered to the destination
     * engine at source-now + lookahead, after the current round — at
     * equal timestamps it dispatches after the destination's
     * pre-existing events, matching serial engine FIFO order.
     */
    void send(unsigned channel, Engine::Callback cb);

    /**
     * Promise that no further send() will happen on @p channel before
     * source virtual time @p when (sends at exactly @p when are
     * allowed).  Widens every window bound that the channel
     * constrains; violated promises trip an assert.  A new send
     * implicitly re-promises nothing — call again after each send for
     * periodic sources.
     */
    void promiseNoSendBefore(unsigned channel, TimeNs when);

    /**
     * Advance every shard to @p until (events at exactly @p until
     * still fire) using @p workers threads, the caller's among them.
     * Every worker count runs the same round algorithm (workers == 1
     * starts no thread), so the outcome is byte-identical at any count
     * by construction.  @return events dispatched across all shards.
     */
    std::uint64_t run(TimeNs until, unsigned workers);

    /** run() until every shard's queue drains. */
    std::uint64_t
    runAll(unsigned workers)
    {
        return run(kTimeNever, workers);
    }

    // ---- Per-shard stall watchdog -----------------------------------

    /**
     * Arm the stall watchdog on every shard engine for subsequent
     * runs.  @p progress is polled with the shard id on the worker
     * running that shard; a flat reading for
     * @p max_events_without_progress dispatches trips a ShardStall,
     * invokes @p on_stall (serialized), and aborts the whole run at
     * the next round boundary.  Dispatch-count based, hence
     * deterministic at any worker count.
     */
    void
    armWatchdog(std::uint64_t max_events_without_progress,
                std::function<std::uint64_t(unsigned)> progress,
                std::function<void(const ShardStall &)> on_stall = {})
    {
        wdArmed_ = true;
        wdMax_ = max_events_without_progress;
        wdProgress_ = std::move(progress);
        wdOnStall_ = std::move(on_stall);
    }

    /** Stall reports of the most recent run, in shard order. */
    const std::vector<ShardStall> &stalls() const { return stallLog_; }

    std::uint64_t stallsDetected() const { return stallLog_.size(); }

    /** Counters of the most recent run(). */
    const ShardRunStats &lastRunStats() const { return stats_; }

  private:
    struct Msg
    {
        TimeNs arrival;
        Engine::Callback cb;
    };

    struct Channel
    {
        unsigned src;
        unsigned dst;
        TimeNs lookahead;
        /** promiseNoSendBefore() bound (absolute virtual time). */
        TimeNs promise;
        /** Round-local buffer; source-confined during execution,
         *  drained by the coordinator between rounds. */
        std::vector<Msg> outbox;
    };

    struct Shard
    {
        std::string name;
        Engine *eng;
        std::uint64_t dispatched;  //!< this run, via windows
        std::exception_ptr error;
    };

    /** One round's marching orders (computed by the coordinator). */
    struct Plan
    {
        bool done = false;
        bool lockstep = false;
        /** Per shard: dispatch events with when <= horizonEnd[s]. */
        std::vector<TimeNs> horizonEnd;
    };

    void deliverOutboxes();
    void computePlan(TimeNs until, Plan *plan);
    void runShardWindow(unsigned s, const Plan &plan);
    void armShardWatchdogs();
    void recordStall(unsigned s, const StallInfo &info);
    void runRounds(TimeNs until, unsigned workers);
    void rethrowFirstError();

    std::vector<Shard> shards_;
    std::vector<Channel> channels_;
    TimeNs minLookahead_ = kTimeNever;

    // Per-run coordination state.
    Plan plan_;
    std::vector<TimeNs> activity_;  //!< EA relaxation scratch
    std::atomic<bool> abort_{false};
    std::atomic<std::size_t> shardNext_{0};
    ShardRunStats stats_;

    // Watchdog state.
    bool wdArmed_ = false;
    std::uint64_t wdMax_ = 0;
    std::function<std::uint64_t(unsigned)> wdProgress_;
    std::function<void(const ShardStall &)> wdOnStall_;
    std::mutex stallMu_;
    std::vector<ShardStall> stallLog_;
};

} // namespace damn::sim

#endif // DAMN_SIM_SHARD_HH
