/**
 * @file
 * Sharded-simulation suite (ctest labels `shard`, `par`): the
 * conservative-lookahead parallel engine (sim/shard.hh) must be
 * byte-identical to serial at any worker count, handle zero-lookahead
 * edges in serial FIFO order, honor sender promises, report per-shard
 * stalls, and run the sharded netperf workload to identical digests.
 *
 * Built into the verify-tsan tree as well: under -fsanitize=thread the
 * multi-worker cases double as a data-race audit of the round
 * protocol and the channel outboxes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sim/shard.hh"
#include "workloads/sharded.hh"

using namespace damn;

namespace {

// ---------------------------------------------------------------------
// Engine peek primitive
// ---------------------------------------------------------------------

TEST(Shard, NextEventTimePeeksAndPrunes)
{
    sim::Engine eng;
    EXPECT_EQ(eng.nextEventTime(), sim::kTimeNever);
    const auto id = eng.schedule(50, [] {});
    eng.schedule(90, [] {});
    EXPECT_EQ(eng.nextEventTime(), 50u);
    // A cancelled head must be pruned, not reported.
    eng.cancel(id);
    EXPECT_EQ(eng.nextEventTime(), 90u);
    eng.runAll();
    EXPECT_EQ(eng.nextEventTime(), sim::kTimeNever);
}

// ---------------------------------------------------------------------
// Cross-shard message exchange vs a single-engine reference
// ---------------------------------------------------------------------

/** Two shards ping-pong a counter; the single-engine reference runs
 *  the same exchange with plain schedule() calls.  The sharded run
 *  must match the reference trace exactly, at every worker count. */
std::vector<std::uint64_t>
pingPongReference(unsigned hops, sim::TimeNs latency)
{
    sim::Engine eng;
    std::vector<std::uint64_t> trace;
    std::function<void(unsigned)> hop = [&](unsigned n) {
        trace.push_back(eng.now());
        if (n + 1 < hops)
            eng.scheduleIn(latency, [&hop, n] { hop(n + 1); });
    };
    eng.schedule(10, [&hop] { hop(0); });
    eng.runAll();
    return trace;
}

std::vector<std::uint64_t>
pingPongSharded(unsigned hops, sim::TimeNs latency, unsigned workers)
{
    sim::Engine a, b;
    sim::ShardedEngine se;
    se.addShard("a", a);
    se.addShard("b", b);
    const unsigned ab = se.connect(0, 1, latency);
    const unsigned ba = se.connect(1, 0, latency);

    std::vector<std::uint64_t> trace;
    struct Ctx
    {
        sim::ShardedEngine *se;
        sim::Engine *self;
        unsigned out;     //!< channel to the peer
        Ctx *peer;
        std::vector<std::uint64_t> *trace;
        unsigned hops;
    };
    Ctx ca{&se, &a, ab, nullptr, &trace, hops};
    Ctx cb{&se, &b, ba, &ca, &trace, hops};
    ca.peer = &cb;
    std::function<void(Ctx *, unsigned)> hop = [&hop](Ctx *c,
                                                      unsigned n) {
        c->trace->push_back(c->self->now());
        if (n + 1 < c->hops) {
            Ctx *peer = c->peer;
            c->se->send(c->out,
                        [&hop, peer, n] { hop(peer, n + 1); });
        }
    };
    a.schedule(10, [&hop, &ca] { hop(&ca, 0); });
    se.runAll(workers);
    return trace;
}

TEST(Shard, PingPongMatchesSingleEngineReference)
{
    const auto ref = pingPongReference(12, 250);
    ASSERT_EQ(ref.size(), 12u);
    for (const unsigned workers : {1u, 2u, 4u})
        EXPECT_EQ(pingPongSharded(12, 250, workers), ref)
            << "workers=" << workers;
}

// ---------------------------------------------------------------------
// Zero-lookahead edges: serial FIFO order at equal timestamps
// ---------------------------------------------------------------------

TEST(Shard, ZeroLookaheadDeliversAfterPreexistingSameTimeEvents)
{
    // Regression for the same-timestamp tie-break: a message sent over
    // a zero-lookahead channel at time T must dispatch *after* the
    // destination's pre-existing events at T — the order a single
    // serial engine would produce for a callback scheduled at `now`.
    for (const unsigned workers : {1u, 2u, 4u}) {
        sim::Engine src, dst;
        sim::ShardedEngine se;
        se.addShard("src", src);
        se.addShard("dst", dst);
        const unsigned ch = se.connect(0, 1, 0);

        // The two shards may run on different workers in the same
        // round, so the shared log takes a lock.
        std::mutex mu;
        std::vector<std::string> order;
        auto log = [&mu, &order](const char *what) {
            const std::lock_guard<std::mutex> g(mu);
            order.push_back(what);
        };
        dst.schedule(100, [&log] { log("dst-pre"); });
        src.schedule(100, [&] {
            log("src-send");
            se.send(ch, [&log] { log("dst-msg"); });
        });
        se.runAll(workers);

        // Shard execution order within a lockstep round is
        // unspecified between different shards' events; what is
        // guaranteed is dst-pre before dst-msg on the destination.
        const auto pre = std::find(order.begin(), order.end(),
                                   "dst-pre");
        const auto msg = std::find(order.begin(), order.end(),
                                   "dst-msg");
        ASSERT_NE(pre, order.end()) << "workers=" << workers;
        ASSERT_NE(msg, order.end()) << "workers=" << workers;
        EXPECT_LT(pre - order.begin(), msg - order.begin())
            << "workers=" << workers;
        EXPECT_GT(se.lastRunStats().lockstepRounds, 0u)
            << "zero lookahead must force lock-step rounds";
    }
}

// ---------------------------------------------------------------------
// Promises widen windows (null messages as state)
// ---------------------------------------------------------------------

TEST(Shard, PromisesReduceRoundCount)
{
    // Two shards with busy local timers and one quiet channel: without
    // a promise the window is bounded by src activity + lookahead;
    // with a promise covering the whole run the shards advance in one
    // window each.
    const auto rounds = [](bool promise) {
        sim::Engine a, b;
        sim::ShardedEngine se;
        se.addShard("a", a);
        se.addShard("b", b);
        const unsigned ch = se.connect(0, 1, 100);
        for (sim::TimeNs t = 10; t <= 10000; t += 10) {
            a.schedule(t, [] {});
            b.schedule(t, [] {});
        }
        if (promise)
            se.promiseNoSendBefore(ch, 1'000'000);
        se.run(10000, 1);
        return se.lastRunStats().rounds;
    };
    const std::uint64_t quiet = rounds(true);
    const std::uint64_t chatty = rounds(false);
    EXPECT_LT(quiet, chatty);
    EXPECT_LE(quiet, 2u);
}

// ---------------------------------------------------------------------
// Per-shard stall watchdog
// ---------------------------------------------------------------------

TEST(Shard, WatchdogReportsStallingShardByName)
{
    for (const unsigned workers : {1u, 2u}) {
        sim::Engine healthy, stuck;
        sim::ShardedEngine se;
        se.addShard("healthy", healthy);
        se.addShard("stuck", stuck);

        // Both shards run self-perpetuating timers; only the healthy
        // one's progress probe advances.
        std::uint64_t healthyWork = 0;
        std::function<void()> h = [&] {
            ++healthyWork;
            healthy.scheduleIn(10, h);
        };
        std::function<void()> s = [&] { stuck.scheduleIn(10, s); };
        healthy.schedule(10, h);
        stuck.schedule(10, s);

        se.armWatchdog(1000, [&healthyWork](unsigned shard) {
            return shard == 0 ? healthyWork : 0;
        });
        se.run(1'000'000, workers);

        ASSERT_EQ(se.stallsDetected(), 1u) << "workers=" << workers;
        EXPECT_EQ(se.stalls()[0].shard, 1u);
        EXPECT_EQ(se.stalls()[0].name, "stuck");
        EXPECT_GE(se.stalls()[0].info.eventsSinceProgress, 1000u);
    }
}

// ---------------------------------------------------------------------
// Sharded netperf: digests identical at any worker count
// ---------------------------------------------------------------------

TEST(Shard, ShardedNetperfDigestIdenticalAcrossWorkers)
{
    work::ShardedNetperfOpts o;
    o.plan.shards = 3;
    o.runWindow = work::RunWindow{sim::kNsPerMs, 2 * sim::kNsPerMs};
    o.instancesPerShard = 4;
    o.stallBudgetEvents = 200'000;

    o.workers = 1;
    const work::ShardedNetperfResult serial =
        work::runShardedNetperf(o);
    EXPECT_GT(serial.segments, 0u);
    EXPECT_GT(serial.telemetryReceived, 0u);
    EXPECT_TRUE(serial.stalls.empty());
    for (const unsigned workers : {2u, 4u}) {
        o.workers = workers;
        const work::ShardedNetperfResult r =
            work::runShardedNetperf(o);
        EXPECT_EQ(r.digest, serial.digest) << "workers=" << workers;
        EXPECT_EQ(r.events, serial.events) << "workers=" << workers;
        EXPECT_EQ(r.segments, serial.segments)
            << "workers=" << workers;
        EXPECT_EQ(r.messages, serial.messages)
            << "workers=" << workers;
    }
}

} // namespace
