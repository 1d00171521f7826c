/**
 * @file
 * Sharded scale-out netperf: K server machines (one full `net::System`
 * per shard) advancing in parallel under `sim::ShardedEngine`, linked
 * in a telemetry ring through the modeled ToR switch.
 *
 * This is the engine-shard flavor of intra-run parallelism (DESIGN.md
 * §15): every shard runs its own netperf traffic on its own engine,
 * and the shards exchange periodic cross-machine telemetry messages
 * over channels whose lookahead is the minimum inter-machine link
 * latency (`CostModel::interMachineLinkNs`).  The telemetry senders
 * promise silence until their next tick, so the conservative window
 * width is the telemetry period, not the raw wire latency.
 *
 * The result carries a determinism digest folded over every shard's
 * outcome (dispatch counts, traffic totals, telemetry, stats); equal
 * digests across worker counts certify byte-identical execution — the
 * property bench_selfperf's scaling section and tests/test_shard.cc
 * gate on.
 */

#ifndef DAMN_WORK_SHARDED_HH
#define DAMN_WORK_SHARDED_HH

#include "net/system.hh"
#include "sim/shard.hh"
#include "workloads/netperf.hh"

namespace damn::work {

/** Configuration of one sharded scale-out netperf run. */
struct ShardedNetperfOpts
{
    net::ShardPlan plan{};
    dma::SchemeKind scheme = dma::SchemeKind::Damn;
    NetMode mode = NetMode::Rx;
    /** netperf instances on each machine shard. */
    unsigned instancesPerShard = 7;
    std::uint32_t segBytes = 16 * 1024;
    unsigned window = 32;
    double costFactor = 1.0;
    RunWindow runWindow{};
    net::SystemParams sysParams{}; //!< scheme field is overwritten
    /** Worker threads for the sharded engine (1 = serial). */
    unsigned workers = 1;
    /** Stall-watchdog budget in events; 0 leaves the watchdog off. */
    std::uint64_t stallBudgetEvents = 0;
};

/** Aggregated outcome of a sharded run. */
struct ShardedNetperfResult
{
    std::uint64_t events = 0;     //!< dispatched across all shards
    std::uint64_t segments = 0;   //!< in-measurement-window segments
    std::uint64_t bytes = 0;
    double gbps = 0.0;            //!< aggregate over all shards
    double cpuPct = 0.0;          //!< mean machine-wide CPU over shards
    std::uint64_t telemetryReceived = 0;
    std::uint64_t rounds = 0;         //!< conservative windows executed
    std::uint64_t lockstepRounds = 0;
    std::uint64_t messages = 0;       //!< cross-shard deliveries
    /** FNV-1a fold of every shard's outcome; equal digests across
     *  worker counts certify byte-identical execution. */
    std::uint64_t digest = 0;
    std::vector<sim::ShardStall> stalls;
    /** Host wall-clock time of each phase, in ms: building and wiring
     *  the shard Systems, running the rounds and folding the digest,
     *  and destroying the Systems.  Host-dependent, so never part of
     *  the digest or of any report that must be reproducible. */
    double setupWallMs = 0.0;
    double runWallMs = 0.0;
    double teardownWallMs = 0.0;
};

/** Run one sharded scale-out netperf measurement. */
ShardedNetperfResult runShardedNetperf(const ShardedNetperfOpts &opts);

} // namespace damn::work

#endif // DAMN_WORK_SHARDED_HH
