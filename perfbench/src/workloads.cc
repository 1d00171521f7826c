/**
 * @file
 * The four workloads: netperf_bidi_strict, netperf_bidi_damn,
 * rdma_sweep and shard4_damn.
 */

#include "workloads.hh"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "dma_probe.hh"
#include "exp/driver.hh"
#include "net/nic.hh"
#include "net/stack.hh"
#include "net/system.hh"
#include "sim/rng.hh"
#include "workloads/netperf.hh"
#include "workloads/sharded.hh"

namespace perfbench {

namespace sim = damn::sim;
namespace net = damn::net;
namespace dma = damn::dma;
namespace work = damn::work;
namespace exp = damn::exp;

namespace {

/** Reference-kernel calls made before and after an opaque call. */
constexpr unsigned kBracketCalls = 8;

/** Events without progress before a netperf run counts as stalled. */
constexpr std::uint64_t kStallBudgetEvents = 4000000;

/** Simulated time after stream teardown for in-flight work to end. */
constexpr sim::TimeNs kDrainNs = 100 * sim::kNsPerMs;

/** netperf_bidi_*'s simulated window: warm-up, then measurement. */
constexpr unsigned kNetperfWarmupMs = 2;
constexpr unsigned kNetperfMeasureMs = 100;

/** shard4_damn's simulated window. */
constexpr work::RunWindow kShardWindow{2 * sim::kNsPerMs,
                                       60 * sim::kNsPerMs};

/** Process CPU and wall clock at one instant. */
struct Stamp
{
    std::int64_t wall = nowNs();
    ProcCpu cpu = ProcCpu::now();
};

void
foldStats(Fnv &h, const std::map<std::string, std::uint64_t> &stats)
{
    for (const auto &[name, value] : stats) {
        h.str(name);
        h.u64(value);
    }
}

void
foldBundle(Fnv &h, const sim::TraceBundle &b)
{
    for (const auto &c : b.categories) {
        h.str(c.name);
        h.u64(c.ns);
        h.u64(c.bytes);
        h.u64(c.events);
    }
    h.u64(b.totalBusyNs);
}

double
statOf(const std::map<std::string, std::uint64_t> &stats,
       const char *name)
{
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : double(it->second);
}

// ---------------------------------------------------------------------
// netperf_bidi_*: one System, 56 flows, stepped in 1 ms slices.

class NetperfBidi final : public Workload
{
  public:
    NetperfBidi(dma::SchemeKind scheme, std::uint64_t seed)
        : opts_(work::bidirectionalOpts(scheme)),
          flows_(bidiFlows(seed, opts_.sysParams.sockets *
                                     opts_.sysParams.coresPerSocket))
    {}

    /** The run phase calls the kernel every 2 simulated ms. */
    bool
    ticksInside(const RepConfig &cfg) const override
    {
        return !cfg.zeroWindow;
    }

  protected:
    void
    runRep(const RepConfig &cfg, RepResult &out) override
    {
        const unsigned warmup = cfg.zeroWindow ? 0 : kNetperfWarmupMs;
        const unsigned measure = cfg.zeroWindow ? 0 : kNetperfMeasureMs;
        SpanRecorder *spans = cfg.spans;

        work::NetperfRun run;
        std::unique_ptr<net::StreamEngine> eng;
        {
            Scope s(spans, SpanKind::Build);
            run = work::makeNetperfSystem(opts_);
            // The NIC and stack call through sys->dmaApi on every use,
            // so the decorator can go in after they are built.
            if (spans)
                run.sys->dmaApi = std::make_unique<DmaProbe>(
                    std::move(run.sys->dmaApi), spans);
            net::StreamConfig sc;
            sc.warmupNs = warmup * sim::kNsPerMs;
            sc.measureNs = measure * sim::kNsPerMs;
            sc.costFactor = opts_.costFactor;
            eng = std::make_unique<net::StreamEngine>(
                *run.sys, *run.nic, *run.stack, sc);
            for (const net::FlowSpec &f : flows_)
                eng->addFlow(f);
        }

        net::System &sys = *run.sys;
        sim::Context &ctx = sys.ctx;
        std::uint64_t segs0 = 0;
        std::uint64_t bytes0 = 0;
        const std::int64_t ref0 = ref_.bookedWallNs();
        const std::int64_t refCpu0 = ref_.bookedCpuNs();
        const Stamp run0;
        {
            Scope s(spans, SpanKind::Run);
            eng->startAll();
            net::StreamEngine *e = eng.get();
            ctx.engine.armWatchdog(kStallBudgetEvents, [e] {
                return e->totalSegments() + e->totalDrops();
            });
            for (unsigned ms = 1; ms <= warmup + measure; ++ms) {
                {
                    Scope slice(spans, SpanKind::Slice);
                    ctx.engine.run(sim::TimeNs(ms) * sim::kNsPerMs);
                }
                if (ms == warmup) {
                    ctx.machine.resetAccounting();
                    ctx.memBw.resetAccounting();
                    ctx.tracer.resetWindow();
                    segs0 = eng->totalSegments();
                    bytes0 = eng->totalBytes();
                }
                if (ms % 2 == 0) {
                    Scope r(spans, SpanKind::Ref);
                    ref_.tick();
                }
            }
            ctx.engine.disarmWatchdog();
        }
        const Stamp run1;
        out.runNs = run1.wall - run0.wall - (ref_.bookedWallNs() - ref0);
        out.runCpuNs = (run1.cpu - run0.cpu).total() -
                       (ref_.bookedCpuNs() - refCpu0);
        out.simMs = warmup + measure;

        Fnv h;
        {
            Scope s(spans, SpanKind::Report);
            const auto stats = ctx.stats.snapshot();
            const sim::TraceBundle bundle =
                ctx.tracer.bundle(ctx.machine, ctx.cost.cpuGhz);
            const std::uint64_t segs = eng->totalSegments() - segs0;
            const std::uint64_t bytes = eng->totalBytes() - bytes0;
            const sim::TimeNs window = sim::TimeNs(measure) *
                                       sim::kNsPerMs;
            const double gbps =
                window == 0 ? 0.0 : double(bytes) * 8.0 / double(window);
            const double cpuPct =
                window == 0 ? 0.0 : ctx.machine.utilizationPct(window);

            foldStats(h, stats);
            foldBundle(h, bundle);
            h.u64(ctx.engine.dispatched());
            h.u64(ctx.engine.now());
            h.u64(segs);
            h.u64(bytes);
            h.u64(eng->totalDrops());
            h.u64(eng->totalRetransmits());
            h.u64(eng->failedFlows());
            h.f64(cpuPct);

            auto &tlb = sys.mmu.iotlb();
            auto &c = out.counts;
            c["sim.events"] = double(ctx.engine.dispatched());
            c["net.segments"] = double(segs);
            c["net.gbps"] = gbps;
            c["net.cpu_pct"] = cpuPct;
            c["iommu.invalidations"] = double(tlb.invalidations());
            c["iommu.iotlb_lookups"] = double(tlb.hits() + tlb.misses());
            c["iommu.inval_per_segment"] =
                eng->totalSegments() == 0
                    ? 0.0
                    : double(tlb.invalidations()) /
                          double(eng->totalSegments());
            c["core.damn_allocs"] = statOf(stats, "damn.allocs");
            c["core.damn_frees"] = statOf(stats, "damn.frees");
            const double recycled = statOf(stats, "damn.chunks_recycled");
            const double fresh = statOf(stats, "damn.chunks_allocated");
            c["core.chunk_recycle_ratio"] =
                recycled + fresh == 0.0 ? 0.0
                                        : recycled / (recycled + fresh);
            if (eng->failedFlows() != 0)
                out.error = "a flow exhausted its retries";
            if (ctx.engine.stallsDetected() != 0)
                out.error = "engine watchdog stall";
        }
        {
            Scope s(spans, SpanKind::Teardown);
            sim::TimeNs clock = ctx.now();
            {
                sim::CpuCursor cpu(ctx.machine.core(0), clock);
                eng->teardown(cpu);
                clock = std::max(clock, cpu.time);
            }
            clock += kDrainNs;
            ctx.engine.run(clock);
            if (!eng->quiesced())
                out.error = "streams not quiesced after teardown";
            sim::CpuCursor cpu(ctx.machine.core(0), clock);
            h.u64(sys.dmaApi->drainDomain(cpu, *run.nic));
            h.u64(sys.dmaApi->outstandingIovas());
            h.u64(eng->abortedSegments());
            eng.reset();
            run.stack.reset();
            run.nic.reset();
            run.sys.reset();
        }
        out.digest = h.value();
    }

  private:
    work::NetperfOpts opts_;
    std::vector<net::FlowSpec> flows_;
};

// ---------------------------------------------------------------------
// rdma_sweep: the registered rdma_pagefault experiment, in process.

class RdmaSweep final : public Workload
{
  public:
    explicit RdmaSweep(std::uint64_t seed) : seed_(seed) {}

    void
    probeMachines(SpanRecorder &spans) override
    {
        // Each cell's work::runRdma builds one bare System from its
        // backend and scheme (the footprint is not a System parameter),
        // so each distinct machine is built once.
        for (const auto bk : {damn::iommu::BackendKind::Vtd,
                              damn::iommu::BackendKind::SmmuV3})
            for (const auto k :
                 {dma::SchemeKind::IommuOff, dma::SchemeKind::Strict,
                  dma::SchemeKind::Deferred, dma::SchemeKind::Shadow}) {
                net::SystemParams p;
                p.scheme = k;
                p.backend = bk;
                std::unique_ptr<net::System> sys;
                {
                    Scope s(&spans, SpanKind::Build);
                    sys = std::make_unique<net::System>(p);
                }
                Scope s(&spans, SpanKind::Teardown);
                sys.reset();
            }
    }

  protected:
    void
    runRep(const RepConfig &cfg, RepResult &out) override
    {
        exp::DriverOptions o;
        o.only = "rdma_pagefault";
        o.jobs = 1;
        o.seed = seed_;
        if (cfg.zeroWindow) {
            // 0 selects the experiment's default, so 1 ns stands in.
            o.warmupNs = 1;
            o.measureNs = 1;
        }

        exp::Report report;
        const Stamp run0;
        {
            Scope s(cfg.spans, SpanKind::ExpRun);
            report = exp::runExperiments(o);
        }
        const Stamp run1;
        out.runNs = run1.wall - run0.wall;
        out.runCpuNs = (run1.cpu - run0.cpu).total();
        std::string json;
        {
            Scope s(cfg.spans, SpanKind::ExpJson);
            json = exp::reportJson(report).dump();
        }
        {
            Scope s(cfg.spans, SpanKind::Report);
            Fnv h;
            h.str(json);
            out.digest = h.value();

            double cells = 0, faults = 0, hitRate = 0, gbps = 0;
            double invals = 0, lookups = 0, simNs = 0;
            for (const auto &er : report.experiments) {
                for (const auto &run : er.runs) {
                    ++cells;
                    for (const auto &m : run.metrics) {
                        if (m.name == "faults_serviced")
                            faults += m.value;
                        else if (m.name == "devtlb_hit_rate")
                            hitRate += m.value;
                        else if (m.name == "gbps")
                            gbps += m.value;
                    }
                    for (const auto &c : run.trace.categories) {
                        if (c.name == "iommu.inval")
                            invals += double(c.events);
                        else if (c.name == "iommu.iotlb")
                            lookups += double(c.events);
                    }
                }
            }
            for (const auto &er : report.experiments) {
                const auto &w = er.exp->defaultWindow;
                const double warm = double(o.warmupNs ? o.warmupNs
                                                      : w.warmupNs);
                const double meas = double(o.measureNs ? o.measureNs
                                                       : w.measureNs);
                simNs += double(er.runs.size()) * (warm + meas);
            }
            out.simMs = simNs / 1e6;
            auto &c = out.counts;
            c["exp.cells"] = cells;
            c["iommu.ats_faults_serviced"] = faults;
            c["iommu.devtlb_hit_rate"] = cells ? hitRate / cells : 0.0;
            c["iommu.invalidations"] = invals;
            c["iommu.iotlb_lookups"] = lookups;
            c["net.gbps"] = gbps;
            if (cells != 24)
                out.error = "expected 24 rdma_pagefault cells";
        }
        {
            Scope s(cfg.spans, SpanKind::Teardown);
            report = exp::Report{};
        }
    }

  private:
    std::uint64_t seed_;
};

// ---------------------------------------------------------------------
// shard4_damn: 4 machine shards under the sharded engine, 2 workers.

class Shard4Damn final : public Workload
{
  public:
    Shard4Damn()
    {
        opts_.scheme = dma::SchemeKind::Damn;
        opts_.plan.shards = 4;
        opts_.instancesPerShard = 7;
        opts_.workers = 2;
        opts_.stallBudgetEvents = kStallBudgetEvents;
        opts_.runWindow = kShardWindow;
    }

    bool seedApplies() const override { return false; }

    void
    probeMachines(SpanRecorder &spans) override
    {
        work::NetperfOpts base;
        base.scheme = opts_.scheme;
        base.instances = opts_.instancesPerShard;
        base.sysParams = opts_.sysParams;
        for (unsigned s = 0; s < opts_.plan.shards; ++s) {
            work::NetperfRun run;
            {
                Scope b(&spans, SpanKind::Build);
                run = work::makeNetperfSystem(base);
            }
            Scope t(&spans, SpanKind::Teardown);
            run.stack.reset();
            run.nic.reset();
            run.sys.reset();
        }
    }

  protected:
    void
    runRep(const RepConfig &cfg, RepResult &out) override
    {
        work::ShardedNetperfOpts o = opts_;
        if (cfg.zeroWindow)
            o.runWindow = {0, 0};

        work::ShardedNetperfResult r;
        const Stamp run0;
        {
            Scope s(cfg.spans, SpanKind::ShardRun);
            r = work::runShardedNetperf(o);
        }
        const Stamp run1;
        out.runNs = run1.wall - run0.wall;
        out.runCpuNs = (run1.cpu - run0.cpu).total();
        out.simMs = double(o.plan.shards) *
                    double(o.runWindow.endNs()) / 1e6;
        {
            Scope s(cfg.spans, SpanKind::Report);
            Fnv h;
            h.u64(r.digest);
            h.u64(r.events);
            h.u64(r.segments);
            h.u64(r.bytes);
            h.f64(r.cpuPct);
            h.u64(r.telemetryReceived);
            out.digest = h.value();
            auto &c = out.counts;
            c["sim.events"] = double(r.events);
            c["sim.shard_rounds"] = double(r.rounds);
            c["sim.shard_lockstep_rounds"] = double(r.lockstepRounds);
            c["sim.shard_messages"] = double(r.messages);
            c["net.segments"] = double(r.segments);
            c["net.gbps"] = r.gbps;
            c["net.cpu_pct"] = r.cpuPct;
            if (!r.stalls.empty())
                out.error = "shard watchdog stall";
        }
    }

  private:
    work::ShardedNetperfOpts opts_;
};

} // namespace

RepResult
Workload::rep(const RepConfig &cfg)
{
    RepResult out;
    ref_.resetBooking();
    const Stamp t0;
    try {
        Scope s(cfg.spans, SpanKind::Rep);
        const bool around = !ticksInside(cfg);
        if (around)
            bracket(cfg.spans);
        runRep(cfg, out);
        if (around)
            bracket(cfg.spans);
    } catch (const std::exception &e) {
        out.error = std::string("exception: ") + e.what();
    }
    const Stamp t1;
    out.wallNs = t1.wall - t0.wall - ref_.bookedWallNs();
    out.cpuNs = (t1.cpu - t0.cpu).total() - ref_.bookedCpuNs();
    out.sysNs = (t1.cpu - t0.cpu).sysNs;
    out.refUnitS = ref_.unitSeconds();
    return out;
}

void
Workload::bracket(SpanRecorder *spans)
{
    for (unsigned i = 0; i < kBracketCalls; ++i) {
        Scope r(spans, SpanKind::Ref);
        ref_.tick();
    }
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> kNames = {
        "netperf_bidi_strict", "netperf_bidi_damn", "rdma_sweep",
        "shard4_damn"};
    return kNames;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "netperf_bidi_strict")
        return std::make_unique<NetperfBidi>(dma::SchemeKind::Strict,
                                             seed);
    if (name == "netperf_bidi_damn")
        return std::make_unique<NetperfBidi>(dma::SchemeKind::Damn, seed);
    if (name == "rdma_sweep")
        return std::make_unique<RdmaSweep>(seed);
    if (name == "shard4_damn")
        return std::make_unique<Shard4Damn>();
    return nullptr;
}

std::vector<net::FlowSpec>
bidiFlows(std::uint64_t seed, unsigned ncores)
{
    const work::NetperfOpts o =
        work::bidirectionalOpts(dma::SchemeKind::Strict);
    std::vector<unsigned> core(ncores);
    std::iota(core.begin(), core.end(), 0u);
    // The Figure 1 layout puts every RX flow on port 0 and every TX
    // flow on port 1; other seeds may swap the two ports.
    unsigned rxPort = 0;
    if (seed != kDefaultSeed) {
        sim::Rng rng(seed);
        for (unsigned i = ncores; i > 1; --i)
            std::swap(core[i - 1], core[rng.below(i)]);
        rxPort = unsigned(rng.below(2));
    }
    std::vector<net::FlowSpec> flows;
    for (unsigned i = 0; i < o.instances; ++i) {
        net::FlowSpec f;
        f.kind = i % 2 == 0 ? net::Traffic::Rx : net::Traffic::Tx;
        f.core = core[i % ncores];
        f.port = f.kind == net::Traffic::Rx ? rxPort : 1 - rxPort;
        f.segBytes = o.segBytes;
        f.window = o.window;
        flows.push_back(f);
    }
    return flows;
}

} // namespace perfbench
