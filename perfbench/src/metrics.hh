/**
 * @file
 * The benchmark's metric names and units, and the set of values one
 * run reports.  BENCHMARK.json lists the same names; the benchmark's
 * tests check that the two agree.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/**
 * Reported untraced (--trace 0).  Host time divided by the reference
 * kernel's time, so that a shared host's drift in speed cancels.
 */
inline const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> kDefs = {
        {"norm_cost", "ratio"},
        {"norm_cpu", "ratio"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MiB"},
    };
    return kDefs;
}

/** Raw host time as measured; printed by every run, and per layer. */
inline const std::vector<MetricDef> &
hostMetrics()
{
    static const std::vector<MetricDef> kDefs = {
        {"host.wall_s", "s"},
        {"host.cpu_s", "s"},
        {"host.sim_ms_per_s", "ms/s"},
        {"host.setup_wall_s", "s"},
        {"host.ref_unit_s", "s"},
    };
    return kDefs;
}

/** Per-layer metrics copied from a repetition's exact counts. */
inline constexpr const char *kCountMetrics[] = {
    "sim.events",          "sim.shard_rounds",
    "sim.shard_lockstep_rounds", "sim.shard_messages",
    "iommu.invalidations", "iommu.iotlb_lookups",
    "iommu.inval_per_segment", "iommu.ats_faults_serviced",
    "iommu.devtlb_hit_rate", "core.damn_allocs",
    "core.damn_frees",     "core.chunk_recycle_ratio",
    "net.segments",        "net.gbps",
    "net.cpu_pct",         "exp.cells",
};

/** Reported traced (--trace 1). */
inline const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> kDefs = {
        {"sim.events", "count"},
        {"sim.ns_per_event", "ns"},
        {"sim.slice_ms_p50", "ms"},
        {"sim.slice_ms_p99", "ms"},
        {"sim.slice_samples", "count"},
        {"sim.shard_rounds", "count"},
        {"sim.shard_lockstep_rounds", "count"},
        {"sim.shard_messages", "count"},
        {"sim.shard_us_per_round", "us"},
        {"sim.shard_parallelism", "ratio"},
        {"mem.build_ms", "ms"},
        {"mem.build_samples", "count"},
        {"mem.teardown_ms", "ms"},
        {"mem.sys_cpu_share", "ratio"},
        {"dma.map_calls", "count"},
        {"dma.map_ns_p50", "ns"},
        {"dma.map_ns_p99", "ns"},
        {"dma.unmap_calls", "count"},
        {"dma.unmap_ns_p50", "ns"},
        {"dma.unmap_ns_p99", "ns"},
        {"dma.unmap_batch_calls", "count"},
        {"dma.share", "ratio"},
        {"iommu.invalidations", "count"},
        {"iommu.iotlb_lookups", "count"},
        {"iommu.inval_per_segment", "ratio"},
        {"iommu.ats_faults_serviced", "count"},
        {"iommu.devtlb_hit_rate", "%"},
        {"core.damn_allocs", "count"},
        {"core.damn_frees", "count"},
        {"core.chunk_recycle_ratio", "ratio"},
        {"net.segments", "count"},
        {"net.gbps", "Gb/s"},
        {"net.cpu_pct", "%"},
        {"exp.run_ms", "ms"},
        {"exp.json_ms", "ms"},
        {"exp.cells", "count"},
        {"exp.setup_share", "ratio"},
        {"self.mem_ms", "ms"},
        {"self.mem_n", "count"},
        {"self.sim_ms", "ms"},
        {"self.sim_n", "count"},
        {"self.dma_ms", "ms"},
        {"self.dma_n", "count"},
        {"self.exp_ms", "ms"},
        {"self.exp_n", "count"},
        {"self.report_ms", "ms"},
        {"self.report_n", "count"},
        {"self.uncovered_ms", "ms"},
        {"trace.coverage_pct", "%"},
        {"trace.overhead_pct", "%"},
    };
    static const std::vector<MetricDef> kAll = [] {
        std::vector<MetricDef> all = kDefs;
        all.insert(all.end(), hostMetrics().begin(), hostMetrics().end());
        return all;
    }();
    return kAll;
}

/** The values of one run, emitted in table order. */
class Metrics
{
  public:
    void set(const std::string &name, double v) { values_[name] = v; }

    void
    merge(const Metrics &o)
    {
        values_.insert(o.values_.begin(), o.values_.end());
    }

    /**
     * The JSON object of the metrics in @p defs.  Every name in the
     * table must have been set, and nothing else.
     */
    std::string
    json(const std::vector<MetricDef> &defs) const
    {
        if (values_.size() != defs.size())
            fail("metric set does not match the table");
        std::string out = "{";
        char buf[512];
        for (std::size_t i = 0; i < defs.size(); ++i) {
            const auto it = values_.find(defs[i].name);
            if (it == values_.end() || !std::isfinite(it->second))
                fail(defs[i].name);
            std::snprintf(buf, sizeof buf,
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i ? ", " : "", defs[i].name, it->second,
                          defs[i].unit);
            out += buf;
        }
        return out + "}";
    }

  private:
    [[noreturn]] static void
    fail(const char *what)
    {
        std::fprintf(stderr, "perfbench: internal error: %s\n", what);
        std::abort();
    }

    std::map<std::string, double> values_;
};

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
