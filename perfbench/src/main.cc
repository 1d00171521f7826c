/**
 * @file
 * perfbench: runs one workload of the host-time benchmark and prints
 * one JSON object with its metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--default-digest HEX] [--expect-digest HEX]
 *             [--spans PATH]
 *   perfbench --selftest | --list-workloads | --list-metrics
 *
 * Untraced (--trace 0) it times set-up with zero-length windows, then
 * repeats the full workload for S seconds and reports the end-to-end
 * metrics.  Traced (--trace 1) it alternates untraced and traced
 * repetitions and reports the per-layer metrics.  Every repetition's
 * virtual-time digest must equal the first one's (and --expect-digest
 * when given).  With --default-digest, one more untimed repetition at
 * the default seed must give that digest, so every seed checks the
 * program against a recorded result.  A repetition that differs,
 * throws, stalls or leaves a stream un-quiesced counts as failed.
 */

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "metrics.hh"
#include "workloads.hh"

namespace perfbench {

int runSelfTests();

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool haveExpect = false;
    std::uint64_t expectDigest = 0;
    bool haveDefault = false;
    std::uint64_t defaultDigest = 0;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--default-digest HEX]"
                 " [--expect-digest HEX] [--spans PATH]\n       perfbench "
                 "--selftest | --list-workloads | --list-metrics\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
        } else if (k == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace must be 0 or 1");
            a.trace = v[0] == '1';
        } else if (k == "--expect-digest") {
            a.haveExpect = true;
            a.expectDigest = std::strtoull(v, &end, 16);
        } else if (k == "--default-digest") {
            a.haveDefault = true;
            a.defaultDigest = std::strtoull(v, &end, 16);
        } else if (k == "--spans") {
            a.spansPath = v;
        } else {
            usage(("unknown option " + k).c_str());
        }
        if (end && *end)
            usage(("bad value for " + k).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

/** Repetitions, their failures and the digest every one must match. */
class Ledger
{
  public:
    explicit Ledger(const Args &a)
        : haveExpect_(a.haveExpect), expect_(a.expectDigest)
    {}

    /** Book a repetition; @p full says it ran the real window. */
    void
    book(const RepResult &r, bool full)
    {
        ++attempted_;
        std::string err = r.error;
        std::uint64_t &first = full ? fullDigest_ : zeroDigest_;
        bool &have = full ? haveFull_ : haveZero_;
        if (err.empty()) {
            if (!have) {
                first = r.digest;
                have = true;
            }
            if (r.digest != first)
                err = "digest differs between repetitions";
            else if (full && haveExpect_ && r.digest != expect_)
                err = "digest differs from the recorded one";
        }
        fail(err);
    }

    /** Book the default-seed repetition against its recorded digest. */
    void
    bookDefault(const RepResult &r, std::uint64_t recorded)
    {
        ++attempted_;
        if (!r.error.empty())
            fail(r.error);
        else if (r.digest != recorded)
            fail("default-seed digest differs from the recorded one");
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    std::uint64_t digest() const { return fullDigest_; }
    const std::vector<std::string> &errors() const { return errors_; }

  private:
    void
    fail(const std::string &err)
    {
        if (err.empty())
            return;
        ++failed_;
        if (errors_.size() < 8)
            errors_.push_back(err);
    }

    bool haveExpect_;
    std::uint64_t expect_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t fullDigest_ = 0;
    std::uint64_t zeroDigest_ = 0;
    bool haveFull_ = false;
    bool haveZero_ = false;
    std::vector<std::string> errors_;
};

double
secondsSince(std::int64_t t0)
{
    return double(nowNs() - t0) / 1e9;
}

std::vector<double>
collect(const std::vector<RepResult> &reps, double (*f)(const RepResult &))
{
    std::vector<double> v;
    for (const RepResult &r : reps)
        if (r.error.empty())
            v.push_back(f(r));
    return v;
}

double wallS(const RepResult &r) { return double(r.wallNs) / 1e9; }

/** Self time of one layer over the traced repetitions. */
struct LayerTime
{
    std::int64_t selfNs = 0;
    std::uint64_t spans = 0;

    void
    add(const SpanRecorder::Agg &a)
    {
        selfNs += a.selfNs;
        spans += a.count;
    }
};

int
run(const Args &a)
{
    const std::vector<std::string> &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage(("unknown workload " + a.workload).c_str());
    Ledger ledger(a);

    // Untimed, and destroyed before the measured workload is built.
    if (a.haveDefault)
        ledger.bookDefault(
            makeWorkload(a.workload, kDefaultSeed)->rep({false, nullptr}),
            a.defaultDigest);
    const std::unique_ptr<Workload> wl = makeWorkload(a.workload, a.seed);

    const std::int64_t start = nowNs();

    // Set-up: the same calls with zero-length windows.
    std::vector<RepResult> setup;
    while (setup.size() < 5 ||
           (setup.size() < 101 && secondsSince(start) < 0.25 * a.seconds)) {
        setup.push_back(wl->rep({true, nullptr}));
        ledger.book(setup.back(), false);
    }

    // The measured window.
    std::vector<RepResult> plain;
    std::vector<RepResult> traced;
    SpanRecorder spans;
    const std::int64_t measure0 = nowNs();
    const std::size_t minReps = a.trace ? 2 : 3;
    while (plain.size() < minReps || secondsSince(measure0) < a.seconds) {
        // Alternate which side of a traced pair goes first.
        const bool tracedFirst = a.trace && plain.size() % 2 == 1;
        if (tracedFirst) {
            spans.setRun(std::uint32_t(traced.size()));
            traced.push_back(wl->rep({false, &spans}));
            ledger.book(traced.back(), true);
        }
        plain.push_back(wl->rep({false, nullptr}));
        ledger.book(plain.back(), true);
        if (a.trace && !tracedFirst) {
            spans.setRun(std::uint32_t(traced.size()));
            traced.push_back(wl->rep({false, &spans}));
            ledger.book(traced.back(), true);
        }
    }

    // Exact counts: equal in every successful repetition, as the
    // digests check.
    std::map<std::string, double> counts;
    for (const RepResult &r : plain)
        if (r.error.empty()) {
            counts = r.counts;
            break;
        }
    const auto count = [&counts](const char *name) {
        const auto it = counts.find(name);
        return it == counts.end() ? 0.0 : it->second;
    };

    // Raw host time, as measured; it moves with the host's speed.
    const double wall = median(collect(plain, wallS));
    const double setupWall = median(collect(setup, wallS));
    Metrics host;
    host.set("host.wall_s", wall);
    host.set("host.cpu_s", median(collect(plain, [](const RepResult &r) {
                 return double(r.cpuNs) / 1e9;
             })));
    host.set("host.sim_ms_per_s", median(collect(plain, [](const RepResult &r) {
                 return r.simMs / wallS(r);
             })));
    host.set("host.setup_wall_s", setupWall);
    host.set("host.ref_unit_s", median(collect(plain, [](const RepResult &r) {
                 return r.refUnitS;
             })));

    Metrics m;
    if (!a.trace) {
        // Each repetition divided by the reference unit timed around
        // and inside it, so the host's speed divides out.
        m.set("norm_cost", median(collect(plain, [](const RepResult &r) {
                  return wallS(r) / r.refUnitS;
              })));
        m.set("norm_cpu", median(collect(plain, [](const RepResult &r) {
                  return double(r.cpuNs) / 1e9 / r.refUnitS;
              })));
        m.set("setup_s", RefKernel::kNominalUnitS *
                             median(collect(setup, [](const RepResult &r) {
                                 return wallS(r) / r.refUnitS;
                             })));
        m.set("peak_rss_mb", peakRssMb());
    } else {
        // Rep-scoped aggregates, before the machine probe adds spans.
        std::array<SpanRecorder::Agg, std::size_t(SpanKind::Count)> agg;
        for (std::size_t k = 0; k < agg.size(); ++k)
            agg[k] = spans.agg(SpanKind(k));
        const auto A = [&agg](SpanKind k) -> const SpanRecorder::Agg & {
            return agg[std::size_t(k)];
        };
        const double n = double(std::max<std::size_t>(traced.size(), 1));
        for (const char *name : kCountMetrics)
            m.set(name, count(name));

        const double events = count("sim.events");
        m.set("sim.ns_per_event",
              events == 0.0
                  ? 0.0
                  : median(collect(plain, [](const RepResult &r) {
                        return double(r.runNs);
                    })) / events);
        const Tail slice = summarize(A(SpanKind::Slice).samplesNs, 99.0);
        m.set("sim.slice_ms_p50", slice.p50 / 1e6);
        m.set("sim.slice_ms_p99", slice.tail / 1e6);
        m.set("sim.slice_samples", double(slice.samples));
        const double rounds = count("sim.shard_rounds");
        const double runNs = median(collect(
            plain, [](const RepResult &r) { return double(r.runNs); }));
        const bool sharded = rounds != 0.0;
        m.set("sim.shard_us_per_round",
              sharded ? runNs / rounds / 1e3 : 0.0);
        m.set("sim.shard_parallelism",
              sharded ? median(collect(plain,
                                       [](const RepResult &r) {
                                           return double(r.runCpuNs) /
                                                  double(r.runNs);
                                       }))
                      : 0.0);

        const Tail map = summarize(A(SpanKind::DmaMap).samplesNs, 99.0);
        const Tail unmap =
            summarize(A(SpanKind::DmaUnmap).samplesNs, 99.0);
        m.set("dma.map_calls", double(A(SpanKind::DmaMap).count) / n);
        m.set("dma.map_ns_p50", map.p50);
        m.set("dma.map_ns_p99", map.tail);
        m.set("dma.unmap_calls", double(A(SpanKind::DmaUnmap).count) / n);
        m.set("dma.unmap_ns_p50", unmap.p50);
        m.set("dma.unmap_ns_p99", unmap.tail);
        m.set("dma.unmap_batch_calls",
              double(A(SpanKind::DmaUnmapBatch).count) / n);

        LayerTime mem, simL, dmaL, expL, report;
        mem.add(A(SpanKind::Build));
        mem.add(A(SpanKind::Teardown));
        simL.add(A(SpanKind::Run));
        simL.add(A(SpanKind::Slice));
        simL.add(A(SpanKind::ShardRun));
        dmaL.add(A(SpanKind::DmaMap));
        dmaL.add(A(SpanKind::DmaUnmap));
        dmaL.add(A(SpanKind::DmaUnmapBatch));
        dmaL.add(A(SpanKind::DmaOther));
        expL.add(A(SpanKind::ExpRun));
        expL.add(A(SpanKind::ExpJson));
        report.add(A(SpanKind::Report));
        const double repNs = double(A(SpanKind::Rep).totalNs);
        const double refNs = double(A(SpanKind::Ref).totalNs);
        const double measuredNs = repNs - refNs;
        m.set("dma.share", measuredNs > 0 ? dmaL.selfNs / measuredNs : 0.0);
        m.set("trace.coverage_pct",
              measuredNs > 0
                  ? 100.0 * (measuredNs - double(A(SpanKind::Rep).selfNs)) /
                        measuredNs
                  : 0.0);
        const auto layer = [&m, n](const char *name, const LayerTime &t) {
            m.set(std::string("self.") + name + "_ms",
                  double(t.selfNs) / n / 1e6);
            m.set(std::string("self.") + name + "_n", double(t.spans));
        };
        layer("mem", mem);
        layer("sim", simL);
        layer("dma", dmaL);
        layer("exp", expL);
        layer("report", report);
        m.set("self.uncovered_ms", double(A(SpanKind::Rep).selfNs) / n / 1e6);

        m.set("exp.run_ms", A(SpanKind::ExpRun).count
                                ? double(A(SpanKind::ExpRun).totalNs) /
                                      double(A(SpanKind::ExpRun).count) / 1e6
                                : 0.0);
        m.set("exp.json_ms", A(SpanKind::ExpJson).count
                                 ? double(A(SpanKind::ExpJson).totalNs) /
                                       double(A(SpanKind::ExpJson).count) /
                                       1e6
                                 : 0.0);
        m.set("exp.setup_share", wall > 0 ? setupWall / wall : 0.0);
        m.merge(host);
        m.set("trace.overhead_pct",
              wall > 0 ? 100.0 * (median(collect(traced, wallS)) / wall - 1.0)
                       : 0.0);

        // Set-up CPU split, from the zero-window repetitions.
        double sys = 0, cpu = 0;
        for (const RepResult &r : setup) {
            sys += double(r.sysNs);
            cpu += double(r.cpuNs);
        }
        m.set("mem.sys_cpu_share", cpu > 0 ? sys / cpu : 0.0);

        // Machine construction: from the reps where the benchmark builds
        // the machines itself, otherwise from a probe of the same ones.
        SpanRecorder::Agg build = A(SpanKind::Build);
        SpanRecorder::Agg teardown = A(SpanKind::Teardown);
        if (build.count == 0) {
            SpanRecorder probe;
            wl->probeMachines(probe);
            build = probe.agg(SpanKind::Build);
            teardown = probe.agg(SpanKind::Teardown);
        }
        m.set("mem.build_ms", build.count ? double(build.totalNs) /
                                                double(build.count) / 1e6
                                          : 0.0);
        m.set("mem.build_samples", double(build.count));
        m.set("mem.teardown_ms",
              teardown.count ? double(teardown.totalNs) /
                                   double(teardown.count) / 1e6
                             : 0.0);

        if (!a.spansPath.empty() && !spans.write(a.spansPath)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         a.spansPath.c_str());
            return 1;
        }
    }

    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"seed_applies\": %s, \"digest\": \"%016" PRIx64
                "\", \"reps\": %zu, \"setup_reps\": %zu, \"gbps\": %.17g, "
                "\"cpu_pct\": %.17g, \"faults_serviced\": %.17g, ",
                a.workload.c_str(), a.seed,
                wl->seedApplies() ? "true" : "false", ledger.digest(),
                plain.size() + traced.size(), setup.size(),
                count("net.gbps"), count("net.cpu_pct"),
                count("iommu.ats_faults_serviced"));
    std::printf("\"errors\": [");
    for (std::size_t i = 0; i < ledger.errors().size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "",
                    ledger.errors()[i].c_str());
    std::printf("], \"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"host\": %s, \"metrics\": %s}\n",
                ledger.failed() == 0 ? "true" : "false",
                ledger.attempted(), ledger.failed(),
                host.json(hostMetrics()).c_str(),
                m.json(a.trace ? perLayerMetrics() : endToEndMetrics())
                    .c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0)
        return runSelfTests();
    if (argc == 2 && std::strcmp(argv[1], "--list-workloads") == 0) {
        for (const std::string &w : workloadNames())
            std::printf("%s\n", w.c_str());
        return 0;
    }
    if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
        for (const MetricDef &d : endToEndMetrics())
            std::printf("end_to_end %s %s\n", d.name, d.unit);
        for (const MetricDef &d : perLayerMetrics())
            std::printf("per_layer %s %s\n", d.name, d.unit);
        return 0;
    }
    return run(parseArgs(argc, argv));
}
