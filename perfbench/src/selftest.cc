/**
 * @file
 * The benchmark's own tests (`perfbench --selftest`): the percentile
 * rule, the metric tables, the reference kernel's fixed work, the
 * seeded flow layout, and that the DmaApi decorator leaves simulated
 * output unchanged.  perfbench/test_perfbench.py runs them and checks
 * the metric names against BENCHMARK.json.
 */

#include <cstdio>
#include <set>
#include <string>

#include "metrics.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

void
testPercentiles()
{
    check(tailPercentile(19) == 0.0, "19 samples: no percentile");
    check(tailPercentile(20) == 50.0, "20 samples: p50");
    check(tailPercentile(100) == 90.0, "100 samples: p90");
    check(tailPercentile(999) == 90.0, "999 samples: p90");
    check(tailPercentile(1000) == 99.0, "1000 samples: p99");
    check(tailPercentile(10000) == 99.9, "10000 samples: p99.9");

    std::vector<int> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(1001 - i);
    const Tail t = summarize(v, 99.0);
    std::size_t beyond = 0;
    for (const int x : v)
        beyond += double(x) > t.tail;
    check(t.samples == 1000 && t.tailPct == 99.0 && t.tail == 990.0 &&
              beyond == 10 && t.p50 == 500.0,
          "p99 of 1..1000 is 990 with 10 samples beyond it");
    const Tail small = summarize(std::vector<int>(v.begin(), v.begin() + 150),
                                 99.0);
    check(small.tailPct == 90.0 && small.samples == 150,
          "150 samples: tail lowered to p90, count kept");
}

void
testCountedMetrics()
{
    std::set<std::string> perLayer;
    for (const MetricDef &d : perLayerMetrics())
        perLayer.insert(d.name);
    bool counted = perLayer.size() == perLayerMetrics().size();
    for (const char *name : kCountMetrics)
        counted = counted && perLayer.count(name) == 1;
    check(counted, "per-layer names are unique and include every count");
}

void
testRefKernel()
{
    RefKernel a;
    RefKernel b;
    const std::uint64_t a1 = a.runTable(RefKernel::kTableIters);
    const std::uint64_t b1 = b.runTable(RefKernel::kTableIters);
    const std::uint64_t a2 = a.runTable(RefKernel::kTableIters);
    const std::uint64_t b2 = b.runTable(RefKernel::kTableIters);
    check(a1 == b1 && a2 == b2 &&
              RefKernel::runMix(a1, RefKernel::kMixIters) ==
                  RefKernel::runMix(b1, RefKernel::kMixIters),
          "reference kernel: same iterations, same checksum");
    RefKernel c;
    check(c.runTable(RefKernel::kTableIters + 1) != a1 &&
              RefKernel::runMix(a1, RefKernel::kMixIters + 1) !=
                  RefKernel::runMix(a1, RefKernel::kMixIters),
          "reference kernel: checksum depends on the iteration count");
    RefKernel d;
    d.tick();
    d.tick();
    check(d.unitSeconds() > 0.0 && d.bookedWallNs() > 0,
          "reference kernel: calls are booked");
}

void
testFlowLayout()
{
    const unsigned ncores = 28;
    const auto fig1 = bidiFlows(kDefaultSeed, ncores);
    bool same = fig1.size() == 56;
    for (unsigned i = 0; same && i < fig1.size(); ++i)
        same = fig1[i].core == i % ncores && fig1[i].port == i % 2 &&
               (fig1[i].kind == damn::net::Traffic::Rx) == (i % 2 == 0);
    check(same, "default seed gives the Figure 1 flow layout");

    bool balanced = true;
    bool moved = false;
    std::set<unsigned> swapped;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const auto other = bidiFlows(seed, ncores);
        std::vector<unsigned> perCore(ncores, 0);
        std::vector<unsigned> rxOnPort(2, 0);
        for (const auto &f : other) {
            ++perCore[f.core];
            rxOnPort[f.port] += f.kind == damn::net::Traffic::Rx;
        }
        balanced = balanced && other.size() == 56 &&
                   (rxOnPort[0] == 0 || rxOnPort[1] == 0);
        for (const unsigned n : perCore)
            balanced = balanced && n == 2;
        for (std::size_t i = 0; i < other.size(); ++i) {
            moved = moved || other[i].core != fig1[i].core;
            balanced = balanced &&
                       other[i].core == other[i % ncores].core &&
                       other[i].port != other[i ^ 1].port;
        }
        swapped.insert(other[0].port);
    }
    check(balanced && moved && swapped.size() == 2,
          "other seeds permute cores and swap ports, two flows of one "
          "direction per core, one direction per port");
}

void
testDecoratorDigest()
{
    for (const char *name : {"netperf_bidi_strict", "netperf_bidi_damn"}) {
        auto wl = makeWorkload(name, kDefaultSeed);
        const RepResult bare = wl->rep({false, nullptr});
        SpanRecorder spans;
        const RepResult traced = wl->rep({false, &spans});
        const RepResult again = wl->rep({false, nullptr});
        check(bare.error.empty() && traced.error.empty() &&
                  again.error.empty(),
              std::string(name) + ": repetitions succeed");
        check(bare.digest == traced.digest && bare.digest == again.digest,
              std::string(name) +
                  ": the traced, decorated digest equals the bare one");
        check(spans.agg(SpanKind::DmaMap).count > 0 &&
                  spans.agg(SpanKind::DmaOther).count > 0,
              std::string(name) + ": the decorator saw the DMA-API calls");
    }
}

} // namespace

int
runSelfTests()
{
    testPercentiles();
    testCountedMetrics();
    testRefKernel();
    testFlowLayout();
    testDecoratorDigest();
    std::printf("%d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}

} // namespace perfbench
