/**
 * @file
 * Parallel-determinism suite (ctest label `par`): the --jobs worker
 * pool must be invisible in every output byte.  Runs the driver
 * in-process at --jobs=1 and --jobs=8 over two seeds and asserts the
 * serialized JSON report and the Chrome trace are byte-identical; also
 * covers the unit and cell decomposition/merge corners (repeat reps,
 * glob subsets, queued cells, exception propagation) and the pool
 * itself (sim::parallelFor).
 *
 * Built into the verify-tsan tree as well: under -fsanitize=thread the
 * jobs=8 cases double as a data-race audit of the whole
 * experiment/workload/sim stack.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/driver.hh"
#include "sim/parallel.hh"

using namespace damn;

namespace {

exp::DriverOptions
smallOpts(const std::string &only, std::uint64_t seed, unsigned jobs,
          unsigned repeat = 1)
{
    exp::DriverOptions o;
    o.only = only;
    o.seed = seed;
    o.jobs = jobs;
    o.repeat = repeat;
    o.warmupNs = 1 * sim::kNsPerMs;
    o.measureNs = 2 * sim::kNsPerMs;
    // Non-empty trace path => experiments record trace events, so the
    // comparison covers the event rings and the Chrome exporter too.
    o.tracePath = "unused-in-process";
    return o;
}

struct Serialized
{
    std::string json;
    std::string trace;
};

Serialized
serialize(const exp::DriverOptions &o)
{
    const exp::Report r = exp::runExperiments(o);
    return {exp::reportJson(r).dump(), exp::chromeTraceForReport(r)};
}

} // namespace

TEST(Parallel, JobsProduceByteIdenticalOutputAcrossSeeds)
{
    // netperf_stream attaches full trace bundles (fig4 reports only
    // stats snapshots), so the trace comparison is non-vacuous.
    for (const std::uint64_t seed : {42ull, 1234ull}) {
        const Serialized serial =
            serialize(smallOpts("netperf_stream", seed, 1));
        const Serialized parallel =
            serialize(smallOpts("netperf_stream", seed, 8));
        EXPECT_EQ(serial.json, parallel.json) << "seed " << seed;
        EXPECT_EQ(serial.trace, parallel.trace) << "seed " << seed;
        EXPECT_GT(serial.trace.size(), 1000u)
            << "trace suspiciously small; comparison would be vacuous";
    }
}

TEST(Parallel, RepeatRepsMergeInOrder)
{
    const Serialized serial = serialize(smallOpts("fig4*", 42, 1, 3));
    const Serialized parallel =
        serialize(smallOpts("fig4*", 42, 8, 3));
    EXPECT_EQ(serial.json, parallel.json);
    EXPECT_EQ(serial.trace, parallel.trace);
    // Reps really are distinct units: rep=0/1/2 all present.
    for (const char *tag : {"\"rep\": \"0\"", "\"rep\": \"1\"",
                            "\"rep\": \"2\""})
        EXPECT_NE(serial.json.find(tag), std::string::npos) << tag;
}

TEST(Parallel, MultiExperimentSelectionKeepsRegistrationOrder)
{
    // A glob spanning several experiments; order in the report must be
    // the sorted registry order regardless of which worker finishes
    // first.
    const Serialized serial = serialize(smallOpts("fig*", 7, 1));
    const Serialized parallel = serialize(smallOpts("fig*", 7, 8));
    EXPECT_EQ(serial.json, parallel.json);
    EXPECT_EQ(serial.trace, parallel.trace);
}

TEST(Parallel, EffectiveJobsDefaultsToHardware)
{
    exp::DriverOptions o;
    EXPECT_GE(exp::effectiveJobs(o), 1u);
    o.jobs = 5;
    EXPECT_EQ(exp::effectiveJobs(o), 5u);
}

TEST(Parallel, JobsFlagParses)
{
    exp::DriverOptions o;
    std::string err;
    const char *argv[] = {"damn_bench", "--jobs=8"};
    ASSERT_TRUE(exp::parseArgs(2, argv, &o, &err)) << err;
    EXPECT_EQ(o.jobs, 8u);

    exp::DriverOptions bad;
    const char *argv0[] = {"damn_bench", "--jobs=0"};
    EXPECT_FALSE(exp::parseArgs(2, argv0, &bad, &err));
    const char *argvx[] = {"damn_bench", "--jobs=x"};
    EXPECT_FALSE(exp::parseArgs(2, argvx, &bad, &err));
}

TEST(Parallel, WorkerExceptionPropagates)
{
    // Register a throwing experiment on the fly; the pool must join
    // cleanly and rethrow on the caller's thread.
    static const bool reg [[maybe_unused]] =
        exp::registerExperiment([] {
            exp::Experiment e;
            e.name = "zz_test_parallel_throws";
            e.title = "always throws (test fixture)";
            e.paper = "test";
            e.run = [](exp::RunCtx &) {
                throw std::runtime_error("unit failure");
            };
            return e;
        }());
    exp::DriverOptions o = smallOpts("zz_test_parallel_throws", 42, 4);
    o.repeat = 4; // several units so the pool actually spins up
    EXPECT_THROW(exp::runExperiments(o), std::runtime_error);
}

TEST(ParallelFor, AllItemsRunAndFirstErrorInIndexOrderWins)
{
    for (const unsigned workers : {1u, 4u}) {
        std::vector<std::atomic<unsigned>> ran(6);
        std::atomic<unsigned> offCaller{0};
        const std::thread::id caller = std::this_thread::get_id();
        try {
            sim::parallelFor(ran.size(), workers, [&](std::size_t i) {
                ++ran[i];
                if (std::this_thread::get_id() != caller)
                    ++offCaller;
                if (i == 4)
                    throw std::logic_error("second failure");
                if (i == 1)
                    throw std::runtime_error("first failure");
            });
            FAIL() << "expected a throw, workers=" << workers;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "first failure");
        }
        // A failing item must not stop its siblings, and none runs
        // twice.
        for (std::size_t i = 0; i < ran.size(); ++i) {
            EXPECT_EQ(ran[i].load(), 1u)
                << "item " << i << " workers=" << workers;
        }
        if (workers == 1) {
            EXPECT_EQ(offCaller.load(), 0u) << "one worker runs inline";
        }
    }
    // Zero items and more workers than items are both fine.
    sim::parallelFor(0, 4, [](std::size_t) { FAIL(); });
    std::atomic<unsigned> count{0};
    sim::parallelFor(2, 8, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 2u);
}

// ---------------------------------------------------------------------
// Queued cells (RunCtx::addCells) on the same pool
// ---------------------------------------------------------------------

namespace {

exp::DriverOptions
matrixOpts(const std::string &only, unsigned jobs)
{
    exp::DriverOptions o = smallOpts(only, 42, jobs);
    o.schemes = {dma::SchemeKind::IommuOff, dma::SchemeKind::Strict,
                 dma::SchemeKind::Deferred, dma::SchemeKind::Damn};
    o.backends = {iommu::BackendKind::Vtd, iommu::BackendKind::SmmuV3};
    return o;
}

/** Registers fixture experiment @p name: one run written directly,
 *  then four cells c0..c3 writing one run each, of which every cell
 *  from @p failFrom on throws "c<i> failure". */
bool
registerCellFixture(const std::string &name, std::size_t failFrom)
{
    exp::Experiment e;
    e.name = name;
    e.title = "direct run plus four cells (test fixture)";
    e.paper = "test";
    e.run = [failFrom](exp::RunCtx &ctx) {
        ctx.out.beginRun("direct");
        std::vector<exp::Cell> cells;
        for (std::size_t i = 0; i < 4; ++i) {
            const std::string cell = "c" + std::to_string(i);
            cells.push_back({cell, [cell, i, failFrom](exp::Collector &col) {
                                 if (i >= failFrom)
                                     throw std::runtime_error(cell +
                                                              " failure");
                                 col.beginRun(cell);
                             }});
        }
        ctx.addCells(std::move(cells));
    };
    return exp::registerExperiment(std::move(e));
}

const bool kCellFixtures [[maybe_unused]] =
    registerCellFixture("zz_cells_ok", 4) &&
    registerCellFixture("zz_cells_throw", 1);

} // namespace

TEST(Parallel, CellMatrixByteIdenticalAcrossJobs)
{
    // 4 schemes x both backends through the cell-routed experiment:
    // one unit, eight cells, at every --jobs point of the matrix.
    const Serialized serial = serialize(matrixOpts("netperf_stream", 1));
    EXPECT_GT(serial.trace.size(), 1000u)
        << "trace suspiciously small; comparison would be vacuous";
    for (const unsigned jobs : {2u, 4u, 8u}) {
        const Serialized parallel =
            serialize(matrixOpts("netperf_stream", jobs));
        EXPECT_EQ(serial.json, parallel.json) << "jobs=" << jobs;
        EXPECT_EQ(serial.trace, parallel.trace) << "jobs=" << jobs;
    }
}

TEST(Parallel, RepeatedCellSweepByteIdenticalAcrossJobs)
{
    // Two units of 24 cells each: both phases of the pool at once.
    exp::DriverOptions serial = matrixOpts("rdma_pagefault", 1);
    exp::DriverOptions parallel = matrixOpts("rdma_pagefault", 4);
    serial.repeat = parallel.repeat = 2;
    const Serialized a = serialize(serial);
    const Serialized b = serialize(parallel);
    EXPECT_EQ(a.json, b.json);
    EXPECT_EQ(a.trace, b.trace);
}

TEST(Parallel, CellRunsMergeAfterDirectRunsInCellOrder)
{
    for (const unsigned jobs : {1u, 8u}) {
        const exp::Report r =
            exp::runExperiments(smallOpts("zz_cells_ok", 42, jobs, 2));
        ASSERT_EQ(r.experiments.size(), 1u);
        std::vector<std::string> order;
        for (const exp::Run &run : r.experiments[0].runs)
            order.push_back(run.params.at(0).second + "/" + run.scheme);
        const std::vector<std::string> want = {
            "0/direct", "0/c0", "0/c1", "0/c2", "0/c3",
            "1/direct", "1/c0", "1/c1", "1/c2", "1/c3"};
        EXPECT_EQ(order, want) << "jobs=" << jobs;
    }
}

TEST(Parallel, FailingCellRethrowsBesideHealthyUnits)
{
    for (const unsigned jobs : {1u, 4u}) {
        // zz_cells_ok's two reps are healthy units with cells of their
        // own; the first failure in unit order is the second cell (c1)
        // of zz_cells_throw's first rep, though c2 and c3 fail too.
        try {
            exp::runExperiments(smallOpts("zz_cells_*", 42, jobs, 2));
            FAIL() << "expected a throw, jobs=" << jobs;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "c1 failure");
        }
    }
}

TEST(Parallel, IntraJobsFlagIsRejected)
{
    // One pool, one flag: --jobs alone parallelises inside an
    // experiment too, and the old per-experiment flag is gone.
    exp::DriverOptions o;
    std::string err;
    const char *argv[] = {"damn_bench", "--intra-jobs=4"};
    EXPECT_FALSE(exp::parseArgs(2, argv, &o, &err));
    EXPECT_EQ(err, "unknown option: --intra-jobs");
}
