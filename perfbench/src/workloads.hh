/**
 * @file
 * The benchmark's workloads.  Each one repeats a fixed simulated job —
 * build the machines, simulate a fixed virtual window, report, tear
 * down — and returns host-time measurements together with the
 * virtual-time results and their digest.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/stream.hh"
#include "refkernel.hh"
#include "spans.hh"

namespace perfbench {

/** The seed at which the netperf workloads use the Figure 1 layout. */
constexpr std::uint64_t kDefaultSeed = 42;

/** How one repetition is run. */
struct RepConfig
{
    /** Simulate a zero-length window: every fixed cost, no traffic. */
    bool zeroWindow = false;
    /**
     * Record spans here; null runs untraced.  A traced repetition also
     * swaps the forwarding DmaApi decorator into each System it builds.
     */
    SpanRecorder *spans = nullptr;
};

/** What one repetition measured. */
struct RepResult
{
    // Host time.
    std::int64_t wallNs = 0;  //!< the rep, minus reference-kernel calls
    std::int64_t cpuNs = 0;   //!< process CPU, minus the kernel's
    std::int64_t sysNs = 0;   //!< the system part of the process CPU
    std::int64_t runNs = 0;   //!< the simulation call(s) alone
    std::int64_t runCpuNs = 0;
    double refUnitS = 0.0;    //!< host seconds per reference unit
    double simMs = 0.0;       //!< simulated ms, summed over machines

    // Virtual time.
    std::uint64_t digest = 0;
    /** Exact per-layer counts and virtual-time results by metric name. */
    std::map<std::string, double> counts;

    /** Empty on success; otherwise what failed. */
    std::string error;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Run one repetition; never throws (failures go to error). */
    RepResult rep(const RepConfig &cfg);

    /** Whether --seed changes the workload's inputs. */
    virtual bool seedApplies() const { return true; }

    /**
     * Whether the repetition calls the reference kernel inside itself;
     * otherwise rep() calls it before and after.
     */
    virtual bool ticksInside(const RepConfig &) const { return false; }

    /**
     * Time construction and destruction of the machines this workload
     * builds inside library calls it cannot open up; spans go to
     * @p spans as build/teardown.  Workloads that build their own
     * machines leave this empty.
     */
    virtual void probeMachines(SpanRecorder &) {}

  protected:
    virtual void runRep(const RepConfig &cfg, RepResult &out) = 0;

    RefKernel ref_;

  private:
    /** Reference-kernel calls made around a repetition. */
    void bracket(SpanRecorder *spans);
};

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name for @p seed; null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/**
 * The Figure 1 bidirectional flow set (56 flows, RX on even flows),
 * with core and port assignment drawn from @p seed.  kDefaultSeed
 * gives the Figure 1 layout exactly; other seeds permute the cores and
 * may swap the ports, so every core still serves two flows of one
 * direction and each port carries one direction.
 */
std::vector<damn::net::FlowSpec> bidiFlows(std::uint64_t seed,
                                           unsigned ncores);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
