/**
 * @file
 * Host-time spans recorded from the benchmark's own code around the
 * calls it makes into the simulator's public functions.
 *
 * A span has a kind (its name), a start and end on the steady clock,
 * the span that encloses it and the id of the workload repetition it
 * belongs to.  Spans stay in memory and are written out once, at exit.
 * Every close also feeds per-kind aggregates — count, total and self
 * time (duration minus the part its child spans cover) and, for the
 * kinds whose distribution is reported, the duration samples.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hh"

namespace perfbench {

enum class SpanKind : std::uint8_t
{
    Rep,          //!< one whole workload repetition (root)
    Build,        //!< System + NIC + stack construction, flow set-up
    Run,          //!< the simulated window
    Slice,        //!< one engine.run() step of 1 simulated ms
    Ref,          //!< an interleaved reference-kernel call
    Report,       //!< results, stats snapshot and digest
    Teardown,     //!< stream teardown, drain and destruction
    DmaMap,       //!< DmaApi::map
    DmaUnmap,     //!< DmaApi::unmap
    DmaUnmapBatch,//!< DmaApi::unmapBatch
    DmaOther,     //!< every other DmaApi call
    ExpRun,       //!< exp::runExperiments
    ExpJson,      //!< exp::reportJson + dump
    ShardRun,     //!< work::runShardedNetperf
    Count
};

inline const char *
spanName(SpanKind k)
{
    static constexpr const char *kNames[] = {
        "rep",       "build",       "run",         "slice",
        "ref",       "report",      "teardown",    "dma.map",
        "dma.unmap", "dma.unmap_batch", "dma.other", "exp.run",
        "exp.json",  "shard.run"};
    static_assert(sizeof kNames / sizeof kNames[0] ==
                  std::size_t(SpanKind::Count));
    return kNames[std::size_t(k)];
}

class SpanRecorder
{
  public:
    /** Spans kept for the output file; later ones are only counted. */
    static constexpr std::size_t kMaxStored = 200000;
    /** Duration samples kept per kind for percentiles. */
    static constexpr std::size_t kMaxSamples = std::size_t{1} << 22;
    static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

    struct Agg
    {
        std::uint64_t count = 0;
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
        std::vector<std::uint32_t> samplesNs;
    };

    SpanRecorder()
    {
        sampled_[std::size_t(SpanKind::Slice)] = true;
        sampled_[std::size_t(SpanKind::DmaMap)] = true;
        sampled_[std::size_t(SpanKind::DmaUnmap)] = true;
        stored_.reserve(kMaxStored);
    }

    void setRun(std::uint32_t run) { run_ = run; }

    void
    open(SpanKind k)
    {
        Frame f;
        f.kind = k;
        if (stored_.size() < kMaxStored) {
            f.index = std::uint32_t(stored_.size());
            stored_.push_back(
                {0, 0,
                 stack_.empty() ? kNoParent : stack_.back().index, run_,
                 k});
        } else {
            ++dropped_;
        }
        f.t0 = nowNs(); // last, so the bookkeeping above is not timed
        stack_.push_back(f);
    }

    /** Close the innermost span; returns its duration. */
    std::int64_t
    close()
    {
        const std::int64_t t1 = nowNs();
        const Frame f = stack_.back();
        stack_.pop_back();
        const std::int64_t dur = t1 - f.t0;
        Agg &a = agg_[std::size_t(f.kind)];
        ++a.count;
        a.totalNs += dur;
        a.selfNs += dur - f.childNs;
        if (sampled_[std::size_t(f.kind)] &&
            a.samplesNs.size() < kMaxSamples)
            a.samplesNs.push_back(std::uint32_t(
                std::min<std::int64_t>(dur, 0xffffffff)));
        if (f.index != kNoParent) {
            stored_[f.index].t0 = f.t0;
            stored_[f.index].t1 = t1;
        }
        if (!stack_.empty())
            stack_.back().childNs += dur;
        return dur;
    }

    const Agg &agg(SpanKind k) const { return agg_[std::size_t(k)]; }

    /** Write every stored span as JSON; false on I/O failure. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"fields\": [\"run\", \"name\", \"parent\", "
                        "\"start_ns\", \"end_ns\"],\n \"dropped\": %llu,"
                        "\n \"spans\": [",
                     (unsigned long long)dropped_);
        const std::int64_t base = stored_.empty() ? 0 : stored_[0].t0;
        for (std::size_t i = 0; i < stored_.size(); ++i) {
            const Stored &s = stored_[i];
            std::fprintf(f, "%s\n  [%u, \"%s\", %lld, %lld, %lld]",
                         i ? "," : "", s.run, spanName(s.kind),
                         s.parent == kNoParent ? -1LL
                                               : (long long)s.parent,
                         (long long)(s.t0 - base),
                         (long long)(s.t1 - base));
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Frame
    {
        SpanKind kind = SpanKind::Rep;
        std::uint32_t index = kNoParent;
        std::int64_t t0 = 0;
        std::int64_t childNs = 0;
    };

    struct Stored
    {
        std::int64_t t0;
        std::int64_t t1;
        std::uint32_t parent;
        std::uint32_t run;
        SpanKind kind;
    };

    std::array<Agg, std::size_t(SpanKind::Count)> agg_{};
    std::array<bool, std::size_t(SpanKind::Count)> sampled_{};
    std::vector<Frame> stack_;
    std::vector<Stored> stored_;
    std::uint64_t dropped_ = 0;
    std::uint32_t run_ = 0;
};

/**
 * RAII span that records only when a recorder is attached, so the
 * untraced path costs one branch.
 */
class Scope
{
  public:
    Scope(SpanRecorder *rec, SpanKind k) : rec_(rec)
    {
        if (rec_)
            rec_->open(k);
    }
    ~Scope()
    {
        if (rec_)
            rec_->close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder *rec_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
