/**
 * @file
 * A forwarding dma::DmaApi decorator that the benchmark swaps into
 * `net::System::dmaApi` to time each DMA-API call from outside the
 * library.  It forwards every virtual to the scheme it wraps, charges
 * no virtual time and books nothing in the simulator, so the
 * simulated output with and without it is identical — the benchmark's
 * own tests check exactly that.
 */

#ifndef PERFBENCH_DMA_PROBE_HH
#define PERFBENCH_DMA_PROBE_HH

#include <memory>

#include "dma/dma_api.hh"
#include "spans.hh"

namespace perfbench {

class DmaProbe final : public damn::dma::DmaApi
{
  public:
    /** Wrap @p inner; @p spans may be null (forward only). */
    DmaProbe(std::unique_ptr<damn::dma::DmaApi> inner,
             SpanRecorder *spans)
        : inner_(std::move(inner)), spans_(spans)
    {}

    damn::iommu::Iova
    map(damn::sim::CpuCursor &cpu, damn::dma::Device &dev,
        damn::mem::Pa pa, std::uint32_t len,
        damn::dma::Dir dir) override
    {
        Scope s(spans_, SpanKind::DmaMap);
        return inner_->map(cpu, dev, pa, len, dir);
    }

    void
    unmap(damn::sim::CpuCursor &cpu, damn::dma::Device &dev,
          damn::iommu::Iova dma_addr, std::uint32_t len,
          damn::dma::Dir dir) override
    {
        Scope s(spans_, SpanKind::DmaUnmap);
        inner_->unmap(cpu, dev, dma_addr, len, dir);
    }

    void
    unmapBatch(damn::sim::CpuCursor &cpu, damn::dma::Device &dev,
               const std::vector<UnmapReq> &reqs) override
    {
        Scope s(spans_, SpanKind::DmaUnmapBatch);
        inner_->unmapBatch(cpu, dev, reqs);
    }

    const char *name() const override { return inner_->name(); }
    bool subpage() const override { return inner_->subpage(); }
    bool windowFree() const override { return inner_->windowFree(); }
    bool zeroCopy() const override { return inner_->zeroCopy(); }

    void
    flushPending(damn::sim::CpuCursor &cpu) override
    {
        Scope s(spans_, SpanKind::DmaOther);
        inner_->flushPending(cpu);
    }

    void
    setIovaSpaceBytes(std::uint64_t bytes) override
    {
        inner_->setIovaSpaceBytes(bytes);
    }

    double
    iovaUtilization() const override
    {
        return inner_->iovaUtilization();
    }

    std::uint64_t
    mapFailures() const override
    {
        return inner_->mapFailures();
    }

    std::uint64_t
    drainDomain(damn::sim::CpuCursor &cpu,
                damn::dma::Device &dev) override
    {
        Scope s(spans_, SpanKind::DmaOther);
        return inner_->drainDomain(cpu, dev);
    }

    std::uint64_t
    outstandingIovas() const override
    {
        return inner_->outstandingIovas();
    }

  private:
    std::unique_ptr<damn::dma::DmaApi> inner_;
    SpanRecorder *spans_;
};

} // namespace perfbench

#endif // PERFBENCH_DMA_PROBE_HH
