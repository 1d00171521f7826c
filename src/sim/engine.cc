/**
 * @file
 * Engine event loop: 4-ary heap maintenance and the batched dispatch
 * loop.
 */

#include "sim/engine.hh"

namespace damn::sim {

// Both sifts carry the moving node in a register and shift the nodes
// it passes over into the hole it leaves, writing the node itself once
// where it stops: one store per level instead of a swap's three.

void
Engine::heapPush(HeapNode node)
{
    std::size_t hole = heap_.size();
    heap_.push_back(node);
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / kArity;
        if (!before(node, heap_[parent]))
            break;
        heap_[hole] = heap_[parent];
        hole = parent;
    }
    heap_[hole] = node;
}

void
Engine::heapPop()
{
    const std::size_t n = heap_.size() - 1;
    const HeapNode node = heap_[n];
    heap_.pop_back();
    if (n == 0)
        return;
    std::size_t hole = 0;
    for (;;) {
        const std::size_t first = hole * kArity + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = first + kArity < n ? first + kArity : n;
        for (std::size_t c = first + 1; c < last; ++c)
            if (before(heap_[c], heap_[best]))
                best = c;
        if (!before(heap_[best], node))
            break;
        heap_[hole] = heap_[best];
        hole = best;
    }
    heap_[hole] = node;
}

std::uint64_t
Engine::run(TimeNs until)
{
    std::uint64_t n = 0;
    // Batch buffer is local so a callback that re-enters run() (legal,
    // if unusual) cannot clobber an in-flight batch.
    std::vector<HeapNode> batch;
    while (!heap_.empty()) {
        if (heap_[0].when > until)
            break;
        // Pop every event sharing the minimal timestamp before running
        // any of them: one `until` comparison per timestamp, and events
        // a callback schedules at the same instant sort after the batch
        // (their seq is higher) so FIFO order is preserved.
        const TimeNs t = heap_[0].when;
        batch.clear();
        do {
            const HeapNode node = heap_[0];
            heapPop();
            // Stale node: its event was cancelled (slot freed, maybe
            // since reused under a different seq).  Skip silently —
            // cancel() already adjusted the live count.
            if (slots_[node.slot].seq == node.seq)
                batch.push_back(node);
        } while (!heap_.empty() && heap_[0].when == t);
        now_ = t;
        for (const HeapNode &node : batch) {
            Slot &s = slots_[node.slot];
            // A batch member may be cancelled by an earlier member's
            // callback; the slot check repeats at dispatch time.
            if (s.seq != node.seq)
                continue;
            SmallFn cb = std::move(s.cb);
            releaseSlot(node.slot);
            --live_;
            ++dispatched_;
            ++n;
            cb();
        }
        // Cheap when unarmed: one branch per batch.
        if (wdArmed_ && dispatched_ - wdLastCheck_ >= wdStride_ &&
            watchdogCheck())
            break;
    }
    return n;
}

bool
Engine::watchdogCheck()
{
    wdLastCheck_ = dispatched_;
    const std::uint64_t p = wdProgress_ ? wdProgress_() : dispatched_;
    if (p != wdLastProgress_) {
        wdLastProgress_ = p;
        wdDispatchedAtProgress_ = dispatched_;
        return false;
    }
    if (dispatched_ - wdDispatchedAtProgress_ < wdMax_)
        return false;
    ++stalls_;
    lastStall_ = StallInfo{now_, dispatched_, live_,
                           dispatched_ - wdDispatchedAtProgress_, p};
    // Re-baseline so a caller that chooses to continue running is not
    // re-tripped on the very next batch.
    wdDispatchedAtProgress_ = dispatched_;
    if (wdOnStall_)
        wdOnStall_(lastStall_);
    return true;
}

} // namespace damn::sim
