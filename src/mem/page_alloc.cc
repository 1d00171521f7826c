/**
 * @file
 * Buddy allocator implementation.
 */

#include "mem/page_alloc.hh"

#include <cassert>

#include "sim/check.hh"

namespace damn::mem {

namespace {

/** Marks a free buddy block: head page carries order + this flag. */
constexpr std::uint32_t kBuddyFree = 1u << 31;

} // namespace

PageAllocator::PageAllocator(PhysicalMemory &pm, unsigned zones)
    : pm_(pm)
{
    assert(zones >= 1);
    const Pfn per_zone = pm.numFrames() / zones;
    assert(per_zone >= (1ull << kMaxOrder));
    zones_.resize(zones);
    for (unsigned zi = 0; zi < zones; ++zi) {
        Zone &z = zones_[zi];
        z.base = per_zone * zi;
        z.frames = per_zone;
        z.free.resize(kMaxOrder + 1);
        // Seed the zone with max-order blocks.  Frame 0 stays
        // reserved (null); the first max-order block of zone 0 is
        // donated frame-by-frame minus frame 0 -- simpler: skip the
        // whole first block of zone 0 and mark it reserved.
        Pfn start = z.base;
        if (zi == 0) {
            for (Pfn p = 0; p < (1ull << kMaxOrder); ++p)
                pm_.page(p).set(PG_reserved);
            start += 1ull << kMaxOrder;
        }
        // Lazily: every block starts at or above the watermark, so none
        // is listed and no head page is written.
        const Pfn blocks = (z.base + z.frames - start) >> kMaxOrder;
        z.watermark = start;
        z.seedEnd = start + (blocks << kMaxOrder);
        z.freeFrames = blocks << kMaxOrder;
    }
}

sim::NumaId
PageAllocator::nodeOf(Pfn pfn) const
{
    for (unsigned zi = 0; zi < zones_.size(); ++zi) {
        const Zone &z = zones_[zi];
        if (pfn >= z.base && pfn < z.base + z.frames)
            return sim::NumaId(zi);
    }
    return 0;
}

PageAllocator::Zone &
PageAllocator::zoneOf(Pfn pfn)
{
    return zones_[nodeOf(pfn)];
}

Pfn
PageAllocator::allocFromZone(Zone &z, unsigned order, bool zero)
{
    // Find the smallest available order >= requested.  A listed
    // max-order block was freed after an allocation, so it lies below
    // the watermark: taking the list first and the watermark second
    // hands out pfns in the same order as if every block had been
    // listed from the start.
    unsigned o = order;
    while (o < kMaxOrder && z.free[o].empty())
        ++o;
    std::set<Pfn> &list = z.free[o];
    Pfn pfn;
    if (!list.empty()) {
        pfn = *list.begin();
        list.erase(list.begin());
        pm_.page(pfn).flags &= ~kBuddyFree;
    } else if (o == kMaxOrder && z.watermark < z.seedEnd) {
        pfn = z.watermark;
        z.watermark += 1ull << kMaxOrder;
    } else {
        return kInvalidPfn;
    }

    // Split down to the requested order, returning the upper halves
    // to the free lists.
    while (o > order) {
        --o;
        const Pfn buddy = pfn + (1ull << o);
        Page &bpg = pm_.page(buddy);
        bpg.order = std::uint8_t(o);
        bpg.flags |= kBuddyFree;
        z.free[o].insert(buddy);
    }

    Page &pg = pm_.page(pfn);
    pg.order = std::uint8_t(order);
    pg.refcount = 1;

    const Pfn frames = 1ull << order;
    z.freeFrames -= frames;
    allocatedFrames_ += frames;
    ++allocCalls_;

    if (zero)
        pm_.fill(pfnToPa(pfn), 0, frames * kPageSize);
    return pfn;
}

Pfn
PageAllocator::allocPages(unsigned order, sim::NumaId node, bool zero)
{
    assert(order <= kMaxOrder);
    const unsigned nz = unsigned(zones_.size());
    for (unsigned i = 0; i < nz; ++i) {
        const unsigned zi = (node + i) % nz;
        const Pfn pfn = allocFromZone(zones_[zi], order, zero);
        if (pfn != kInvalidPfn)
            return pfn;
    }
    return kInvalidPfn;
}

void
PageAllocator::freeToZone(Zone &z, Pfn pfn, unsigned order)
{
    // Coalesce with free buddies as far as possible.
    while (order < kMaxOrder) {
        const Pfn buddy = pfn ^ (1ull << order);
        if (buddy < z.base || buddy + (1ull << order) > z.base + z.frames)
            break;
        Page &bpg = pm_.page(buddy);
        if (!(bpg.flags & kBuddyFree) || bpg.order != order)
            break;
        z.free[order].erase(buddy);
        bpg.flags &= ~kBuddyFree;
        pfn = pfn < buddy ? pfn : buddy;
        ++order;
    }
    Page &pg = pm_.page(pfn);
    pg.order = std::uint8_t(order);
    pg.flags |= kBuddyFree;
    z.free[order].insert(pfn);
}

void
PageAllocator::freePages(Pfn pfn, unsigned order)
{
    DAMN_CHECK(order <= kMaxOrder, "freePages order above kMaxOrder");
    DAMN_CHECK(pfn + (1ull << order) <= pm_.numFrames(),
               "freePages of a block outside physical memory");
    Zone &z = zoneOf(pfn);
    DAMN_CHECK(pfn + (1ull << order) <= z.watermark,
               "free of a never-allocated buddy block");
    Page &pg = pm_.page(pfn);
    DAMN_CHECK(!(pg.flags & kBuddyFree),
               "double free of a buddy block");
    pg.refcount = 0;
    // Clear per-page metadata across the block so reuse starts clean.
    for (Pfn p = pfn; p < pfn + (1ull << order); ++p) {
        Page &tp = pm_.page(p);
        tp.flags &= kBuddyFree; // wipe everything but the buddy bit
        tp.compoundHead = 0;
        tp.priv = 0;
        tp.priv2 = 0;
        tp.slabClass = 0;
    }

    const Pfn frames = 1ull << order;
    z.freeFrames += frames;
    assert(allocatedFrames_ >= frames);
    allocatedFrames_ -= frames;
    freeToZone(z, pfn, order);
}

std::uint64_t
PageAllocator::freeFramesInZone(unsigned zone) const
{
    assert(zone < zones_.size());
    return zones_[zone].freeFrames;
}

std::uint64_t
PageAllocator::freeFrames() const
{
    std::uint64_t t = 0;
    for (const auto &z : zones_)
        t += z.freeFrames;
    return t;
}

} // namespace damn::mem
