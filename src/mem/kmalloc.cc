/**
 * @file
 * kmalloc slab implementation.
 */

#include "mem/kmalloc.hh"

#include <cassert>

#include "sim/check.hh"

namespace damn::mem {

unsigned
KmallocHeap::classFor(std::uint32_t size)
{
    for (unsigned i = 0; i < kClasses.size(); ++i)
        if (size <= kClasses[i])
            return i;
    assert(false && "kmalloc size > 4096; use the page allocator");
    return unsigned(kClasses.size()) - 1;
}

bool
KmallocHeap::refill(unsigned cls)
{
    const Pfn pfn = pa_.allocPages(0, 0, /*zero=*/false);
    if (pfn == kInvalidPfn) {
        // Kernel heap exhausted: surface the failure so kmalloc can
        // honor its "0 on exhaustion" contract.
        ++refillFails_;
        return false;
    }
    Page &pg = pa_.phys().page(pfn);
    pg.set(PG_slab);
    pg.slabClass = cls;
    ++pinnedPages_;
    ++slabs_[cls].pages;

    const std::uint32_t obj = kClasses[cls];
    const Pa base = pfnToPa(pfn);
    // Carve back-to-front so the freelist pops front-to-back; unrelated
    // consecutive allocations land adjacent on the same page.
    for (std::uint64_t off = kPageSize; off >= obj; off -= obj)
        slabs_[cls].freeList.push_back(base + off - obj);
    return true;
}

Pa
KmallocHeap::kmalloc(std::uint32_t size)
{
    assert(size > 0);
    const unsigned cls = classFor(size);
    auto &slab = slabs_[cls];
    if (slab.freeList.empty() && !refill(cls))
        return 0;
    const Pa addr = slab.freeList.back();
    slab.freeList.pop_back();
    allocatedBytes_ += kClasses[cls];
    ++liveObjects_;
    return addr;
}

void
KmallocHeap::kfree(Pa addr)
{
    if (addr == 0)
        return;
    Page &pg = pa_.phys().pageOf(addr);
    DAMN_CHECK(pg.test(PG_slab), "kfree of a non-slab address");
    const unsigned cls = pg.slabClass;
    assert(pageOffset(addr) % kClasses[cls] == 0 && "misaligned kfree");
    slabs_[cls].freeList.push_back(addr);
    assert(allocatedBytes_ >= kClasses[cls]);
    allocatedBytes_ -= kClasses[cls];
    assert(liveObjects_ > 0);
    --liveObjects_;
}

} // namespace damn::mem
