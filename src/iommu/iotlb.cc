/**
 * @file
 * IOTLB implementation.
 */

#include "iommu/iotlb.hh"

namespace damn::iommu {

TlbEntry *
Iotlb::setBase(bool huge, DomainId domain, Iova page_tag)
{
    // Real IOTLBs index by the low page-number bits (not a hash).
    // This is what makes DAMN's metadata-in-IOVA encoding cost IOTLB
    // reach: regions that differ only in their *high* bits (cpu,
    // rights, device fields) map the same offsets onto the same sets
    // and conflict, while densely recycled DMA-API IOVAs spread out.
    (void)domain;
    auto &bank = huge ? bank2m_ : bank4k_;
    const unsigned sets = huge ? sets2m_ : sets4k_;
    const unsigned ways = waysOf(huge);
    const unsigned shift = huge ? 21 : 12;
    return &bank[std::size_t((page_tag >> shift) % sets) * ways];
}

bool
Iotlb::walkCached(DomainId domain, Iova iova)
{
    const Iova tag = iova >> 21;
    PwcEntry *victim = &pwc_[0];
    for (PwcEntry &e : pwc_) {
        if (e.valid && e.domain == domain && e.tag == tag) {
            e.lastUse = ++clock_;
            return true;
        }
        if (!e.valid || e.lastUse < victim->lastUse)
            victim = &e;
    }
    victim->valid = true;
    victim->domain = domain;
    victim->tag = tag;
    victim->lastUse = ++clock_;
    return false;
}

const TlbEntry *
Iotlb::lookup(DomainId domain, Iova iova)
{
    // The LRU clock advances only when a stamp is actually written (on
    // hit; insert/walkCached stamp for themselves), keeping the miss
    // path scan-only.  Only the *relative order* of lastUse values
    // feeds victim selection, so skipping ticks on misses leaves every
    // eviction decision — and therefore all simulated output —
    // unchanged.
    //
    // 2 MiB bank first: a huge entry covers the 4 KiB tag too.
    const Iova tag2m = iova & ~(kHugePageSize - 1);
    TlbEntry *set = setBase(true, domain, tag2m);
    for (unsigned w = 0; w < ways2m_; ++w) {
        TlbEntry &e = set[w];
        if (e.valid && e.domain == domain && e.iovaPage == tag2m &&
            e.huge) {
            e.lastUse = ++clock_;
            ++hits_;
            return &e;
        }
    }
    const Iova tag4k = iova & ~Iova(mem::kPageSize - 1);
    set = setBase(false, domain, tag4k);
    for (unsigned w = 0; w < ways4k_; ++w) {
        TlbEntry &e = set[w];
        if (e.valid && e.domain == domain && e.iovaPage == tag4k &&
            !e.huge) {
            e.lastUse = ++clock_;
            ++hits_;
            return &e;
        }
    }
    ++misses_;
    return nullptr;
}

void
Iotlb::insert(DomainId domain, Iova iova, const WalkResult &walk)
{
    if (!walk.present)
        return;
    const bool huge = walk.huge;
    const std::uint64_t page_mask =
        huge ? kHugePageSize - 1 : mem::kPageSize - 1;
    const Iova tag = iova & ~page_mask;
    TlbEntry *set = setBase(huge, domain, tag);
    const unsigned ways = waysOf(huge);
    TlbEntry *victim = &set[0];
    for (unsigned w = 0; w < ways; ++w) {
        TlbEntry &e = set[w];
        // An existing entry for this tag must be updated in place —
        // duplicate entries for one translation would let a stale copy
        // survive a refill.
        if (e.valid && e.domain == domain && e.iovaPage == tag &&
            e.huge == huge) {
            victim = &e;
            break;
        }
        if (!e.valid) {
            victim = &e;
            continue;
        }
        if (victim->valid && e.lastUse < victim->lastUse)
            victim = &e;
    }
    victim->valid = true;
    victim->domain = domain;
    victim->iovaPage = tag;
    victim->paPage = walk.pa & ~page_mask;
    victim->perm = walk.perm;
    victim->huge = huge;
    victim->lastUse = ++clock_;
}

void
Iotlb::invalidateRange(DomainId domain, Iova iova, std::uint64_t len)
{
    if (debugDropRemaining_ > 0) {
        --debugDropRemaining_;
        return;
    }
    ++invalidations_;
    // Overlap with [iova, iova + len) in inclusive last addresses, so
    // nothing wraps past 2^64: an entry's last byte is at most 2^64 - 1,
    // and an entry at or above iova overlaps when its offset from iova
    // is below len.  The top page therefore invalidates like any other,
    // and a range running past 2^64 stops at the top.  A zero-length
    // range covers only entries that strictly contain iova.
    const auto invalidate = [&](TlbEntry &e) {
        if (!e.valid || e.domain != domain)
            return;
        const std::uint64_t sz = e.huge ? kHugePageSize : mem::kPageSize;
        const Iova entryLast = e.iovaPage + (sz - 1);
        if (entryLast >= iova &&
            (e.iovaPage < iova || e.iovaPage - iova < len))
            e.valid = false;
    };
    // Page-selective invalidation (VT-d PSI with an address mask, the
    // SMMUv3 range TLBI): an entry overlapping [iova, last] has a page
    // tag in [iova >> shift, last >> shift], so only the sets those
    // tags index can hold one.  The predicate is the same as the full
    // scan's, so the same entries go.  An empty range, or one with at
    // least as many tags as the bank has sets, scans the whole bank.
    const Iova last =
        len - 1 > ~Iova{0} - iova ? ~Iova{0} : iova + (len - 1);
    for (const bool huge : {false, true}) {
        auto &bank = huge ? bank2m_ : bank4k_;
        const unsigned sets = huge ? sets2m_ : sets4k_;
        const unsigned shift = huge ? 21 : 12;
        const Iova first = iova >> shift;
        const Iova tags = (last >> shift) - first + 1;
        if (len == 0 || tags >= sets) {
            for (TlbEntry &e : bank)
                invalidate(e);
            continue;
        }
        const unsigned ways = waysOf(huge);
        for (Iova t = first; t < first + tags; ++t) {
            TlbEntry *set = setBase(huge, domain, t << shift);
            for (unsigned w = 0; w < ways; ++w)
                invalidate(set[w]);
        }
    }
}

void
Iotlb::invalidateDomain(DomainId domain)
{
    if (debugDropRemaining_ > 0) {
        --debugDropRemaining_;
        return;
    }
    ++invalidations_;
    for (auto *bank : {&bank4k_, &bank2m_})
        for (TlbEntry &e : *bank)
            if (e.domain == domain)
                e.valid = false;
}

void
Iotlb::invalidateAll()
{
    ++invalidations_;
    for (auto *bank : {&bank4k_, &bank2m_})
        for (TlbEntry &e : *bank)
            e.valid = false;
}

std::vector<TlbEntry>
Iotlb::validEntries(DomainId domain) const
{
    std::vector<TlbEntry> out;
    for (const auto *bank : {&bank4k_, &bank2m_})
        for (const TlbEntry &e : *bank)
            if (e.valid && e.domain == domain)
                out.push_back(e);
    return out;
}

} // namespace damn::iommu
