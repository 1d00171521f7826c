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

PageWalkCache::PageWalkCache(unsigned capacity) : capacity_(capacity)
{
    // At most a quarter full: short probe runs on every lookup.
    unsigned bits = 2;
    while ((std::size_t{1} << bits) < std::size_t(capacity) * 4)
        ++bits;
    index_.assign(std::size_t{1} << bits, kEmpty);
    shift_ = 64 - bits;
    entries_.reserve(capacity);
}

std::size_t
PageWalkCache::home(DomainId domain, Iova tag) const
{
    // Fibonacci hashing: the top bits of the product mix every input
    // bit, so neighbouring 2 MiB tags land in different home slots.
    const std::uint64_t key = tag ^ (std::uint64_t(domain) << 44);
    return std::size_t((key * 0x9E3779B97F4A7C15ull) >> shift_);
}

void
PageWalkCache::unlink(std::uint32_t e)
{
    Entry &x = entries_[e];
    (x.prev == kNil ? head_ : entries_[x.prev].next) = x.next;
    (x.next == kNil ? tail_ : entries_[x.next].prev) = x.prev;
}

void
PageWalkCache::pushFront(std::uint32_t e)
{
    Entry &x = entries_[e];
    x.prev = kNil;
    x.next = head_;
    (head_ == kNil ? tail_ : entries_[head_].prev) = e;
    head_ = e;
}

void
PageWalkCache::insertKey(std::uint32_t e)
{
    const std::size_t mask = index_.size() - 1;
    std::size_t p = home(entries_[e].domain, entries_[e].tag);
    while (index_[p] != kEmpty)
        p = (p + 1) & mask;
    index_[p] = e + 1;
}

void
PageWalkCache::eraseKey(std::uint32_t e)
{
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = home(entries_[e].domain, entries_[e].tag);
    while (index_[hole] != e + 1)
        hole = (hole + 1) & mask;
    // Backward-shift deletion: pull later members of the probe run
    // into the hole unless that would move one before its home slot.
    for (std::size_t q = (hole + 1) & mask; index_[q] != kEmpty;
         q = (q + 1) & mask) {
        const Entry &x = entries_[index_[q] - 1];
        const std::size_t h = home(x.domain, x.tag);
        if (((q - h) & mask) >= ((q - hole) & mask)) {
            index_[hole] = index_[q];
            hole = q;
        }
    }
    index_[hole] = kEmpty;
}

bool
PageWalkCache::touch(DomainId domain, Iova tag)
{
    // Most walks fall in the region walked last: try it before hashing.
    if (head_ != kNil && entries_[head_].tag == tag &&
        entries_[head_].domain == domain)
        return true;
    if (capacity_ == 0)
        return false;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t p = home(domain, tag); index_[p] != kEmpty;
         p = (p + 1) & mask) {
        const std::uint32_t e = index_[p] - 1;
        if (entries_[e].tag == tag && entries_[e].domain == domain) {
            unlink(e);
            pushFront(e);
            return true;
        }
    }
    std::uint32_t e;
    if (entries_.size() < capacity_) {
        e = std::uint32_t(entries_.size());
        entries_.push_back({});
    } else {
        e = tail_;
        eraseKey(e);
        unlink(e);
    }
    entries_[e].tag = tag;
    entries_[e].domain = domain;
    insertKey(e);
    pushFront(e);
    return false;
}

bool
Iotlb::walkCached(DomainId domain, Iova iova)
{
    return pwc_.touch(domain, iova >> 21);
}

const TlbEntry *
Iotlb::lookup(DomainId domain, Iova iova)
{
    // The LRU clock advances only when a stamp is actually written (on
    // hit; insert stamps for itself), keeping the miss path scan-only.
    // Only the *relative order* of lastUse values
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
