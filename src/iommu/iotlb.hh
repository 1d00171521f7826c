/**
 * @file
 * Set-associative IOTLB model.
 *
 * Caches IOVA-to-PA translations per domain.  Crucially for the
 * paper's security analysis, a stale IOTLB entry keeps a translation
 * *functionally alive* after the page-table entry is gone — this is the
 * deferred-mode vulnerability window the attack tests exploit.
 */

#ifndef DAMN_IOMMU_IOTLB_HH
#define DAMN_IOMMU_IOTLB_HH

#include <cstdint>
#include <vector>

#include "iommu/io_pgtable.hh"

namespace damn::iommu {

/** Identifier of an IOMMU domain (one per attached device here). */
using DomainId = std::uint32_t;

/** One cached translation. */
struct TlbEntry
{
    bool valid = false;
    DomainId domain = 0;
    Iova iovaPage = 0;          //!< page-aligned tag (4 KiB or 2 MiB)
    mem::Pa paPage = 0;
    std::uint32_t perm = 0;
    bool huge = false;
    std::uint64_t lastUse = 0;  //!< LRU stamp
};

/**
 * Page-walk cache: an exact LRU set of (domain, 2 MiB tag) keys.
 *
 * An intrusive doubly linked recency list orders the entries; a small
 * open-addressed index (linear probing, backward-shift deletion, at
 * most one quarter full) finds a key's entry, so a lookup costs O(1)
 * instead of a scan of every entry.  Entries are never invalidated:
 * empty entries fill first, then the least recently touched key is
 * evicted.  A capacity of zero caches nothing.
 */
class PageWalkCache
{
  public:
    explicit PageWalkCache(unsigned capacity);

    /**
     * Look up (@p domain, @p tag) and make it the most recent entry:
     * true on a hit; on a miss insert it, evicting the least recently
     * used entry when full, and return false.
     */
    bool touch(DomainId domain, Iova tag);

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    static constexpr std::uint32_t kEmpty = 0; //!< index: entry + 1

    struct Entry
    {
        Iova tag;
        DomainId domain;
        std::uint32_t prev; //!< toward the most recent, kNil at head
        std::uint32_t next; //!< toward the least recent, kNil at tail
    };

    std::size_t home(DomainId domain, Iova tag) const;
    void unlink(std::uint32_t e);
    void pushFront(std::uint32_t e);
    void eraseKey(std::uint32_t e);
    void insertKey(std::uint32_t e);

    std::vector<Entry> entries_;       //!< filled in order, never shrinks
    std::vector<std::uint32_t> index_; //!< power-of-two open addressing
    unsigned capacity_;
    unsigned shift_;                   //!< 64 - log2(index_.size())
    std::uint32_t head_ = kNil;        //!< most recently used
    std::uint32_t tail_ = kNil;        //!< least recently used
};

/**
 * Two-bank set-associative IOTLB: a 4 KiB bank and a 2 MiB bank, as in
 * real VT-d implementations.  A 2 MiB entry covers 512x the IOVA range,
 * which is why Table 3's huge+dense variant gains throughput.
 */
class Iotlb
{
  public:
    /**
     * @param sets4k / @p ways4k  geometry of the 4 KiB bank.
     * @param sets2m / @p ways2m  geometry of the 2 MiB bank.
     * @param pwc_entries         page-walk-cache capacity (backends
     *                            differ; see iommu::TlbGeometry).
     */
    Iotlb(unsigned sets4k = 256, unsigned ways4k = 4,
          unsigned sets2m = 32, unsigned ways2m = 4,
          unsigned pwc_entries = 32)
        : sets4k_(sets4k), ways4k_(ways4k),
          sets2m_(sets2m), ways2m_(ways2m),
          bank4k_(std::size_t(sets4k) * ways4k),
          bank2m_(std::size_t(sets2m) * ways2m),
          pwc_(pwc_entries)
    {}

    /** Look up @p iova for @p domain; returns nullptr on miss. */
    const TlbEntry *lookup(DomainId domain, Iova iova);

    /**
     * Page-walk-cache lookup+fill for a missing translation: true when
     * the upper page-table levels for @p iova's 2 MiB region are
     * cached, making the walk cheap.  DAMN's metadata-in-IOVA encoding
     * spreads buffers across many 2 MiB regions (one per allocating
     * core x cache), which thrashes this cache — the effect Table 3's
     * dense-IOVA variant removes.
     */
    bool walkCached(DomainId domain, Iova iova);

    /** Insert a walk result (evicts LRU way of the set). */
    void insert(DomainId domain, Iova iova, const WalkResult &walk);

    /**
     * Invalidate any entry covering [@p iova, @p iova + @p len).
     * Visits only the sets the range's page tags index; a range with
     * at least as many tags as a bank has sets, an empty range, or one
     * that wraps past 2^64 scans that bank in full.
     */
    void invalidateRange(DomainId domain, Iova iova, std::uint64_t len);

    /** Invalidate everything belonging to @p domain. */
    void invalidateDomain(DomainId domain);

    /** Invalidate the whole IOTLB (global flush). */
    void invalidateAll();

    /**
     * Snapshot of every valid entry cached for @p domain (both banks).
     *
     * COLD PATH ONLY: audit/teardown use, never per-packet.  It scans
     * both banks linearly, allocates the result vector, charges no
     * virtual time and no sim::Tracer category, and — being const —
     * cannot perturb the hot-path state (hit/miss counters, LRU clock,
     * entry stamps), so calling it mid-run never changes simulated
     * output.  After a domain invalidation this must be empty;
     * anything else is a stale translation keeping freed memory
     * device-reachable.
     */
    std::vector<TlbEntry> validEntries(DomainId domain) const;

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t invalidations() const { return invalidations_; }

    /**
     * TEST-ONLY oracle self-check hook: silently discard the next
     * @p n *targeted* invalidations (invalidateRange/invalidateDomain;
     * never the global invalidateAll).  The drop is invisible — the
     * invalidation counter does not advance and no stat is booked — so
     * it plants exactly the stale-translation hole the fuzzer's
     * no-stale-translation-after-sync oracle must catch.  Production
     * code never calls this; the fuzz harness arms it via its
     * inject_bug op.
     */
    void debugDropInvalidations(unsigned n) { debugDropRemaining_ = n; }

    double
    hitRate() const
    {
        const std::uint64_t total = hits_ + misses_;
        return total == 0 ? 0.0 : double(hits_) / double(total);
    }

    void
    resetAccounting()
    {
        hits_ = 0;
        misses_ = 0;
        invalidations_ = 0;
    }

  private:
    TlbEntry *setBase(bool huge, DomainId domain, Iova page_tag);
    unsigned waysOf(bool huge) const { return huge ? ways2m_ : ways4k_; }

    unsigned sets4k_, ways4k_, sets2m_, ways2m_;
    std::vector<TlbEntry> bank4k_;
    std::vector<TlbEntry> bank2m_;
    PageWalkCache pwc_;
    std::uint64_t clock_ = 0;
    unsigned debugDropRemaining_ = 0; //!< test-only; see above
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t invalidations_ = 0;
};

} // namespace damn::iommu

#endif // DAMN_IOMMU_IOTLB_HH
