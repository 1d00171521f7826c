/**
 * @file
 * Four-level I/O page table (Intel VT-d second-level style).
 *
 * Maps 48-bit I/O virtual addresses to physical addresses at 4 KiB
 * granularity, with optional 2 MiB "huge" mappings (used by the paper's
 * Table 3 huge-IOVA-page variant).  Each mapping carries read/write
 * permission bits; translation fails on a missing entry or an access
 * that exceeds the granted rights.
 */

#ifndef DAMN_IOMMU_IO_PGTABLE_HH
#define DAMN_IOMMU_IO_PGTABLE_HH

#include <cstdint>
#include <memory>

#include "mem/phys.hh"

namespace damn::iommu {

/** I/O virtual address (48-bit significant). */
using Iova = std::uint64_t;

/** DMA access permissions. */
enum Perm : std::uint32_t
{
    PermNone = 0,
    PermRead = 1,   //!< device may read (TX buffers)
    PermWrite = 2,  //!< device may write (RX buffers)
    PermRW = PermRead | PermWrite,
};

constexpr unsigned kIovaBits = 48;
constexpr std::uint64_t kHugePageSize = 2ull << 20; // 2 MiB

/** Result of a page-table walk. */
struct WalkResult
{
    bool present = false;
    mem::Pa pa = 0;          //!< translated physical address
    std::uint32_t perm = 0;  //!< permissions of the covering entry
    bool huge = false;       //!< covered by a 2 MiB entry
};

/**
 * Radix page table: 4 levels x 9 bits + 12-bit page offset = 48 bits.
 * Level 1 is the leaf level for 4 KiB pages; level 2 entries may be
 * leaves for 2 MiB pages.
 */
class IoPageTable
{
  public:
    IoPageTable();
    ~IoPageTable();

    IoPageTable(const IoPageTable &) = delete;
    IoPageTable &operator=(const IoPageTable &) = delete;

    /**
     * Map one 4 KiB page: @p iova -> @p pa with @p perm.
     * @return false if already mapped (callers treat as a bug).
     */
    bool map(Iova iova, mem::Pa pa, std::uint32_t perm);

    /** Map one 2 MiB block (iova and pa must be 2 MiB aligned). */
    bool mapHuge(Iova iova, mem::Pa pa, std::uint32_t perm);

    /**
     * Remove the 4 KiB mapping at @p iova.
     * @return true if a mapping was removed.
     */
    bool unmap(Iova iova);

    /** Remove the 2 MiB mapping at @p iova. */
    bool unmapHuge(Iova iova);

    /** Walk the table for @p iova. */
    WalkResult walk(Iova iova) const;

    /** Currently-mapped 4 KiB-equivalent page count. */
    std::uint64_t mappedPages() const { return mapped4k_ + mapped2m_ * 512; }
    std::uint64_t mapped4kEntries() const { return mapped4k_; }
    std::uint64_t mapped2mEntries() const { return mapped2m_; }

    /**
     * TEST-ONLY: zero both mapping counters and leave every entry in
     * place, planting the entry/counter mismatch that unmap() and
     * unmapHuge() must fail-stop on.  Production code never calls
     * this.
     */
    void debugForgetCounts() { mapped4k_ = mapped2m_ = 0; }

  private:
    struct Node; // 512-ary radix node

    struct Entry
    {
        std::uint64_t val = 0;          //!< leaf: pa | perm bits | flags
        std::unique_ptr<Node> child;    //!< interior: next level
    };

    static constexpr std::uint64_t kPresent = 1ull << 0;
    static constexpr std::uint64_t kReadBit = 1ull << 1;
    static constexpr std::uint64_t kWriteBit = 1ull << 2;
    static constexpr std::uint64_t kHugeBit = 1ull << 3;
    static constexpr std::uint64_t kAddrMask = ~0xfffull;

    Entry *lookupEntry(Iova iova, unsigned leaf_level, bool create);
    const Entry *peekEntry(Iova iova, unsigned leaf_level) const;

    std::unique_ptr<Node> root_;
    std::uint64_t mapped4k_ = 0;
    std::uint64_t mapped2m_ = 0;
};

} // namespace damn::iommu

#endif // DAMN_IOMMU_IO_PGTABLE_HH
