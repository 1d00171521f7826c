/**
 * @file
 * Byte-accurate simulated physical memory and the page-struct array.
 *
 * Mirrors the Linux model the paper leans on: every physical 4 KiB
 * frame has a `struct page` in a flat array, enabling constant-time
 * conversion between physical addresses and page structs (paper
 * section 5.1).  Kernel virtual addresses are identity-mapped to
 * physical addresses (the direct map), so a `Pa` doubles as the kernel
 * pointer throughout the codebase.
 *
 * Everything per-frame is backed lazily, so experiments can declare
 * multi-GiB machines while paying only for the pages they touch.  The
 * frame bytes are allocated on first write.  The metadata is lazy too:
 * the page-struct array and the frame table are each one anonymous
 * mapping whose host pages are zero-filled by the host kernel on first
 * touch, the analogue of Linux's SPARSEMEM_VMEMMAP memmap, which is
 * virtually contiguous (so page(pfn) and pfnOf() stay one add/subtract)
 * but populated only where memory exists.  An untouched entry reads as
 * `Page{}` because a `Page` of all-zero bytes *is* `Page{}` (asserted
 * below).  Building a 4 GiB machine therefore costs O(touched pages),
 * not a 48 MB zero-fill, and teardown frees only the frames that were
 * backed.
 */

#ifndef DAMN_MEM_PHYS_HH
#define DAMN_MEM_PHYS_HH

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace damn::mem {

/** Physical address (also the kernel direct-map virtual address). */
using Pa = std::uint64_t;
/** Page frame number. */
using Pfn = std::uint64_t;

constexpr unsigned kPageShift = 12;
constexpr std::uint64_t kPageSize = 1ull << kPageShift;

constexpr Pfn paToPfn(Pa pa) { return pa >> kPageShift; }
constexpr Pa pfnToPa(Pfn pfn) { return pfn << kPageShift; }
constexpr std::uint64_t pageOffset(Pa pa) { return pa & (kPageSize - 1); }

/** Page flags (subset of Linux's, plus DAMN's F flag). */
enum PageFlag : std::uint32_t
{
    PG_head = 1u << 0,          //!< first page of a compound
    PG_tail = 1u << 1,          //!< non-first page of a compound
    PG_slab = 1u << 2,          //!< owned by the kmalloc slab layer
    PG_reserved = 1u << 3,      //!< not available to the allocator
    PG_damn = 1u << 4,          //!< DAMN's F flag (set on the *third*
                                //!< page of a DAMN compound, section 5.5)
    PG_dma_mapped = 1u << 5,    //!< currently mapped in the IOMMU
    PG_ever_dma = 1u << 6,      //!< was mapped for DMA at least once
};

/**
 * Per-frame OS metadata, the analog of Linux's `struct page`.
 *
 * DAMN-specific fields (iova, cacheId) live in the *tail* page structs
 * of a compound, exactly as the paper does to avoid growing the page
 * struct (section 5.5); helpers in core/compound.hh enforce that
 * placement.
 */
struct Page
{
    std::uint32_t flags = 0;
    std::int32_t refcount = 0;
    std::uint8_t order = 0;     //!< compound order (head page only)
    Pfn compoundHead = 0;       //!< head pfn (tail pages only)

    // Fields reused for subsystem-private data (valid per context):
    std::uint64_t priv = 0;     //!< DAMN: chunk IOVA (tail page 1)
    std::uint32_t priv2 = 0;    //!< DAMN: owning DMA-cache id (tail 1)
    std::uint32_t slabClass = 0;//!< kmalloc: size-class index

    bool test(PageFlag f) const { return flags & f; }
    void set(PageFlag f) { flags |= f; }
    void clearFlag(PageFlag f) { flags &= ~std::uint32_t(f); }

    bool operator==(const Page &) const = default;
};

// PhysicalMemory hands out page structs straight from a zero-filled
// mapping without constructing them, so a Page must be a plain bag of
// bytes whose all-zero pattern is exactly its default state.
static_assert(std::is_trivially_copyable_v<Page> &&
              std::is_trivially_destructible_v<Page>);
static_assert(std::bit_cast<Page>(std::array<std::byte, sizeof(Page)>{}) ==
                  Page{},
              "all-zero bytes must read as Page{}");

/**
 * The machine's physical memory: lazily-backed 4 KiB frames plus the
 * page-struct array, both costing only what is touched.
 */
class PhysicalMemory
{
  public:
    /**
     * @param bytes total physical memory size; must be page-aligned
     *              and non-zero.
     * @throws std::bad_alloc if the host cannot map the metadata.
     */
    explicit PhysicalMemory(std::uint64_t bytes);
    ~PhysicalMemory();

    PhysicalMemory(const PhysicalMemory &) = delete;
    PhysicalMemory &operator=(const PhysicalMemory &) = delete;

    std::uint64_t sizeBytes() const { return numFrames_ * kPageSize; }
    Pfn numFrames() const { return numFrames_; }

    /** Page struct for a frame (constant time, like Linux's memmap). */
    Page &page(Pfn pfn) { assert(pfn < numFrames_); return pages_[pfn]; }
    /** Read-only page struct.  Reading an untouched entry maps the
     *  host's shared zero page: it allocates no memory. */
    const Page &
    page(Pfn pfn) const
    {
        assert(pfn < numFrames_);
        return pages_[pfn];
    }

    /** Page struct for the frame containing @p pa. */
    Page &pageOf(Pa pa) { return page(paToPfn(pa)); }

    /** Pfn of a page struct (reverse of page()). */
    Pfn
    pfnOf(const Page &pg) const
    {
        return Pfn(&pg - pages_);
    }

    /** Write @p len bytes at @p pa (may cross frames). */
    void write(Pa pa, const void *src, std::uint64_t len);
    /** Read @p len bytes at @p pa (may cross frames). */
    void read(Pa pa, void *dst, std::uint64_t len) const;
    /** Fill @p len bytes at @p pa with @p value. */
    void fill(Pa pa, std::uint8_t value, std::uint64_t len);
    /** Copy @p len bytes within physical memory. */
    void copy(Pa dst, Pa src, std::uint64_t len);
    /** Read one byte. */
    std::uint8_t readByte(Pa pa) const;
    /** Write one byte. */
    void writeByte(Pa pa, std::uint8_t v);

    /** Number of frames that have been touched (backed). */
    std::uint64_t backedFrames() const { return backedPfns_.size(); }

  private:
    using Frame = std::array<std::uint8_t, kPageSize>;

    std::uint8_t *
    backing(Pfn pfn)
    {
        assert(pfn < numFrames_);
        Frame *&f = frames_[pfn];
        if (!f) {
            auto fresh = std::make_unique<Frame>(); // its only zero-fill
            backedPfns_.push_back(pfn);
            f = fresh.release();
        }
        return f->data();
    }

    const std::uint8_t *
    backingConst(Pfn pfn) const
    {
        // Reads of never-written frames observe zeros without backing
        // them; a static zero frame serves all such reads.
        static const Frame kZero{};
        assert(pfn < numFrames_);
        const Frame *f = frames_[pfn];
        return f ? f->data() : kZero.data();
    }

    Pfn numFrames_;
    Page *pages_ = nullptr;    //!< numFrames_ entries, lazily zeroed
    Frame **frames_ = nullptr; //!< numFrames_ entries, lazily zeroed
    std::vector<Pfn> backedPfns_; //!< frames to free at teardown
};

} // namespace damn::mem

#endif // DAMN_MEM_PHYS_HH
