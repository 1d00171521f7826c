/**
 * @file
 * PhysicalMemory data-path implementation.
 */

#include "mem/phys.hh"

#include <sys/mman.h>

#include <algorithm>
#include <new>

#include "sim/check.hh"

namespace damn::mem {

namespace {

/**
 * Reserve @p count zeroed elements of @p T as one private anonymous
 * mapping.  The host kernel supplies zero pages on first touch, so
 * only the entries actually used ever become resident; MAP_NORESERVE
 * keeps a large untouched reservation from counting against the
 * host's commit limit.  Throws std::bad_alloc rather than returning
 * an unusable base.
 */
template <class T>
T *
mapZeroed(std::uint64_t count)
{
    void *p = ::mmap(nullptr, count * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return static_cast<T *>(p);
}

template <class T>
void
unmap(T *base, std::uint64_t count)
{
    DAMN_CHECK(::munmap(base, count * sizeof(T)) == 0,
               "munmap of physical-memory metadata failed");
}

} // namespace

PhysicalMemory::PhysicalMemory(std::uint64_t bytes)
    : numFrames_(bytes >> kPageShift)
{
    DAMN_CHECK(bytes % kPageSize == 0,
               "physical memory size must be page-aligned");
    DAMN_CHECK(numFrames_ > 0,
               "physical memory must hold at least one frame");
    pages_ = mapZeroed<Page>(numFrames_);
    try {
        frames_ = mapZeroed<Frame *>(numFrames_);
    } catch (...) {
        unmap(pages_, numFrames_);
        throw;
    }
}

PhysicalMemory::~PhysicalMemory()
{
    for (const Pfn pfn : backedPfns_)
        delete frames_[pfn];
    unmap(frames_, numFrames_);
    unmap(pages_, numFrames_);
}

void
PhysicalMemory::write(Pa pa, const void *src, std::uint64_t len)
{
    const auto *s = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        const Pfn pfn = paToPfn(pa);
        const std::uint64_t off = pageOffset(pa);
        const std::uint64_t chunk = std::min(len, kPageSize - off);
        std::memcpy(backing(pfn) + off, s, chunk);
        pa += chunk;
        s += chunk;
        len -= chunk;
    }
}

void
PhysicalMemory::read(Pa pa, void *dst, std::uint64_t len) const
{
    auto *d = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        const Pfn pfn = paToPfn(pa);
        const std::uint64_t off = pageOffset(pa);
        const std::uint64_t chunk = std::min(len, kPageSize - off);
        std::memcpy(d, backingConst(pfn) + off, chunk);
        pa += chunk;
        d += chunk;
        len -= chunk;
    }
}

void
PhysicalMemory::fill(Pa pa, std::uint8_t value, std::uint64_t len)
{
    while (len > 0) {
        const Pfn pfn = paToPfn(pa);
        const std::uint64_t off = pageOffset(pa);
        const std::uint64_t chunk = std::min(len, kPageSize - off);
        std::memset(backing(pfn) + off, value, chunk);
        pa += chunk;
        len -= chunk;
    }
}

void
PhysicalMemory::copy(Pa dst, Pa src, std::uint64_t len)
{
    // Buffers never overlap in practice (distinct allocations); do a
    // simple bounce through a stack buffer per chunk to stay safe.
    std::uint8_t tmp[512];
    while (len > 0) {
        const std::uint64_t chunk = std::min<std::uint64_t>(len,
                                                            sizeof(tmp));
        read(src, tmp, chunk);
        write(dst, tmp, chunk);
        src += chunk;
        dst += chunk;
        len -= chunk;
    }
}

std::uint8_t
PhysicalMemory::readByte(Pa pa) const
{
    return backingConst(paToPfn(pa))[pageOffset(pa)];
}

void
PhysicalMemory::writeByte(Pa pa, std::uint8_t v)
{
    backing(paToPfn(pa))[pageOffset(pa)] = v;
}

} // namespace damn::mem
