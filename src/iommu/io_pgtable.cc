/**
 * @file
 * Radix I/O page-table implementation.
 */

#include "iommu/io_pgtable.hh"

#include <array>
#include <cassert>

#include "sim/check.hh"

namespace damn::iommu {

struct IoPageTable::Node
{
    std::array<Entry, 512> slots;
};

namespace {

/** Index of @p iova at radix @p level (level 1 = leaf for 4 KiB). */
constexpr unsigned
levelIndex(Iova iova, unsigned level)
{
    const unsigned shift = 12 + 9 * (level - 1);
    return unsigned((iova >> shift) & 0x1ff);
}

constexpr std::uint64_t
permBits(std::uint32_t perm)
{
    std::uint64_t b = 0;
    if (perm & PermRead)
        b |= 1ull << 1;
    if (perm & PermWrite)
        b |= 1ull << 2;
    return b;
}

} // namespace

IoPageTable::IoPageTable() : root_(std::make_unique<Node>()) {}
IoPageTable::~IoPageTable() = default;

IoPageTable::Entry *
IoPageTable::lookupEntry(Iova iova, unsigned leaf_level, bool create)
{
    Node *node = root_.get();
    for (unsigned level = 4; level > leaf_level; --level) {
        Entry &e = node->slots[levelIndex(iova, level)];
        if (!e.child) {
            if (!create)
                return nullptr;
            // Refuse to descend through a huge leaf.
            assert(!(e.val & kPresent) && "descending through a leaf");
            e.child = std::make_unique<Node>();
        }
        node = e.child.get();
    }
    return &node->slots[levelIndex(iova, leaf_level)];
}

const IoPageTable::Entry *
IoPageTable::peekEntry(Iova iova, unsigned leaf_level) const
{
    const Node *node = root_.get();
    for (unsigned level = 4; level > leaf_level; --level) {
        const Entry &e = node->slots[levelIndex(iova, level)];
        if (!e.child)
            return nullptr;
        node = e.child.get();
    }
    return &node->slots[levelIndex(iova, leaf_level)];
}

bool
IoPageTable::map(Iova iova, mem::Pa pa, std::uint32_t perm)
{
    assert((iova & (mem::kPageSize - 1)) == 0);
    assert((pa & (mem::kPageSize - 1)) == 0);
    Entry *e = lookupEntry(iova, 1, /*create=*/true);
    if (e->val & kPresent)
        return false;
    e->val = (pa & kAddrMask) | permBits(perm) | kPresent;
    ++mapped4k_;
    return true;
}

bool
IoPageTable::mapHuge(Iova iova, mem::Pa pa, std::uint32_t perm)
{
    assert((iova & (kHugePageSize - 1)) == 0);
    assert((pa & (kHugePageSize - 1)) == 0);
    Entry *e = lookupEntry(iova, 2, /*create=*/true);
    if ((e->val & kPresent) || e->child)
        return false;
    e->val = (pa & kAddrMask) | permBits(perm) | kPresent | kHugeBit;
    ++mapped2m_;
    return true;
}

bool
IoPageTable::unmap(Iova iova)
{
    Entry *e = lookupEntry(iova, 1, /*create=*/false);
    if (!e || !(e->val & kPresent))
        return false;
    e->val = 0;
    DAMN_CHECK(mapped4k_ > 0, "page-table unmap with no 4 KiB page counted");
    --mapped4k_;
    return true;
}

bool
IoPageTable::unmapHuge(Iova iova)
{
    Entry *e = lookupEntry(iova, 2, /*create=*/false);
    if (!e || !(e->val & kPresent) || !(e->val & kHugeBit))
        return false;
    e->val = 0;
    DAMN_CHECK(mapped2m_ > 0, "page-table unmap with no 2 MiB page counted");
    --mapped2m_;
    return true;
}

WalkResult
IoPageTable::walk(Iova iova) const
{
    WalkResult r;
    // Check for a huge leaf at level 2 first.
    if (const Entry *e2 = peekEntry(iova, 2)) {
        if (e2->val & kPresent) {
            if (e2->val & kHugeBit) {
                r.present = true;
                r.huge = true;
                r.pa = (e2->val & kAddrMask) |
                    (iova & (kHugePageSize - 1));
                r.perm = (((e2->val >> 1) & 1) ? std::uint32_t(PermRead) : 0u) |
                    (((e2->val >> 2) & 1) ? std::uint32_t(PermWrite) : 0u);
                return r;
            }
        }
        if (e2->child) {
            const Entry &e1 = e2->child->slots[levelIndex(iova, 1)];
            if (e1.val & kPresent) {
                r.present = true;
                r.pa = (e1.val & kAddrMask) | (iova & (mem::kPageSize - 1));
                r.perm = (((e1.val >> 1) & 1) ? std::uint32_t(PermRead) : 0u) |
                    (((e1.val >> 2) & 1) ? std::uint32_t(PermWrite) : 0u);
                return r;
            }
        }
    }
    return r;
}

} // namespace damn::iommu
