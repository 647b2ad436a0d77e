#include "program/data_layout.hh"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "support/logging.hh"

namespace adore
{

namespace
{

/** The element bits of @p v stored as a float (4 bytes) or a double. */
std::uint64_t
fpBits(double v, std::uint32_t elem_bytes)
{
    if (elem_bytes == 4) {
        std::uint32_t bits;
        float f = static_cast<float>(v);
        std::memcpy(&bits, &f, 4);
        return bits;
    }
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    return bits;
}

} // namespace

void
DataLayout::writeElements(std::uint8_t *dst, std::uint64_t n,
                          DataInit init, std::uint32_t elem_bytes,
                          std::uint64_t range, Rng &rng)
{
    for (std::uint64_t k = 0; k < n; ++k, dst += elem_bytes) {
        std::uint64_t bits = 0;
        switch (init) {
          case DataInit::Zero:
            return;
          case DataInit::RandomFp:
            bits = fpBits(rng.real() - 0.5, elem_bytes);
            break;
          case DataInit::RandomInt:
            bits = rng.next() & 0xffff;
            break;
          case DataInit::Index:
            bits = rng.below(range);
            break;
          case DataInit::FpIndex:
            bits = fpBits(static_cast<double>(rng.below(range)), elem_bytes);
            break;
        }
        if (elem_bytes == 4) {
            std::uint32_t low = static_cast<std::uint32_t>(bits);
            std::memcpy(dst, &low, 4);
        } else {
            std::memcpy(dst, &bits, 8);
        }
    }
}

Addr
DataLayout::alloc(const std::string &name, std::uint64_t bytes,
                  std::uint64_t align)
{
    panic_if(align == 0 || (align & (align - 1)) != 0,
             "alignment must be a power of two");
    cursor_ = (cursor_ + align - 1) & ~(align - 1);
    Addr base = cursor_;
    cursor_ += bytes;
    panic_if(regions_.count(name), "data region '%s' allocated twice",
             name.c_str());
    regions_.emplace(name, base);
    return base;
}

Addr
DataLayout::addrOf(const std::string &name) const
{
    auto it = regions_.find(name);
    panic_if(it == regions_.end(), "unknown data region '%s'",
             name.c_str());
    return it->second;
}

Addr
DataLayout::allocArray(const std::string &name, DataInit init,
                       std::uint32_t elem_bytes, std::uint64_t count,
                       std::uint64_t range, Rng &rng, std::uint64_t align)
{
    panic_if(elem_bytes != 4 && elem_bytes != 8,
             "array '%s': element size %u not 4 or 8", name.c_str(),
             elem_bytes);
    panic_if(align < elem_bytes, "array '%s' aligned below its elements",
             name.c_str());
    Addr base = alloc(name, count * elem_bytes, align);
    // Rng::below(0) draws nothing and returns 0, so an index kind over
    // an empty range is all zeros, exactly like Zero.
    bool index = init == DataInit::Index || init == DataInit::FpIndex;
    if (init == DataInit::Zero || (index && range == 0))
        return base;

    Addr end = base + count * elem_bytes;
    for (Addr seg = base; seg < end;) {
        Addr seg_end = std::min(
            end, (seg & ~(MainMemory::pageBytes - 1)) + MainMemory::pageBytes);
        std::uint64_t n = (seg_end - seg) / elem_bytes;
        memory_.deferFill(
            seg, seg_end - seg,
            [start = rng, n, init, elem_bytes, range](
                std::uint8_t *dst) mutable {
                writeElements(dst, n, init, elem_bytes, range, start);
            });
        rng.discard(n);
        seg = seg_end;
    }
    return base;
}

Addr
DataLayout::allocLinkedList(const std::string &name, std::uint64_t count,
                            std::uint64_t node_bytes,
                            std::uint64_t next_offset, double jumble,
                            Rng &rng)
{
    panic_if(count == 0, "empty linked list");
    panic_if(next_offset + 8 > node_bytes, "next pointer outside node");
    panic_if(jumble < 0.0 || jumble > 1.0, "jumble outside [0,1]");

    Addr base = alloc(name, count * node_bytes);

    std::vector<std::uint64_t> order(count);
    std::iota(order.begin(), order.end(), 0);
    if (jumble > 0.0) {
        for (std::uint64_t i = 0; i + 1 < count; ++i) {
            if (rng.real() < jumble) {
                std::uint64_t j = i + rng.below(count - i);
                std::swap(order[i], order[j]);
            }
        }
    }

    for (std::uint64_t i = 0; i < count; ++i) {
        Addr node = base + order[i] * node_bytes;
        Addr next = i + 1 < count ? base + order[i + 1] * node_bytes : 0;
        memory_.writeU64(node + next_offset, next);
    }
    return base + order[0] * node_bytes;
}

} // namespace adore
