#include "program/data_layout.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <tuple>
#include <utility>

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

/** End of the page segment that starts at @p seg, capped at @p end. */
Addr
segmentEnd(Addr seg, Addr end)
{
    return std::min(end, (seg & ~(MainMemory::pageBytes - 1)) +
                             MainMemory::pageBytes);
}

/** The successor-table entry of a list's last node. */
constexpr std::uint32_t kNoSuccessor =
    std::numeric_limits<std::uint32_t>::max();

/**
 * The deferred fill of one page segment [seg, segEnd) of a linked list:
 * the next field, then the payload field, of every node whose field
 * lies in the segment.  Fields are 8-aligned, so none straddles the
 * segment's ends.
 */
struct ListPageFill
{
    Addr base;  ///< the list's node 0
    Addr seg;
    Addr segEnd;
    std::uint64_t count;
    std::uint64_t nodeBytes;
    std::uint64_t nextOffset;
    /** Node index -> index of the node after it in traversal order. */
    std::shared_ptr<const std::vector<std::uint32_t>> successor;
    std::uint64_t payloadOffset;
    std::uint64_t payloadWindow;  ///< 0: the list has no payload pointers
    Rng payloadStart;  ///< the generator at node 0's payload draw

    /** Nodes [first, last) whose field at @p offset lies in the segment. */
    std::pair<std::uint64_t, std::uint64_t>
    nodesWithField(std::uint64_t offset) const
    {
        auto firstAt = [&](Addr a) -> std::uint64_t {
            Addr field0 = base + offset;
            if (a <= field0)
                return 0;
            return std::min(count, (a - field0 + nodeBytes - 1) / nodeBytes);
        };
        return {firstAt(seg), firstAt(segEnd)};
    }

    void
    store(std::uint8_t *dst, std::uint64_t node, std::uint64_t offset,
          std::uint64_t value) const
    {
        std::memcpy(dst + (base + node * nodeBytes + offset - seg), &value, 8);
    }

    void
    operator()(std::uint8_t *dst) const
    {
        // Next fields first: a payload field at the same offset
        // overwrites them, as when the whole list was written at once.
        auto [first, last] = nodesWithField(nextOffset);
        for (std::uint64_t n = first; n < last; ++n) {
            std::uint32_t s = (*successor)[n];
            store(dst, n, nextOffset,
                  s == kNoSuccessor ? 0 : base + s * nodeBytes);
        }
        if (payloadWindow == 0)
            return;
        std::tie(first, last) = nodesWithField(payloadOffset);
        Rng rng = payloadStart;
        rng.discard(first);
        for (std::uint64_t n = first; n < last; ++n)
            store(dst, n, payloadOffset,
                  base + rng.below(payloadWindow) * nodeBytes);
    }
};

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

    Rng start = rng;
    rng.discard(count);
    Addr end = base + count * elem_bytes;
    for (Addr seg = base; seg < end;) {
        Addr seg_end = segmentEnd(seg, end);
        std::uint64_t first = (seg - base) / elem_bytes;
        std::uint64_t n = (seg_end - seg) / elem_bytes;
        memory_.deferFill(
            seg, seg_end - seg,
            [start, first, n, init, elem_bytes, range](std::uint8_t *dst) {
                Rng page = start;
                page.discard(first);
                writeElements(dst, n, init, elem_bytes, range, page);
            });
        seg = seg_end;
    }
    return base;
}

Addr
DataLayout::allocLinkedList(const std::string &name, std::uint64_t count,
                            std::uint64_t node_bytes,
                            std::uint64_t next_offset, double jumble,
                            Rng &rng, std::optional<ListPayload> payload)
{
    panic_if(count == 0, "empty linked list");
    panic_if(count >= kNoSuccessor, "list '%s' has too many nodes",
             name.c_str());
    panic_if(node_bytes < 8 || node_bytes % 8 != 0,
             "list '%s': node size not a multiple of 8", name.c_str());
    panic_if(next_offset % 8 != 0 || next_offset > node_bytes - 8,
             "next pointer outside node or unaligned");
    panic_if(payload && (payload->offset % 8 != 0 ||
                         payload->offset > node_bytes - 8),
             "payload pointer outside node or unaligned");
    panic_if(jumble < 0.0 || jumble > 1.0, "jumble outside [0,1]");

    Addr base = alloc(name, count * node_bytes);

    std::vector<std::uint32_t> order(count);
    std::iota(order.begin(), order.end(), 0);
    if (jumble > 0.0) {
        for (std::uint64_t i = 0; i + 1 < count; ++i) {
            if (rng.real() < jumble) {
                std::uint64_t j = i + rng.below(count - i);
                std::swap(order[i], order[j]);
            }
        }
    }
    auto successor = std::make_shared<std::vector<std::uint32_t>>(count);
    for (std::uint64_t i = 0; i < count; ++i)
        (*successor)[order[i]] = i + 1 < count ? order[i + 1] : kNoSuccessor;

    // Every payload draw is one below(window > 0), so one next().
    Rng payload_start = rng;
    std::uint64_t window = 0;
    if (payload) {
        window = payload->window ? payload->window : count;
        rng.discard(count);
    }

    ListPageFill fill{base, 0, 0, count, node_bytes, next_offset,
                      std::move(successor), payload ? payload->offset : 0,
                      window, payload_start};
    Addr end = base + count * node_bytes;
    for (Addr seg = base; seg < end; seg = fill.segEnd) {
        fill.seg = seg;
        fill.segEnd = segmentEnd(seg, end);
        memory_.deferFill(seg, fill.segEnd - seg, fill);
    }
    return base + order[0] * node_bytes;
}

} // namespace adore
