/**
 * @file
 * DataLayout: a bump allocator for the simulated process data segment,
 * plus helpers for the data shapes the workloads need (seeded arrays,
 * among them index vectors for indirect references, and linked lists
 * with regular or shuffled node order for pointer chasing).
 */

#ifndef ADORE_PROGRAM_DATA_LAYOUT_HH
#define ADORE_PROGRAM_DATA_LAYOUT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/main_memory.hh"
#include "support/rng.hh"

namespace adore
{

/** How an array is initialised before the program runs. */
enum class DataInit : std::uint8_t
{
    Zero,       ///< all zero bytes
    RandomFp,   ///< random small doubles/floats in [-0.5, 0.5)
    RandomInt,  ///< random integers in [0, 0xffff]
    Index,      ///< random indices in [0, range): `a[k]` of `b[a[k]]`
    FpIndex,    ///< FP values that are valid indices in [0, range)
};

class DataLayout
{
  public:
    static constexpr Addr dataBase = 0x20000000;

    explicit DataLayout(MainMemory &memory) : memory_(memory) {}

    /** Allocate @p bytes aligned to @p align; returns the base address. */
    Addr alloc(const std::string &name, std::uint64_t bytes,
               std::uint64_t align = 64);

    /** Address of a previously-allocated region. */
    Addr addrOf(const std::string &name) const;

    /** Total bytes allocated so far. */
    std::uint64_t bytesUsed() const { return cursor_ - dataBase; }

    /**
     * Allocate an array of @p count elements of @p elem_bytes (4 or 8)
     * bytes each, initialised as @p init says from @p rng (@p range
     * bounds the Index kinds).  Every element of a non-Zero kind takes
     * exactly one Rng::next() draw, except that an Index kind over an
     * empty range draws none and stays zero.
     *
     * The contents are demand-paged.  The array keeps one copy of
     * @p rng taken at its first element and jumps @p rng past all of
     * its draws (Rng::discard); each page the array spans gets one
     * MainMemory::deferFill that jumps its own copy to the page's
     * first element when the page is first touched.  Any later read,
     * and the state @p rng is left in, are therefore byte-identical to
     * writing every element now, but a page the program never touches
     * is never built.
     */
    Addr allocArray(const std::string &name, DataInit init,
                    std::uint32_t elem_bytes, std::uint64_t count,
                    std::uint64_t range, Rng &rng, std::uint64_t align = 64);

    /**
     * Payload pointers of a linked list: the 8-byte field at @ref offset
     * of every node holds the address of a random node among the
     * list's first @ref window nodes (0 = the whole list), drawn in
     * node address order after the list's layout (mcf's arc->tail).
     */
    struct ListPayload
    {
        std::uint64_t offset = 8;
        std::uint64_t window = 0;
    };

    /**
     * Allocate a singly-linked list of @p count nodes of @p node_bytes
     * each (a multiple of 8).  The next pointer lives at the 8-aligned
     * offset @p next_offset, and @p payload, when given, adds payload
     * pointers at its own 8-aligned offset.
     *
     * @p jumble controls layout regularity: 0.0 lays nodes out in
     * traversal order (constant inter-node stride — the "partially
     * regular strides" the paper's induction-pointer prefetch
     * exploits); 1.0 is a full random permutation; values in between
     * randomly displace that fraction of nodes, so a delta-based
     * prefetch is right roughly (1-jumble)^k for a k-ahead guess.
     *
     * Like allocArray, the nodes are demand-paged.  The traversal
     * order is drawn now, into a successor table the list's page
     * fills share; @p rng then jumps past the payload draws, and each
     * page's fill writes its nodes' next fields and then their payload
     * fields, jumping a copy of the payload generator to its first
     * node.  Reads and the state @p rng is left in match writing the
     * whole list now.
     *
     * @return address of the head node.
     */
    Addr allocLinkedList(const std::string &name, std::uint64_t count,
                         std::uint64_t node_bytes,
                         std::uint64_t next_offset, double jumble,
                         Rng &rng,
                         std::optional<ListPayload> payload = std::nullopt);

    /**
     * Write @p n consecutive elements of an allocArray array to @p dst,
     * drawing from @p rng.  A non-Zero kind draws exactly one
     * Rng::next() per element, and an index kind over an empty range
     * none; allocArray's Rng::discard relies on it.
     */
    static void writeElements(std::uint8_t *dst, std::uint64_t n,
                              DataInit init, std::uint32_t elem_bytes,
                              std::uint64_t range, Rng &rng);

    MainMemory &memory() { return memory_; }

  private:
    MainMemory &memory_;
    Addr cursor_ = dataBase;
    std::unordered_map<std::string, Addr> regions_;
};

} // namespace adore

#endif // ADORE_PROGRAM_DATA_LAYOUT_HH
