/**
 * @file
 * Tests for the program layer: CodeImage (text/pool, patching),
 * CodeBuffer (labels, fixups, greedy packing), and DataLayout (arrays,
 * index arrays, linked lists with layout jumble).
 */

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "isa/builder.hh"
#include "program/code_buffer.hh"
#include "program/code_image.hh"
#include "program/data_layout.hh"

namespace adore
{
namespace
{

TEST(CodeImage, AppendAndFetch)
{
    CodeImage img;
    Bundle b;
    b.add(build::movi(1, 42));
    Addr a0 = img.appendText(b);
    EXPECT_EQ(a0, CodeImage::textBase);
    Addr a1 = img.appendText(b);
    EXPECT_EQ(a1, a0 + isa::bundleBytes);
    EXPECT_EQ(img.fetch(a0).slot(0).imm, 42);
    EXPECT_EQ(img.textBundles(), 2u);
    EXPECT_EQ(img.textBytes(), 32u);
    EXPECT_TRUE(img.inText(a0));
    EXPECT_FALSE(img.inText(CodeImage::poolBase));
}

TEST(CodeImage, PoolAllocation)
{
    CodeImage img;
    Addr t0 = img.allocTrace(4);
    EXPECT_EQ(t0, CodeImage::poolBase);
    Addr t1 = img.allocTrace(2);
    EXPECT_EQ(t1, t0 + 4 * isa::bundleBytes);
    EXPECT_TRUE(CodeImage::inPool(t1));
    EXPECT_EQ(img.poolBundles(), 6u);

    Bundle b;
    b.add(build::halt());
    img.writeBundle(t0, b);
    EXPECT_EQ(img.fetch(t0).slot(0).op, Opcode::Halt);
}

TEST(CodeImage, PatchUnpatchRoundtrip)
{
    CodeImage img;
    Bundle orig;
    orig.add(build::movi(5, 99));
    Addr addr = img.appendText(orig);
    Addr pool = img.allocTrace(1);

    img.patch(addr, pool);
    EXPECT_TRUE(img.isPatched(addr));
    const Bundle &redirect = img.fetch(addr);
    EXPECT_EQ(redirect.slot(0).op, Opcode::Br);
    EXPECT_EQ(redirect.slot(0).target, pool);

    img.unpatch(addr);
    EXPECT_FALSE(img.isPatched(addr));
    EXPECT_EQ(img.fetch(addr).slot(0).imm, 99);
}

TEST(CodeImage, LoopIdAnnotation)
{
    CodeImage img;
    Bundle b;
    Insn insn = build::add(1, 2, 3);
    insn.loopId = 7;
    b.add(insn);
    Addr addr = img.appendText(b);
    EXPECT_EQ(img.loopIdAt(addr), 7);
    EXPECT_EQ(img.loopIdAt(addr | 1), -1);  // nop padding
}

TEST(CodeBuffer, LabelsResolveAfterCommit)
{
    CodeImage img;
    CodeBuffer buf;

    auto head = buf.newLabel();
    buf.bind(head);
    Bundle body;
    body.add(build::addi(1, 1, 1));
    buf.append(body);

    Bundle back;
    back.add(build::br(1, 0));
    buf.appendWithBranchTo(back, head);

    Addr base = buf.commitToText(img);
    EXPECT_EQ(base, CodeImage::textBase);
    const Bundle &committed = img.fetch(base + isa::bundleBytes);
    EXPECT_EQ(committed.slot(0).target, base);
}

TEST(CodeBuffer, ForwardLabel)
{
    CodeImage img;
    CodeBuffer buf;
    auto skip = buf.newLabel();

    Bundle b;
    b.add(build::brAlways(0));
    buf.appendWithBranchTo(b, skip);

    Bundle pad;
    pad.padWithNops();
    buf.append(pad);

    buf.bind(skip);
    Bundle target;
    target.add(build::halt());
    buf.append(target);

    Addr base = buf.commitToText(img);
    EXPECT_EQ(img.fetch(base).slot(0).target,
              base + 2 * isa::bundleBytes);
}

TEST(CodeBuffer, LinearPackingRespectsTemplates)
{
    CodeImage img;
    CodeBuffer buf;
    std::vector<Insn> insns;
    for (int i = 0; i < 5; ++i)
        insns.push_back(build::ld(8, static_cast<std::uint8_t>(i + 1),
                                  20));
    buf.appendLinear(insns);
    // 5 loads at <= 2 memory slots per bundle -> at least 3 bundles.
    EXPECT_GE(buf.size(), 3u);
    buf.commitToText(img);
    for (std::size_t i = 0; i < img.textBundles(); ++i) {
        const Bundle &b =
            img.fetch(CodeImage::textBase + i * isa::bundleBytes);
        EXPECT_LE(b.countKind(SlotKind::M), 2);
    }
}

TEST(CodeBuffer, CommitToPool)
{
    CodeImage img;
    CodeBuffer buf;
    Bundle b;
    b.add(build::halt());
    buf.append(b);
    Addr base = buf.commitToPool(img);
    EXPECT_TRUE(CodeImage::inPool(base));
    EXPECT_EQ(img.fetch(base).slot(0).op, Opcode::Halt);
}

TEST(DataLayout, AllocationAlignmentAndLookup)
{
    MainMemory mem;
    DataLayout data(mem);
    Addr a = data.alloc("a", 100, 128);
    EXPECT_EQ(a % 128, 0u);
    Addr b = data.alloc("b", 100, 64);
    EXPECT_GE(b, a + 100);
    EXPECT_EQ(data.addrOf("a"), a);
    EXPECT_GE(data.bytesUsed(), 200u);
}

TEST(DataLayout, IndexArrayWithinRange)
{
    MainMemory mem;
    DataLayout data(mem);
    Rng rng(1);
    Addr base = data.allocArray("idx", DataInit::Index, 8, 1000, 50, rng);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(mem.readU64(base + static_cast<Addr>(i) * 8), 50u);
}

TEST(DataLayout, EveryInitKindDrawsOneValuePerElement)
{
    // allocArray hands each page a generator copy and discard()s the
    // layout's generator past the page, so writing n elements must
    // leave a copy exactly where discard(n) leaves it.
    for (DataInit init : {DataInit::Zero, DataInit::RandomFp,
                          DataInit::RandomInt, DataInit::Index,
                          DataInit::FpIndex}) {
        bool index = init == DataInit::Index || init == DataInit::FpIndex;
        for (std::uint32_t elem_bytes : {4u, 8u}) {
            for (std::uint64_t range : {std::uint64_t{0},
                                        std::uint64_t{1000}}) {
                for (std::uint64_t n : {1u, 300u, 8192u}) {
                    bool draws = init != DataInit::Zero &&
                                 !(index && range == 0);
                    std::vector<std::uint8_t> buf(n * elem_bytes);
                    Rng written(5), skipped(5);
                    DataLayout::writeElements(buf.data(), n, init,
                                              elem_bytes, range, written);
                    skipped.discard(draws ? n : 0);
                    for (int i = 0; i < 4; ++i)
                        ASSERT_EQ(written.next(), skipped.next())
                            << "kind " << static_cast<int>(init)
                            << " elem " << elem_bytes << " range "
                            << range << " n " << n;
                }
            }
        }
    }
}

/** Walking the next pointers must visit every node exactly once. */
void
checkTraversal(MainMemory &mem, Addr head, std::uint64_t count,
               std::uint64_t node_bytes)
{
    std::set<Addr> seen;
    Addr p = head;
    for (std::uint64_t i = 0; i < count; ++i) {
        ASSERT_NE(p, 0u);
        EXPECT_TRUE(seen.insert(p).second) << "node visited twice";
        EXPECT_EQ((p - DataLayout::dataBase) % node_bytes, 0u);
        p = mem.readU64(p);
    }
    EXPECT_EQ(p, 0u);  // terminated
    EXPECT_EQ(seen.size(), count);
}

class LinkedListProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(LinkedListProperty, TraversalCoversAllNodes)
{
    MainMemory mem;
    DataLayout data(mem);
    Rng rng(42);
    Addr head = data.allocLinkedList("list", 500, 64, 0, GetParam(),
                                     rng);
    checkTraversal(mem, head, 500, 64);
}

INSTANTIATE_TEST_SUITE_P(JumbleLevels, LinkedListProperty,
                         ::testing::Values(0.0, 0.05, 0.3, 1.0));

TEST(DataLayout, SequentialListHasConstantStride)
{
    MainMemory mem;
    DataLayout data(mem);
    Rng rng(7);
    Addr head = data.allocLinkedList("seq", 100, 128, 0, 0.0, rng);
    Addr p = head;
    for (int i = 0; i < 99; ++i) {
        Addr next = mem.readU64(p);
        EXPECT_EQ(next, p + 128);
        p = next;
    }
}

TEST(DataLayout, JumbledListBreaksStride)
{
    MainMemory mem;
    DataLayout data(mem);
    Rng rng(7);
    Addr head = data.allocLinkedList("rnd", 1000, 128, 0, 1.0, rng);
    int sequential = 0;
    Addr p = head;
    for (int i = 0; i < 999; ++i) {
        Addr next = mem.readU64(p);
        if (next == p + 128)
            ++sequential;
        p = next;
    }
    EXPECT_LT(sequential, 50);  // a full shuffle is rarely sequential
}

/**
 * The list writer compile ran before lists were demand-paged: draw the
 * node order, write every next pointer, then every payload pointer.
 * It stays here as the oracle the per-page fills must match.
 */
Addr
eagerLinkedList(DataLayout &data, const std::string &name,
                std::uint64_t count, std::uint64_t node_bytes,
                std::uint64_t next_offset, double jumble, Rng &rng,
                std::optional<DataLayout::ListPayload> payload)
{
    Addr base = data.alloc(name, count * node_bytes);
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
    MainMemory &mem = data.memory();
    for (std::uint64_t i = 0; i < count; ++i) {
        Addr node = base + order[i] * node_bytes;
        Addr next = i + 1 < count ? base + order[i + 1] * node_bytes : 0;
        mem.writeU64(node + next_offset, next);
    }
    if (payload) {
        std::uint64_t window = payload->window ? payload->window : count;
        for (std::uint64_t n = 0; n < count; ++n) {
            Addr target = base + rng.below(window) * node_bytes;
            mem.writeU64(base + n * node_bytes + payload->offset, target);
        }
    }
    return base + order[0] * node_bytes;
}

/**
 * Every word of the first @p bytes of two data segments must agree.
 * @p lazy is read from the last word back, so its pages materialise
 * last page first, against the order the fills were registered in.
 */
void
expectSameSegment(MainMemory &lazy, MainMemory &eager, std::uint64_t bytes)
{
    for (Addr a = DataLayout::dataBase + (bytes + 7) / 8 * 8;
         a > DataLayout::dataBase;) {
        a -= 8;
        ASSERT_EQ(lazy.readU64(a), eager.readU64(a))
            << "word at +" << a - DataLayout::dataBase;
    }
}

/** The generators must be in the same state: their next draws agree. */
void
expectSameGenerator(Rng a, Rng b)
{
    for (int i = 0; i < 4; ++i)
        ASSERT_EQ(a.next(), b.next());
}

struct ListCase
{
    std::uint64_t nodeBytes;
    std::uint64_t nextOffset;
    double jumble;
    std::optional<DataLayout::ListPayload> payload;
    bool betweenArrays;  ///< share its first and last page with arrays
};

TEST(DataLayout, LazyListMatchesEagerBuild)
{
    // 1500 nodes of 144 or 160 bytes span four 64 KiB pages, and nodes
    // straddle every page boundary.
    constexpr std::uint64_t kNodes = 1500;
    std::vector<ListCase> cases;
    for (double jumble : {0.0, 0.12, 1.0}) {
        for (bool payload : {false, true}) {
            cases.push_back(
                {144, 8, jumble,
                 payload ? std::optional(DataLayout::ListPayload{136, 0})
                         : std::nullopt,
                 false});
            cases.push_back(
                {160, 0, jumble,
                 payload ? std::optional(DataLayout::ListPayload{16, 100})
                         : std::nullopt,
                 false});
        }
    }
    cases.push_back({144, 8, 0.12, DataLayout::ListPayload{136, 0}, true});
    // A payload field on the next field overwrites it.
    cases.push_back({160, 16, 1.0, DataLayout::ListPayload{16, 0}, false});

    for (const ListCase &c : cases) {
        SCOPED_TRACE(::testing::Message()
                     << "node " << c.nodeBytes << " jumble " << c.jumble
                     << " payload " << c.payload.has_value()
                     << " arrays " << c.betweenArrays);
        MainMemory lazy_mem, eager_mem;
        DataLayout lazy(lazy_mem), eager(eager_mem);
        Rng lazy_rng(9), eager_rng(9);
        auto arrays = [&c](DataLayout &data, Rng &rng, const char *name) {
            if (c.betweenArrays)
                data.allocArray(name, DataInit::RandomFp, 8, 1000, 0, rng);
        };
        arrays(lazy, lazy_rng, "before");
        arrays(eager, eager_rng, "before");
        Addr lazy_head =
            lazy.allocLinkedList("list", kNodes, c.nodeBytes, c.nextOffset,
                                 c.jumble, lazy_rng, c.payload);
        Addr eager_head =
            eagerLinkedList(eager, "list", kNodes, c.nodeBytes,
                            c.nextOffset, c.jumble, eager_rng, c.payload);
        arrays(lazy, lazy_rng, "after");
        arrays(eager, eager_rng, "after");

        EXPECT_EQ(lazy_mem.allocatedPages(), 0u);
        EXPECT_EQ(lazy_head, eager_head);
        ASSERT_EQ(lazy.bytesUsed(), eager.bytesUsed());
        expectSameSegment(lazy_mem, eager_mem, lazy.bytesUsed());
        expectSameGenerator(lazy_rng, eager_rng);
    }
}

TEST(DataLayout, ListPagesOutliveTheirLayout)
{
    // Fills own what they read (the successor table, the generator
    // copies), so pages still materialise right after the DataLayout
    // that registered them is gone.  Under ASan a fill that kept a
    // reference into the layout fails here.
    MainMemory lazy_mem, eager_mem;
    Rng lazy_rng(11), eager_rng(11);
    const DataLayout::ListPayload payload{8, 0};
    Addr lazy_head = 0;
    std::uint64_t bytes = 0;
    {
        DataLayout lazy(lazy_mem);
        lazy_head = lazy.allocLinkedList("l", 1500, 160, 0, 0.3, lazy_rng,
                                         payload);
        lazy.allocArray("a", DataInit::Index, 4, 5000, 77, lazy_rng);
        bytes = lazy.bytesUsed();
    }
    DataLayout eager(eager_mem);
    Addr eager_head =
        eagerLinkedList(eager, "l", 1500, 160, 0, 0.3, eager_rng, payload);
    eager.allocArray("a", DataInit::Index, 4, 5000, 77, eager_rng);

    EXPECT_EQ(lazy_mem.allocatedPages(), 0u);
    ASSERT_EQ(lazy_head, eager_head);
    checkTraversal(lazy_mem, lazy_head, 1500, 160);
    expectSameSegment(lazy_mem, eager_mem, bytes);
}

} // namespace
} // namespace adore
