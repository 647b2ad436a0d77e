/**
 * @file
 * The demand-paged data segment (DESIGN.md §8, "Demand-paged data
 * segment").
 *
 * Compilation registers every seeded array and every linked list as
 * per-page deferred fills instead of writing it, so a page's contents
 * appear on its first touch.  DataSegment pins what every reader must see: an FNV-1a digest
 * of each registry workload's whole data segment at O2 and O3, plus two
 * generator kernels, taken from the eager initialiser that wrote every
 * element and node at compile time.  Reading every word materialises
 * every page, so any drift in a fill's RNG snapshot, element encoding
 * or node order changes a digest.
 *
 * DataMaterialisation pins how much of the segment exists after compile
 * and after a full O2 run without ADORE.  The counts are deterministic,
 * so a slide back to eager initialisation (every page built at compile)
 * fails on any host.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>

#include "compiler/compiler.hh"
#include "harness/experiment.hh"
#include "program/data_layout.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace adore
{
namespace
{

/** The machine and layout a compile leaves behind. */
struct Compiled
{
    Machine machine;
    DataLayout data{machine.memory()};
    CompileReport report;

    Compiled(const hir::Program &prog, OptLevel level)
    {
        Compiler compiler(machine.config().hier);
        report = compiler.compile(prog, restrictedOptions(level),
                                  machine.code(), data);
    }

    /** Pages [dataBase, dataBase + bytesUsed) spans. */
    std::uint64_t
    segmentPages() const
    {
        Addr end = DataLayout::dataBase + data.bytesUsed();
        return ((end + MainMemory::pageBytes - 1) >> MainMemory::pageShift) -
               (DataLayout::dataBase >> MainMemory::pageShift);
    }
};

/** FNV-1a-64 over every 8-byte word of the data segment, little end
 *  first. */
std::uint64_t
segmentDigest(Compiled &c)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    MainMemory &mem = c.machine.memory();
    Addr end = DataLayout::dataBase + c.data.bytesUsed();
    for (Addr a = DataLayout::dataBase; a < end; a += 8) {
        std::uint64_t w = mem.readU64(a);
        for (int b = 0; b < 8; ++b) {
            h ^= (w >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

struct SegmentGolden
{
    const char *name;
    std::uint64_t digest;
};

// Taken from the eager initialiser (every element written during
// compile) under restrictedOptions, dataSeed 1.  Code generation does
// not touch the data, so O2 and O3 share one digest.
constexpr SegmentGolden kRegistryDigests[] = {
    {"bzip2", 0xd0d773aeaf9d65c3ULL},
    {"gzip", 0x184296eb1c4bdcceULL},
    {"mcf", 0x55423bafab706348ULL},
    {"vpr", 0x428880f795ffba6eULL},
    {"parser", 0x7669b29f308a8392ULL},
    {"gap", 0x725ec3b4de1a6636ULL},
    {"vortex", 0x69fa49e708b32a9bULL},
    {"gcc", 0x4263fb2581604b90ULL},
    {"ammp", 0x7ef600e2813177acULL},
    {"art", 0xf91343ed0e7684cdULL},
    {"applu", 0xc45320e3a440f2f9ULL},
    {"equake", 0xbad307141c3cf097ULL},
    {"facerec", 0xe835090155428b78ULL},
    {"fma3d", 0xc4637194cbb5822bULL},
    {"lucas", 0xe2ec5f8942ef4c38ULL},
    {"mesa", 0x5e80c2153e3e7044ULL},
    {"swim", 0x320675a12adf08a2ULL},
};

TEST(DataSegment, RegistryDigestsMatchEagerInit)
{
    ASSERT_EQ(std::size(kRegistryDigests), workloads::allWorkloads().size());
    for (const SegmentGolden &g : kRegistryDigests) {
        hir::Program prog = workloads::make(g.name);
        for (OptLevel level : {OptLevel::O2, OptLevel::O3}) {
            Compiled c(prog, level);
            EXPECT_EQ(segmentDigest(c), g.digest)
                << g.name << (level == OptLevel::O2 ? " O2" : " O3");
        }
    }
}

TEST(DataSegment, GeneratorDigestsMatchEagerInit)
{
    // Generated kernels mix 4- and 8-byte elements and every init kind
    // in array orders the registry does not.  Seeds 7 and 42 have one
    // linked list each (7's with payload pointers); seed 30 has three,
    // two with payload pointers, each drawing where the last left off.
    constexpr std::pair<std::uint64_t, std::uint64_t> kKernels[] = {
        {7, 0x131ffe9611c25461ULL},
        {42, 0x1e7d35caf96ea339ULL},
        {30, 0x364bcee1612c1bb1ULL},
    };
    for (const auto &[seed, digest] : kKernels) {
        workloads::GeneratorConfig cfg;
        cfg.seed = seed;
        Compiled c(workloads::generate(cfg), OptLevel::O2);
        EXPECT_EQ(segmentDigest(c), digest) << "gen_" << seed;
    }
}

/** Materialised pages after compile and after the run, of segmentPages. */
struct PageBand
{
    const char *name;
    std::uint64_t afterCompile;
    std::uint64_t afterRun;
    std::uint64_t segment;
};

void
PrintTo(const PageBand &b, std::ostream *os)
{
    *os << b.name;
}

// Full restricted-O2 runs, ADORE off, dataSeed 1.  Compile builds no
// page: arrays and linked lists alike are deferred fills.  A run also
// touches pages outside the segment (gzip, vpr), so afterRun may exceed
// segment.
constexpr PageBand kPageBands[] = {
    {"bzip2", 0, 31, 106},
    {"gzip", 0, 8, 2},
    {"mcf", 0, 124, 131},
    {"vpr", 0, 120, 111},
    {"parser", 0, 14, 17},
    {"gap", 0, 37, 134},
    {"vortex", 0, 19, 19},
    {"gcc", 0, 33, 37},
    {"ammp", 0, 47, 74},
    {"art", 0, 100, 134},
    {"applu", 0, 45, 843},
    {"equake", 0, 83, 109},
    {"facerec", 0, 63, 63},
    {"fma3d", 0, 75, 75},
    {"lucas", 0, 110, 110},
    {"mesa", 0, 27, 43},
    {"swim", 0, 578, 578},
};

class DataMaterialisation : public ::testing::TestWithParam<PageBand>
{
};

TEST_P(DataMaterialisation, PagesBuiltOnFirstTouch)
{
    const PageBand &b = GetParam();
    Compiled c(workloads::make(b.name), OptLevel::O2);
    MainMemory &mem = c.machine.memory();
    EXPECT_EQ(c.segmentPages(), b.segment);
    EXPECT_EQ(mem.allocatedPages(), b.afterCompile);

    c.machine.cpu().setPc(c.report.entry);
    EXPECT_TRUE(c.machine.cpu().run(RunConfig().maxCycles).halted);
    EXPECT_EQ(mem.allocatedPages(), b.afterRun);
}

TEST(DataMaterialisation, EveryRegistryWorkloadHasABand)
{
    EXPECT_EQ(std::size(kPageBands), workloads::allWorkloads().size());
}

INSTANTIATE_TEST_SUITE_P(
    All, DataMaterialisation, ::testing::ValuesIn(kPageBands),
    [](const ::testing::TestParamInfo<PageBand> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace adore
