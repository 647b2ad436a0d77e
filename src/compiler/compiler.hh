/**
 * @file
 * The ORC-like static compiler: options, per-compilation report, and the
 * top-level compile() entry point.
 *
 * Two optimization levels are modelled after the paper's setup
 * (Section 4.1): O2 performs plain code generation; O3 additionally runs
 * the Mowry-style static data-prefetching pass.  Orthogonally, software
 * pipelining can be enabled (the paper's *original* O2/O3) or disabled
 * together with reserving r27-r30 and p6 for ADORE (the paper's
 * *restricted* compilations used for runtime prefetching).  The
 * profile-guided mode of Table 1 filters the prefetch pass by a cache
 * miss profile collected from a training run.
 */

#ifndef ADORE_COMPILER_COMPILER_HH
#define ADORE_COMPILER_COMPILER_HH

#include <unordered_set>
#include <vector>

#include "compiler/hir.hh"
#include "mem/hierarchy.hh"
#include "program/code_image.hh"
#include "program/data_layout.hh"

namespace adore
{

enum class OptLevel : std::uint8_t { O2, O3 };

/**
 * A sampling-derived cache-miss profile: the set of source loops that
 * contain at least one delinquent load from the 90%-latency-coverage
 * list (paper Section 4.2).
 */
struct MissProfile
{
    std::unordered_set<int> hotLoops;
};

struct CompileOptions
{
    OptLevel level = OptLevel::O2;
    /** Software pipelining (disabled in the paper's restricted builds). */
    bool softwarePipelining = true;
    /** Reserve r27-r30 + p6 for the dynamic optimizer. */
    bool reserveAdoreRegs = false;
    /** When set, the O3 prefetch pass only touches profiled-hot loops. */
    const MissProfile *profile = nullptr;
    /** Deterministic seed for data initialization. */
    std::uint64_t dataSeed = 1;
};

/** The paper's *restricted* compilation: no SWP, ADORE regs reserved. */
inline CompileOptions
restrictedOptions(OptLevel level)
{
    CompileOptions opts;
    opts.level = level;
    opts.softwarePipelining = false;
    opts.reserveAdoreRegs = true;
    return opts;
}

/** Per-loop compilation facts, consumed by tests and the benches. */
struct LoopCompileInfo
{
    int loopId = -1;
    Addr headAddr = 0;        ///< address of the loop-top bundle
    int bodyBundles = 0;      ///< static bundle count of one iteration
    bool prefetchCandidate = false;  ///< pass found an affine candidate
    bool scheduledForPrefetch = false;
    int prefetchesInserted = 0;
    bool softwarePipelined = false;
};

struct CompileReport
{
    Addr entry = 0;
    std::size_t textBytes = 0;
    int loopsScheduledForPrefetch = 0;  ///< Table 1's first column
    int prefetchesInserted = 0;
    std::vector<LoopCompileInfo> loops;

    const LoopCompileInfo *
    loopInfo(int loop_id) const
    {
        for (const auto &li : loops)
            if (li.loopId == loop_id)
                return &li;
        return nullptr;
    }
};

class Compiler
{
  public:
    /** @param hw machine parameters used for prefetch-distance policy. */
    explicit Compiler(const HierarchyConfig &hw) : hw_(hw) {}

    /**
     * Compile @p prog into @p code (text segment) and initialize its data
     * regions through @p data.
     */
    CompileReport compile(const hir::Program &prog,
                          const CompileOptions &opts, CodeImage &code,
                          DataLayout &data) const;

  private:
    HierarchyConfig hw_;
};

} // namespace adore

#endif // ADORE_COMPILER_COMPILER_HH
