/**
 * @file
 * The compiler's high-level IR: a program is a set of data declarations
 * (arrays and linked lists) plus a sequence of counted loops whose bodies
 * are built from the three reference patterns of paper Fig. 5 — direct
 * array, indirect array, and pointer-chasing — plus compute filler,
 * fp->int address computation (the pattern that defeats the runtime
 * slicer in vpr/lucas), calls (which stop trace formation, as in gap),
 * and hot-code scattering (the I-cache layout effect of vortex/gcc).
 *
 * The 17 synthetic SPEC2000 workloads are expressed in this IR and
 * compiled by the ORC-like code generator at O2/O3 with or without
 * software pipelining and ADORE register reservation.
 */

#ifndef ADORE_COMPILER_HIR_HH
#define ADORE_COMPILER_HIR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "program/data_layout.hh"

namespace adore::hir
{

/** How an array is initialized; DataLayout::allocArray writes it. */
using DataInit = adore::DataInit;

struct ArrayDecl
{
    std::string name;
    std::uint32_t elemBytes = 8;  ///< 4 or 8
    std::uint64_t count = 0;
    bool fp = false;              ///< element type (ldf vs ld)
    /**
     * Array reaches the loop as a function parameter: the ORC-like
     * compiler must assume aliasing and will not prefetch refs to it
     * (the paper's matrix-multiply observation, Section 1.1).
     */
    bool isParam = false;
    DataInit init = DataInit::Zero;
    std::uint64_t indexRange = 0;  ///< for the DataInit::Index kinds

    std::uint64_t bytes() const { return count * elemBytes; }
};

struct ListDecl
{
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t nodeBytes = 64;
    std::uint64_t nextOffset = 0;  ///< offset of the next pointer
    /**
     * Layout irregularity in [0,1]: 0 = nodes in traversal order
     * (regular stride), 1 = fully shuffled (no stride for the
     * induction-pointer heuristic to exploit); intermediate values give
     * the "partially regular strides" the paper describes.
     */
    double jumble = 0.0;
    /**
     * Initialize the field at @ref payloadPtrOffset of every node with
     * the address of a random node of this list (mcf's arc->tail
     * pattern): a dependent dereference no prefetcher can cover.
     */
    bool payloadIsPointer = false;
    std::uint64_t payloadPtrOffset = 8;
    /** Number of distinct nodes payload pointers may target (0 = the
     *  whole list); a small window keeps the dependent dereference
     *  cache-resident. */
    std::uint64_t payloadPtrWindow = 0;
};

/**
 * One array reference inside a loop body; the address pattern follows
 * index = i * strideElems + offsetElems over the declared array.
 */
struct ArrayRef
{
    int array = -1;  ///< index into Program::arrays
    std::int64_t strideElems = 1;
    std::int64_t offsetElems = 0;
    bool isStore = false;
    /**
     * When >= 0, this is the *indirect* pattern `b[idx[i]]`: the named
     * array (an Index-initialized i64 array) supplies the subscript and
     * `array` is the referenced target.
     */
    int indexArray = -1;
    /**
     * Address is derived from a loaded FP value through an fp->int
     * conversion: the runtime slicer cannot compute a stride for it.
     */
    bool viaFpConversion = false;
};

struct PtrChaseRef
{
    int list = -1;            ///< index into Program::lists
    std::uint64_t payloadOffset = 8;  ///< extra field read per node
    /** Treat the payload as a pointer and dereference it (requires the
     *  list's payloadIsPointer initialization). */
    bool derefPayload = false;
};

struct LoopBody
{
    std::vector<ArrayRef> refs;
    std::vector<PtrChaseRef> chases;
    int extraFpOps = 0;   ///< additional fma filler per iteration
    int extraIntOps = 0;  ///< additional integer ALU filler per iteration
    bool hasCall = false; ///< body calls a tiny leaf function
    /**
     * When > 1, the body is emitted in this many chunks connected by
     * unconditional branches, with cold padding bundles in between —
     * scattering the hot path through the text segment (vortex/gcc).
     */
    int scatterChunks = 1;
    int scatterPadBundles = 32;  ///< cold bundles between chunks
};

struct Loop
{
    int id = -1;
    std::string name;
    std::uint64_t trip = 0;  ///< inner iterations per activation
    LoopBody body;
};

/**
 * One program phase: an (optional) outer loop that re-runs the listed
 * inner loops @p repeat times.  A phase with several inner loops models
 * an applu-style timestep driver where multiple loop nests are
 * simultaneously hot within one stable phase.
 */
struct Phase
{
    std::vector<int> loops;    ///< indices into Program::loops
    std::uint64_t repeat = 1;  ///< outer activations
};

struct Program
{
    std::string name;
    std::vector<ArrayDecl> arrays;
    std::vector<ListDecl> lists;
    std::vector<Loop> loops;
    /**
     * Execution order.  Each phase's memory behaviour contrast with its
     * neighbours is what the ADORE phase detector must find.
     */
    std::vector<Phase> sequence;

    /** Append a loop, assigning its id. @return the loop id. */
    int
    addLoop(Loop loop)
    {
        loop.id = static_cast<int>(loops.size());
        loops.push_back(std::move(loop));
        return loops.back().id;
    }

    int
    addArray(ArrayDecl a)
    {
        arrays.push_back(std::move(a));
        return static_cast<int>(arrays.size()) - 1;
    }

    int
    addList(ListDecl l)
    {
        lists.push_back(std::move(l));
        return static_cast<int>(lists.size()) - 1;
    }
};

} // namespace adore::hir

#endif // ADORE_COMPILER_HIR_HH
