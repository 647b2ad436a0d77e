#include "workloads/generator.hh"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>

#include "support/logging.hh"
#include "support/rng.hh"

namespace adore::workloads
{

namespace
{

/** snprintf into a std::string (all kernel lines are short). */
template <typename... Args>
std::string
fmt(const char *format, Args... args)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), format, args...);
    return buf;
}

/** Integer-only log-uniform draw in [lo, hi]: pick a bit length
 *  uniformly, then a value of that magnitude.  Avoids libm so the same
 *  seed yields the same program on every host. */
std::uint64_t
logUniform(Rng &rng, std::uint64_t lo, std::uint64_t hi)
{
    if (lo >= hi)
        return lo;
    auto bits = [](std::uint64_t v) {
        int b = 0;
        while (v) {
            ++b;
            v >>= 1;
        }
        return b;
    };
    int blo = bits(lo), bhi = bits(hi);
    int b = blo + static_cast<int>(rng.below(
                      static_cast<std::uint64_t>(bhi - blo + 1)));
    std::uint64_t base = b > 1 ? (std::uint64_t{1} << (b - 1)) : 1;
    std::uint64_t v = base + rng.below(base);
    return std::min(hi, std::max(lo, v));
}

} // namespace

int
estimateIntRegs(const hir::Program &prog, const hir::Loop &loop)
{
    // Mirrors the hard allocInt() calls in CodeGen::emitLoop: roles
    // that panic when the r4..r26 pool (23 registers) runs dry.  Value
    // destinations beyond the first fall back to cyclic reuse and
    // never panic, so they cost one shared pooled register.
    int n = 0;
    bool need_int_acc = !loop.body.chases.empty();
    bool need_int_val = false;
    for (const hir::ArrayRef &ref : loop.body.refs) {
        bool target_fp = false;
        if (ref.array >= 0 &&
            ref.array < static_cast<int>(prog.arrays.size()))
            target_fp =
                prog.arrays[static_cast<std::size_t>(ref.array)].fp;
        if (!target_fp)
            need_int_acc = true;
        if (ref.indexArray >= 0 || ref.viaFpConversion) {
            n += 4;  // cursor + tbase + tmp + idx
            if (!ref.isStore && !(target_fp && ref.indexArray >= 0))
                need_int_val = true;
        } else {
            n += 1;  // cursor
            if (!ref.isStore && !target_fp)
                need_int_val = true;
            // At O3 the static prefetch pass may schedule every
            // direct load that is not loop-invariant or aliased; each
            // scheduled ref hard-allocates a prefetch cursor.
            bool target_param =
                ref.array >= 0 &&
                ref.array < static_cast<int>(prog.arrays.size()) &&
                prog.arrays[static_cast<std::size_t>(ref.array)].isParam;
            if (!ref.isStore && ref.strideElems != 0 && !target_param)
                n += 1;
        }
    }
    for (const hir::PtrChaseRef &chase : loop.body.chases)
        n += chase.derefPayload ? 5 : 4;  // ptr + payload + next + val
    if (need_int_acc)
        n += 1;
    if (loop.body.extraIntOps > 0)
        n += 2;  // filler pair
    if (need_int_val)
        n += 1;  // first pooled value register must exist
    return n;
}

std::string
validateProgram(const hir::Program &prog, std::uint64_t max_data_bytes)
{
    if (prog.name.empty())
        return "program has no name";
    if (prog.sequence.empty())
        return "program has an empty phase sequence";

    // Adds @p count regions of @p size bytes to the working set, or
    // reports the bound passed.  Dividing instead of multiplying keeps
    // a huge count from wrapping the sum.
    std::uint64_t data_bytes = 0;
    auto addData = [&](std::uint64_t count, std::uint64_t size) {
        if (count > (max_data_bytes - data_bytes) / size) {
            return fmt("working set exceeds the %" PRIu64 "-byte bound",
                       max_data_bytes);
        }
        data_bytes += count * size;
        return std::string();
    };
    for (std::size_t i = 0; i < prog.arrays.size(); ++i) {
        const hir::ArrayDecl &a = prog.arrays[i];
        std::string who = fmt("array %zu ('%s')", i, a.name.c_str());
        if (a.name.empty())
            return who + ": empty name";
        if (a.elemBytes != 4 && a.elemBytes != 8)
            return who + fmt(": element size %u not 4 or 8", a.elemBytes);
        if (a.count == 0)
            return who + ": zero elements";
        if ((a.init == hir::DataInit::Index ||
             a.init == hir::DataInit::FpIndex) &&
            a.indexRange == 0) {
            return who + ": index array with zero indexRange";
        }
        if (std::string err = addData(a.count, a.elemBytes); !err.empty())
            return who + ": " + err;
    }
    for (std::size_t i = 0; i < prog.lists.size(); ++i) {
        const hir::ListDecl &l = prog.lists[i];
        std::string who = fmt("list %zu ('%s')", i, l.name.c_str());
        if (l.name.empty())
            return who + ": empty name";
        if (l.count == 0)
            return who + ": zero nodes";
        if (l.nodeBytes < 16 || l.nodeBytes % 8 != 0)
            return who + fmt(": node size %" PRIu64
                             " under 16 or not 8-aligned",
                             l.nodeBytes);
        // 8-aligned fields in 8-aligned nodes never straddle a page.
        if (l.nextOffset > l.nodeBytes - 8 || l.nextOffset % 8 != 0)
            return who + ": next pointer outside the node or unaligned";
        if (l.jumble < 0.0 || l.jumble > 1.0)
            return who + ": jumble outside [0,1]";
        if (l.payloadIsPointer && (l.payloadPtrOffset > l.nodeBytes - 8 ||
                                   l.payloadPtrOffset % 8 != 0))
            return who + ": payload pointer outside the node or unaligned";
        if (std::string err = addData(l.count, l.nodeBytes); !err.empty())
            return who + ": " + err;
    }
    // Arrays and lists share the DataLayout region namespace, so names
    // must be unique across both.
    std::set<std::string> names;
    for (const hir::ArrayDecl &a : prog.arrays)
        if (!names.insert(a.name).second)
            return "duplicate data region name '" + a.name + "'";
    for (const hir::ListDecl &l : prog.lists)
        if (!names.insert(l.name).second)
            return "duplicate data region name '" + l.name + "'";

    auto arrayIndexOk = [&prog](int idx) {
        return idx >= 0 &&
               idx < static_cast<int>(prog.arrays.size());
    };
    for (std::size_t li = 0; li < prog.loops.size(); ++li) {
        const hir::Loop &loop = prog.loops[li];
        std::string who = fmt("loop %zu ('%s')", li, loop.name.c_str());
        if (loop.id != static_cast<int>(li))
            return who + fmt(": id %d out of order", loop.id);
        if (loop.trip == 0)
            return who + ": zero trip count";
        if (loop.body.scatterChunks < 1 || loop.body.scatterChunks > 16)
            return who + ": scatterChunks outside [1,16]";
        if (loop.body.scatterPadBundles < 0 ||
            loop.body.scatterPadBundles > 512)
            return who + ": scatterPadBundles outside [0,512]";
        if (loop.body.extraFpOps < 0 || loop.body.extraFpOps > 64 ||
            loop.body.extraIntOps < 0 || loop.body.extraIntOps > 64)
            return who + ": filler op count outside [0,64]";
        for (const hir::ArrayRef &ref : loop.body.refs) {
            if (!arrayIndexOk(ref.array))
                return who + fmt(": ref targets unknown array %d",
                                 ref.array);
            if (ref.indexArray >= 0 || ref.viaFpConversion) {
                if (!arrayIndexOk(ref.indexArray))
                    return who + fmt(": ref has unknown index array %d",
                                     ref.indexArray);
                const hir::ArrayDecl &idx = prog.arrays[static_cast<
                    std::size_t>(ref.indexArray)];
                const hir::ArrayDecl &tgt =
                    prog.arrays[static_cast<std::size_t>(ref.array)];
                if (ref.viaFpConversion) {
                    if (idx.init != hir::DataInit::FpIndex || !idx.fp)
                        return who + ": fp-converted ref needs an "
                                     "FpIndex index array";
                    if (ref.isStore)
                        return who + ": fp-converted ref cannot store";
                } else if (idx.init != hir::DataInit::Index) {
                    return who +
                           ": indirect ref needs an Index-initialized "
                           "index array";
                }
                if (idx.indexRange > tgt.count)
                    return who + fmt(": index range %" PRIu64
                                     " exceeds target array count %" PRIu64,
                                     idx.indexRange, tgt.count);
                if (idx.count < loop.trip)
                    return who + fmt(": index array shorter (%" PRIu64
                                     ") than the trip count (%" PRIu64 ")",
                                     idx.count, loop.trip);
            }
        }
        for (const hir::PtrChaseRef &chase : loop.body.chases) {
            if (chase.list < 0 ||
                chase.list >= static_cast<int>(prog.lists.size()))
                return who + fmt(": chase over unknown list %d",
                                 chase.list);
            const hir::ListDecl &l =
                prog.lists[static_cast<std::size_t>(chase.list)];
            if (chase.payloadOffset + 8 > l.nodeBytes)
                return who + ": chase payload outside the node";
            if (chase.derefPayload && !l.payloadIsPointer)
                return who + ": chase dereferences a non-pointer payload";
            if (l.count < loop.trip)
                return who + fmt(": list shorter (%" PRIu64
                                 ") than the trip count (%" PRIu64 ")",
                                 l.count, loop.trip);
        }
        int regs = estimateIntRegs(prog, loop);
        if (regs > 23)
            return who + fmt(": needs %d integer registers, pool has 23",
                             regs);
    }

    std::vector<bool> seen(prog.loops.size(), false);
    for (std::size_t pi = 0; pi < prog.sequence.size(); ++pi) {
        const hir::Phase &phase = prog.sequence[pi];
        std::string who = fmt("phase %zu", pi);
        if (phase.loops.empty())
            return who + ": no loops";
        if (phase.repeat == 0)
            return who + ": zero repeat";
        for (int id : phase.loops) {
            if (id < 0 || id >= static_cast<int>(prog.loops.size()))
                return who + fmt(": unknown loop %d", id);
            // The code generator emits each loop exactly once, at its
            // place in the sequence.
            if (seen[static_cast<std::size_t>(id)])
                return who + fmt(": loop %d appears twice in the "
                                 "sequence",
                                 id);
            seen[static_cast<std::size_t>(id)] = true;
        }
    }
    return "";
}

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

namespace
{

struct GenState
{
    const GeneratorConfig &cfg;
    Rng rng;
    hir::Program prog;
    std::uint64_t bytesLeft;
    // Stream-array pools by (large, fp); reuse keeps working sets
    // shared between loops like the hand-written kernels do.
    std::vector<int> pools[2][2];
    int nameCounter = 0;

    explicit GenState(const GeneratorConfig &c)
        : cfg(c), rng(c.seed), bytesLeft(c.maxWorkingSetBytes)
    {
    }

    std::string
    freshName(const char *kind)
    {
        return fmt("%s%d", kind, nameCounter++);
    }

    /** Declare a stream array of the requested flavor, charging the
     *  working-set budget (large arrays shrink to fit). */
    int
    newStream(bool large, bool fp)
    {
        std::uint64_t lo =
            large ? cfg.largeArrayMinBytes : cfg.smallArrayMinBytes;
        std::uint64_t hi =
            large ? cfg.largeArrayMaxBytes : cfg.smallArrayMaxBytes;
        std::uint64_t bytes = logUniform(rng, lo, hi);
        if (bytes > bytesLeft)
            bytes = std::max<std::uint64_t>(cfg.smallArrayMinBytes,
                                            bytesLeft);
        bytesLeft -= std::min(bytesLeft, bytes);

        hir::ArrayDecl arr;
        arr.name = freshName(fp ? "f" : "a");
        arr.elemBytes = 8;
        arr.count = std::max<std::uint64_t>(1024, bytes / arr.elemBytes);
        arr.fp = fp;
        arr.init = fp ? hir::DataInit::RandomFp : hir::DataInit::RandomInt;
        // Large FP streams sometimes arrive as parameters: the static
        // compiler must assume aliasing and skip them (art's pattern).
        arr.isParam = large && fp && rng.real() < 0.25;
        int id = prog.addArray(arr);
        pools[large][fp].push_back(id);
        return id;
    }

    /** Pick (or create) a stream target honoring missConcentration. */
    int
    pickTarget(bool fp)
    {
        bool large = rng.real() < cfg.missConcentration;
        auto &pool = pools[large][fp];
        if (!pool.empty() && rng.real() < 0.5)
            return pool[rng.below(pool.size())];
        return newStream(large, fp);
    }

    /** Declare an index array long enough for @p trip iterations into
     *  [0, count of @p target). */
    int
    newIndexArray(std::uint64_t trip, int target, bool fp_index)
    {
        hir::ArrayDecl arr;
        arr.name = freshName(fp_index ? "fidx" : "idx");
        arr.elemBytes = 8;
        arr.count = trip;
        arr.fp = fp_index;
        arr.init =
            fp_index ? hir::DataInit::FpIndex : hir::DataInit::Index;
        arr.indexRange =
            prog.arrays[static_cast<std::size_t>(target)].count;
        bytesLeft -= std::min(bytesLeft, arr.bytes());
        return prog.addArray(arr);
    }

    /** Declare a linked list of at least @p trip nodes. */
    int
    newList(std::uint64_t trip, bool &deref_payload)
    {
        static const std::uint64_t nodeSizes[] = {32, 64, 128};
        hir::ListDecl list;
        list.name = freshName("l");
        list.nodeBytes = nodeSizes[rng.below(3)];
        std::uint64_t want = logUniform(rng, trip, trip * 4);
        if (want * list.nodeBytes > bytesLeft) {
            list.nodeBytes = 32;
            want = trip;
        }
        list.count = want;
        list.jumble = static_cast<double>(rng.below(41)) / 100.0;
        list.payloadIsPointer = rng.real() < 0.4;
        list.payloadPtrOffset = 8;
        if (list.payloadIsPointer)
            list.payloadPtrWindow = std::max<std::uint64_t>(
                1, list.count / (1 + rng.below(32)));
        deref_payload = list.payloadIsPointer && rng.real() < 0.75;
        bytesLeft -= std::min(bytesLeft, list.count * list.nodeBytes);
        return prog.addList(list);
    }
};

} // namespace

hir::Program
generate(const GeneratorConfig &cfg)
{
    GenState st(cfg);
    st.prog.name = fmt("gen_%" PRIu64, cfg.seed);
    Rng &rng = st.rng;

    int n_loops =
        cfg.minLoops +
        static_cast<int>(rng.below(static_cast<std::uint64_t>(
            cfg.maxLoops - cfg.minLoops + 1)));

    const unsigned w_direct = cfg.weightDirect;
    const unsigned w_indirect = w_direct + cfg.weightIndirect;
    const unsigned w_pointer = w_indirect + cfg.weightPointer;
    const unsigned w_total = w_pointer + cfg.weightFpConverted;

    for (int li = 0; li < n_loops; ++li) {
        std::uint64_t trip = logUniform(rng, cfg.minTrip, cfg.maxTrip);
        hir::LoopBody body;
        int chases = 0;
        // Stay under the code generator's integer-register pool: the
        // validator enforces <= 23, generation keeps headroom.
        int reg_budget = 19;
        int regs_used = 3;  // accumulator + filler pair

        int n_slots = 1 + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(
                                  cfg.maxRefsPerLoop)));
        for (int s = 0; s < n_slots; ++s) {
            unsigned roll =
                w_total ? static_cast<unsigned>(rng.below(w_total)) : 0;
            if (roll < w_direct) {
                if (regs_used + 3 > reg_budget)
                    break;
                regs_used += 3;
                bool fp = rng.below(2) != 0;
                hir::ArrayRef ref;
                ref.array = st.pickTarget(fp);
                static const std::int64_t strides[] = {1, 1, 2, 4, 8};
                ref.strideElems = strides[rng.below(5)];
                ref.isStore = rng.real() < cfg.storeFraction;
                body.refs.push_back(ref);
            } else if (roll < w_indirect) {
                if (regs_used + 5 > reg_budget)
                    break;
                regs_used += 5;
                bool fp = rng.below(2) != 0;
                hir::ArrayRef ref;
                ref.array = st.pickTarget(fp);
                ref.indexArray = st.newIndexArray(trip, ref.array, false);
                ref.isStore = rng.real() < cfg.storeFraction;
                body.refs.push_back(ref);
            } else if (roll < w_pointer &&
                       chases < cfg.maxChasesPerLoop) {
                if (regs_used + 5 > reg_budget)
                    break;
                regs_used += 5;
                bool deref = false;
                int list = st.newList(trip, deref);
                hir::PtrChaseRef chase;
                chase.list = list;
                chase.payloadOffset = 8;
                chase.derefPayload = deref;
                body.chases.push_back(chase);
                ++chases;
            } else {
                // fp->int conversion: the pattern the runtime slicer
                // cannot analyze (vpr / lucas).
                if (regs_used + 5 > reg_budget)
                    break;
                regs_used += 5;
                hir::ArrayRef ref;
                ref.array = st.pickTarget(false);
                ref.indexArray = st.newIndexArray(trip, ref.array, true);
                ref.viaFpConversion = true;
                body.refs.push_back(ref);
            }
        }
        if (body.refs.empty() && body.chases.empty()) {
            // Never emit an empty body: fall back to a small direct ref.
            hir::ArrayRef ref;
            ref.array = st.pickTarget(false);
            body.refs.push_back(ref);
        }

        body.extraIntOps = static_cast<int>(rng.below(9));
        body.extraFpOps = static_cast<int>(rng.below(5));
        body.hasCall = rng.real() < cfg.callFraction;
        if (rng.real() < cfg.scatterFraction) {
            body.scatterChunks = 2 + static_cast<int>(rng.below(3));
            body.scatterPadBundles =
                16 + static_cast<int>(rng.below(33));
        }

        hir::Loop loop;
        loop.name = fmt("loop%d", li);
        loop.trip = trip;
        loop.body = std::move(body);
        st.prog.addLoop(std::move(loop));
    }

    // Phase structure: walk the loops in order, grouping a few into
    // applu-style multi-loop phases; each loop appears exactly once.
    std::vector<std::vector<int>> groups;
    for (int id = 0; id < n_loops;) {
        int take = 1;
        if (cfg.maxLoopsPerPhase > 1 && rng.real() < 0.3) {
            take = 2 + static_cast<int>(rng.below(static_cast<
                           std::uint64_t>(cfg.maxLoopsPerPhase - 1)));
        }
        take = std::min(take, n_loops - id);
        std::vector<int> group;
        for (int k = 0; k < take; ++k)
            group.push_back(id++);
        groups.push_back(std::move(group));
    }

    std::uint64_t per_phase = std::max<std::uint64_t>(
        1, cfg.targetIterations / groups.size());
    for (auto &group : groups) {
        std::uint64_t sum_trip = 0;
        for (int id : group)
            sum_trip += st.prog.loops[static_cast<std::size_t>(id)].trip;
        std::uint64_t repeat = std::max<std::uint64_t>(
            1, std::min<std::uint64_t>(128, per_phase / sum_trip));
        if (cfg.endless)
            repeat = 2'000'000'000ULL;
        hir::Phase phase;
        phase.loops = std::move(group);
        phase.repeat = repeat;
        st.prog.sequence.push_back(std::move(phase));
    }

    std::string err = validateProgram(st.prog);
    panic_if(!err.empty(), "generated program %s is invalid: %s",
             st.prog.name.c_str(), err.c_str());
    return st.prog;
}

// ---------------------------------------------------------------------
// Canonical kernel text (corpus format)
// ---------------------------------------------------------------------

std::string
renderProgram(const hir::Program &prog)
{
    std::string out = "kernel v1\n";
    out += "name " + prog.name + "\n";
    for (const hir::ArrayDecl &a : prog.arrays) {
        out += fmt("array %s elem=%u count=%" PRIu64
                   " fp=%d param=%d init=%d range=%" PRIu64 "\n",
                   a.name.c_str(), a.elemBytes, a.count, a.fp ? 1 : 0,
                   a.isParam ? 1 : 0, static_cast<int>(a.init),
                   a.indexRange);
    }
    for (const hir::ListDecl &l : prog.lists) {
        out += fmt("list %s count=%" PRIu64 " node=%" PRIu64
                   " next=%" PRIu64
                   " jumble=%.17g payload_ptr=%d ptr_off=%" PRIu64
                   " ptr_window=%" PRIu64 "\n",
                   l.name.c_str(), l.count, l.nodeBytes, l.nextOffset,
                   l.jumble, l.payloadIsPointer ? 1 : 0,
                   l.payloadPtrOffset, l.payloadPtrWindow);
    }
    for (std::size_t li = 0; li < prog.loops.size(); ++li) {
        const hir::Loop &loop = prog.loops[li];
        out += fmt("loop %s trip=%" PRIu64
                   " fpops=%d intops=%d call=%d chunks=%d pad=%d\n",
                   loop.name.c_str(), loop.trip, loop.body.extraFpOps,
                   loop.body.extraIntOps, loop.body.hasCall ? 1 : 0,
                   loop.body.scatterChunks, loop.body.scatterPadBundles);
        for (const hir::ArrayRef &ref : loop.body.refs) {
            out += fmt("ref loop=%zu array=%d stride=%" PRId64
                       " offset=%" PRId64 " store=%d index=%d fpconv=%d\n",
                       li, ref.array, ref.strideElems, ref.offsetElems,
                       ref.isStore ? 1 : 0, ref.indexArray,
                       ref.viaFpConversion ? 1 : 0);
        }
        for (const hir::PtrChaseRef &chase : loop.body.chases) {
            out += fmt("chase loop=%zu list=%d payload=%" PRIu64
                       " deref=%d\n",
                       li, chase.list, chase.payloadOffset,
                       chase.derefPayload ? 1 : 0);
        }
    }
    for (const hir::Phase &phase : prog.sequence) {
        out += fmt("phase repeat=%" PRIu64 " loops=", phase.repeat);
        for (std::size_t k = 0; k < phase.loops.size(); ++k)
            out += fmt("%s%d", k ? "," : "", phase.loops[k]);
        out += "\n";
    }
    out += "end\n";
    return out;
}

namespace
{

/** Parse all of @p v as a base-10 number.  Empty values, trailing
 *  bytes, out-of-range values and a sign on an unsigned type are
 *  rejected (strtoull would read "546junk" as 546 and wrap "-1"). */
template <typename T>
bool
parseNumber(const std::string &v, T &out)
{
    const char *end = v.data() + v.size();
    auto [p, ec] = std::from_chars(v.data(), end, out);
    return ec == std::errc() && p == end;
}

/** Split a kernel line into a keyword, a name token, and key=value
 *  fields.  The typed getters return false on a missing or malformed
 *  field. */
struct KernelLine
{
    std::string keyword;
    std::vector<std::string> tokens;

    bool
    field(const char *key, std::string &out) const
    {
        std::string prefix = std::string(key) + "=";
        for (const std::string &t : tokens) {
            if (t.rfind(prefix, 0) == 0) {
                out = t.substr(prefix.size());
                return true;
            }
        }
        return false;
    }

    bool
    u64(const char *key, std::uint64_t &out) const
    {
        std::string v;
        return field(key, v) && parseNumber(v, out);
    }

    bool
    i64(const char *key, std::int64_t &out) const
    {
        std::string v;
        return field(key, v) && parseNumber(v, out);
    }

    bool
    f64(const char *key, double &out) const
    {
        std::string v;
        return field(key, v) && parseNumber(v, out);
    }
};

KernelLine
splitLine(const std::string &line)
{
    KernelLine out;
    std::istringstream ss(line);
    std::string tok;
    while (ss >> tok) {
        if (out.keyword.empty())
            out.keyword = tok;
        else
            out.tokens.push_back(tok);
    }
    return out;
}

} // namespace

bool
parseProgram(const std::string &text, hir::Program &out, std::string &err)
{
    out = hir::Program{};
    std::istringstream ss(text);
    std::string line;
    int lineno = 0;
    bool versioned = false, ended = false;

    auto fail = [&err, &lineno](const std::string &what) {
        err = fmt("line %d: %s", lineno, what.c_str());
        return false;
    };

    while (std::getline(ss, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        KernelLine kl = splitLine(line);
        if (kl.keyword.empty())
            continue;
        if (!versioned) {
            if (kl.keyword != "kernel" || kl.tokens.empty() ||
                kl.tokens[0] != "v1")
                return fail("expected 'kernel v1' header");
            versioned = true;
            continue;
        }
        if (kl.keyword == "end") {
            ended = true;
            break;
        }
        if (kl.keyword == "name") {
            if (kl.tokens.empty())
                return fail("name line without a name");
            out.name = kl.tokens[0];
        } else if (kl.keyword == "array") {
            if (kl.tokens.empty())
                return fail("array line without a name");
            hir::ArrayDecl a;
            a.name = kl.tokens[0];
            std::uint64_t elem = 8, fp = 0, param = 0, init = 0;
            if (!kl.u64("elem", elem) || !kl.u64("count", a.count) ||
                !kl.u64("fp", fp) || !kl.u64("param", param) ||
                !kl.u64("init", init) || !kl.u64("range", a.indexRange))
                return fail("array line missing or malformed field");
            if (init > static_cast<std::uint64_t>(
                           hir::DataInit::FpIndex))
                return fail("array init kind out of range");
            a.elemBytes = static_cast<std::uint32_t>(elem);
            a.fp = fp != 0;
            a.isParam = param != 0;
            a.init = static_cast<hir::DataInit>(init);
            out.addArray(a);
        } else if (kl.keyword == "list") {
            if (kl.tokens.empty())
                return fail("list line without a name");
            hir::ListDecl l;
            l.name = kl.tokens[0];
            std::uint64_t pp = 0;
            if (!kl.u64("count", l.count) ||
                !kl.u64("node", l.nodeBytes) ||
                !kl.u64("next", l.nextOffset) ||
                !kl.f64("jumble", l.jumble) ||
                !kl.u64("payload_ptr", pp) ||
                !kl.u64("ptr_off", l.payloadPtrOffset) ||
                !kl.u64("ptr_window", l.payloadPtrWindow))
                return fail("list line missing or malformed field");
            l.payloadIsPointer = pp != 0;
            out.addList(l);
        } else if (kl.keyword == "loop") {
            if (kl.tokens.empty())
                return fail("loop line without a name");
            hir::Loop loop;
            loop.name = kl.tokens[0];
            std::uint64_t call = 0, fpops = 0, intops = 0, chunks = 1,
                          pad = 0;
            if (!kl.u64("trip", loop.trip) || !kl.u64("fpops", fpops) ||
                !kl.u64("intops", intops) || !kl.u64("call", call) ||
                !kl.u64("chunks", chunks) || !kl.u64("pad", pad))
                return fail("loop line missing or malformed field");
            loop.body.extraFpOps = static_cast<int>(fpops);
            loop.body.extraIntOps = static_cast<int>(intops);
            loop.body.hasCall = call != 0;
            loop.body.scatterChunks = static_cast<int>(chunks);
            loop.body.scatterPadBundles = static_cast<int>(pad);
            out.addLoop(std::move(loop));
        } else if (kl.keyword == "ref") {
            std::uint64_t li = 0;
            std::int64_t array = -1, index = -1, fpconv = 0, store = 0;
            hir::ArrayRef ref;
            if (!kl.u64("loop", li) || !kl.i64("array", array) ||
                !kl.i64("stride", ref.strideElems) ||
                !kl.i64("offset", ref.offsetElems) ||
                !kl.i64("store", store) || !kl.i64("index", index) ||
                !kl.i64("fpconv", fpconv))
                return fail("ref line missing or malformed field");
            if (li >= out.loops.size())
                return fail("ref references an undeclared loop");
            ref.array = static_cast<int>(array);
            ref.indexArray = static_cast<int>(index);
            ref.isStore = store != 0;
            ref.viaFpConversion = fpconv != 0;
            out.loops[li].body.refs.push_back(ref);
        } else if (kl.keyword == "chase") {
            std::uint64_t li = 0;
            std::int64_t list = -1, deref = 0;
            hir::PtrChaseRef chase;
            if (!kl.u64("loop", li) || !kl.i64("list", list) ||
                !kl.u64("payload", chase.payloadOffset) ||
                !kl.i64("deref", deref))
                return fail("chase line missing or malformed field");
            if (li >= out.loops.size())
                return fail("chase references an undeclared loop");
            chase.list = static_cast<int>(list);
            chase.derefPayload = deref != 0;
            out.loops[li].body.chases.push_back(chase);
        } else if (kl.keyword == "phase") {
            hir::Phase phase;
            std::string loops;
            if (!kl.u64("repeat", phase.repeat) ||
                !kl.field("loops", loops))
                return fail("phase line missing or malformed field");
            std::size_t pos = 0;
            while (pos < loops.size()) {
                std::size_t comma = loops.find(',', pos);
                if (comma == std::string::npos)
                    comma = loops.size();
                int loop = 0;
                if (!parseNumber(loops.substr(pos, comma - pos), loop))
                    return fail("phase line has a malformed loop index");
                phase.loops.push_back(loop);
                pos = comma + 1;
            }
            out.sequence.push_back(std::move(phase));
        } else {
            return fail("unknown keyword '" + kl.keyword + "'");
        }
    }
    if (!versioned)
        return fail("missing 'kernel v1' header");
    if (!ended)
        return fail("missing 'end' line");
    std::string verr = validateProgram(out);
    if (!verr.empty()) {
        err = "parsed kernel is invalid: " + verr;
        return false;
    }
    err.clear();
    return true;
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

hir::Program
dropUnreachable(const hir::Program &prog)
{
    std::vector<bool> loop_used(prog.loops.size(), false);
    for (const hir::Phase &phase : prog.sequence)
        for (int id : phase.loops)
            if (id >= 0 && id < static_cast<int>(prog.loops.size()))
                loop_used[static_cast<std::size_t>(id)] = true;

    std::vector<bool> array_used(prog.arrays.size(), false);
    std::vector<bool> list_used(prog.lists.size(), false);
    for (std::size_t li = 0; li < prog.loops.size(); ++li) {
        if (!loop_used[li])
            continue;
        for (const hir::ArrayRef &ref : prog.loops[li].body.refs) {
            if (ref.array >= 0)
                array_used[static_cast<std::size_t>(ref.array)] = true;
            if (ref.indexArray >= 0)
                array_used[static_cast<std::size_t>(ref.indexArray)] =
                    true;
        }
        for (const hir::PtrChaseRef &chase : prog.loops[li].body.chases)
            if (chase.list >= 0)
                list_used[static_cast<std::size_t>(chase.list)] = true;
    }

    std::vector<int> array_map(prog.arrays.size(), -1);
    std::vector<int> list_map(prog.lists.size(), -1);
    std::vector<int> loop_map(prog.loops.size(), -1);

    hir::Program out;
    out.name = prog.name;
    for (std::size_t i = 0; i < prog.arrays.size(); ++i)
        if (array_used[i])
            array_map[i] = out.addArray(prog.arrays[i]);
    for (std::size_t i = 0; i < prog.lists.size(); ++i)
        if (list_used[i])
            list_map[i] = out.addList(prog.lists[i]);
    for (std::size_t i = 0; i < prog.loops.size(); ++i) {
        if (!loop_used[i])
            continue;
        hir::Loop loop = prog.loops[i];
        for (hir::ArrayRef &ref : loop.body.refs) {
            if (ref.array >= 0)
                ref.array = array_map[static_cast<std::size_t>(ref.array)];
            if (ref.indexArray >= 0)
                ref.indexArray =
                    array_map[static_cast<std::size_t>(ref.indexArray)];
        }
        for (hir::PtrChaseRef &chase : loop.body.chases)
            if (chase.list >= 0)
                chase.list =
                    list_map[static_cast<std::size_t>(chase.list)];
        loop_map[i] = out.addLoop(std::move(loop));
    }
    for (const hir::Phase &phase : prog.sequence) {
        hir::Phase p;
        p.repeat = phase.repeat;
        for (int id : phase.loops)
            p.loops.push_back(loop_map[static_cast<std::size_t>(id)]);
        out.sequence.push_back(std::move(p));
    }
    return out;
}

std::vector<hir::Program>
shrinkSteps(const hir::Program &prog)
{
    std::vector<hir::Program> out;
    std::string base = renderProgram(prog);
    auto offer = [&out, &base](hir::Program cand) {
        cand = dropUnreachable(cand);
        if (!validateProgram(cand).empty())
            return;
        if (renderProgram(cand) == base)
            return;  // no-op reduction
        out.push_back(std::move(cand));
    };

    // Drop a whole phase.
    if (prog.sequence.size() > 1) {
        for (std::size_t pi = 0; pi < prog.sequence.size(); ++pi) {
            hir::Program cand = prog;
            cand.sequence.erase(cand.sequence.begin() +
                                static_cast<std::ptrdiff_t>(pi));
            offer(std::move(cand));
        }
    }
    // Drop one loop from a multi-loop phase.
    for (std::size_t pi = 0; pi < prog.sequence.size(); ++pi) {
        if (prog.sequence[pi].loops.size() < 2)
            continue;
        for (std::size_t k = 0; k < prog.sequence[pi].loops.size();
             ++k) {
            hir::Program cand = prog;
            auto &loops = cand.sequence[pi].loops;
            loops.erase(loops.begin() + static_cast<std::ptrdiff_t>(k));
            offer(std::move(cand));
        }
    }
    // Halve repeats and trips.
    for (std::size_t pi = 0; pi < prog.sequence.size(); ++pi) {
        if (prog.sequence[pi].repeat > 1) {
            hir::Program cand = prog;
            cand.sequence[pi].repeat /= 2;
            offer(std::move(cand));
        }
    }
    for (std::size_t li = 0; li < prog.loops.size(); ++li) {
        if (prog.loops[li].trip > 4) {
            hir::Program cand = prog;
            cand.loops[li].trip /= 2;
            offer(std::move(cand));
        }
    }
    // Drop a reference / chase; strip calls, scattering, filler.
    for (std::size_t li = 0; li < prog.loops.size(); ++li) {
        const hir::LoopBody &body = prog.loops[li].body;
        for (std::size_t r = 0; r < body.refs.size(); ++r) {
            if (body.refs.size() + body.chases.size() < 2)
                break;  // keep the body non-empty
            hir::Program cand = prog;
            auto &refs = cand.loops[li].body.refs;
            refs.erase(refs.begin() + static_cast<std::ptrdiff_t>(r));
            offer(std::move(cand));
        }
        for (std::size_t c = 0; c < body.chases.size(); ++c) {
            if (body.refs.size() + body.chases.size() < 2)
                break;
            hir::Program cand = prog;
            auto &chases = cand.loops[li].body.chases;
            chases.erase(chases.begin() +
                         static_cast<std::ptrdiff_t>(c));
            offer(std::move(cand));
        }
        if (body.hasCall) {
            hir::Program cand = prog;
            cand.loops[li].body.hasCall = false;
            offer(std::move(cand));
        }
        if (body.scatterChunks > 1) {
            hir::Program cand = prog;
            cand.loops[li].body.scatterChunks = 1;
            offer(std::move(cand));
        }
        if (body.extraFpOps > 0 || body.extraIntOps > 0) {
            hir::Program cand = prog;
            cand.loops[li].body.extraFpOps = 0;
            cand.loops[li].body.extraIntOps = 0;
            offer(std::move(cand));
        }
    }
    // Halve arrays and lists (clamping dependent index ranges).
    for (std::size_t ai = 0; ai < prog.arrays.size(); ++ai) {
        if (prog.arrays[ai].count <= 1024)
            continue;
        hir::Program cand = prog;
        cand.arrays[ai].count /= 2;
        for (hir::Loop &loop : cand.loops) {
            for (hir::ArrayRef &ref : loop.body.refs) {
                if (ref.array == static_cast<int>(ai) &&
                    ref.indexArray >= 0) {
                    hir::ArrayDecl &idx = cand.arrays[static_cast<
                        std::size_t>(ref.indexArray)];
                    idx.indexRange = std::min(idx.indexRange,
                                              cand.arrays[ai].count);
                }
            }
        }
        offer(std::move(cand));
    }
    for (std::size_t si = 0; si < prog.lists.size(); ++si) {
        if (prog.lists[si].count <= 64)
            continue;
        hir::Program cand = prog;
        cand.lists[si].count /= 2;
        offer(std::move(cand));
    }
    return out;
}

} // namespace adore::workloads
