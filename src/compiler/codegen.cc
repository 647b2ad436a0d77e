#include "compiler/codegen.hh"

#include <algorithm>
#include <bit>

#include "compiler/static_prefetch.hh"
#include "isa/builder.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace adore
{

namespace
{

/// Fixed register roles (see codegen.hh for the convention).
constexpr std::uint8_t regInduction = 1;
constexpr std::uint8_t regTripBound = 2;
constexpr std::uint8_t regOuterCount = 3;
constexpr std::uint8_t regHelperScratch = 31;
constexpr std::uint8_t predLoop = 1;
constexpr std::uint8_t predOuter = 2;
constexpr std::uint8_t fpConst = 3;

constexpr std::uint8_t
log2u(std::uint32_t v)
{
    return static_cast<std::uint8_t>(std::countr_zero(v));
}

} // namespace

std::uint8_t
CodeGen::LoopRegs::allocInt()
{
    panic_if(intFree.empty(), "codegen: out of integer registers");
    std::uint8_t r = intFree.back();
    intFree.pop_back();
    return r;
}

std::uint8_t
CodeGen::LoopRegs::allocFp()
{
    panic_if(fpFree.empty(), "codegen: out of FP registers");
    std::uint8_t r = fpFree.back();
    fpFree.pop_back();
    return r;
}

CodeGen::CodeGen(const hir::Program &prog, const CompileOptions &opts,
                 const HierarchyConfig &hw)
    : prog_(prog), opts_(opts), hw_(hw)
{
}

void
CodeGen::layoutData(DataLayout &data)
{
    Rng rng(opts_.dataSeed);
    addrs_.arrayBase.resize(prog_.arrays.size());
    addrs_.listHead.resize(prog_.lists.size());

    for (std::size_t i = 0; i < prog_.arrays.size(); ++i) {
        const hir::ArrayDecl &arr = prog_.arrays[i];
        addrs_.arrayBase[i] =
            data.allocArray(prog_.name + "." + arr.name, arr.init,
                            arr.elemBytes, arr.count, arr.indexRange, rng,
                            128);
    }

    for (std::size_t i = 0; i < prog_.lists.size(); ++i) {
        const hir::ListDecl &list = prog_.lists[i];
        std::optional<DataLayout::ListPayload> payload;
        if (list.payloadIsPointer)
            payload = DataLayout::ListPayload{list.payloadPtrOffset,
                                              list.payloadPtrWindow};
        addrs_.listHead[i] = data.allocLinkedList(
            prog_.name + "." + list.name, list.count, list.nodeBytes,
            list.nextOffset, list.jumble, rng, payload);
    }
}

void
CodeGen::flushPending()
{
    if (!pending_.empty()) {
        buf_.append(pending_);
        pending_ = Bundle();
    }
}

void
CodeGen::emit(Insn insn)
{
    insn.loopId = currentLoopId_;
    if (!pending_.tryAdd(insn)) {
        buf_.append(pending_);
        pending_ = Bundle();
        pending_.add(insn);
    }
}

void
CodeGen::emitBranchTo(Insn br_insn, CodeBuffer::LabelId label)
{
    br_insn.loopId = currentLoopId_;
    if (!pending_.tryAdd(br_insn)) {
        flushPending();
        pending_.add(br_insn);
    }
    buf_.appendWithBranchTo(pending_, label);
    pending_ = Bundle();
}

void
CodeGen::emitLoop(const hir::Loop &loop)
{
    panic_if(loopHeadLabels_.count(loop.id),
             "loop %d emitted twice (appears in two phases)", loop.id);
    currentLoopId_ = loop.id;

    LoopCompileInfo info;
    info.loopId = loop.id;

    // Register pools.
    LoopRegs regs;
    for (std::uint8_t r = 26; r >= 4; --r)
        regs.intFree.push_back(r);
    if (!opts_.reserveAdoreRegs) {
        for (std::uint8_t r = isa::reservedIntRegLast;
             r >= isa::reservedIntRegFirst; --r)
            regs.intFree.push_back(r);
    }
    for (std::uint8_t f = 15; f >= 4; --f)
        regs.fpFree.push_back(f);

    // Static prefetch plan (O3 only).
    LoopPrefetchPlan plan;
    if (opts_.level == OptLevel::O3) {
        StaticPrefetchPass pass(hw_, opts_.profile);
        plan = pass.plan(prog_, loop);
    }
    info.prefetchCandidate = plan.anyCandidate;
    info.scheduledForPrefetch = plan.scheduled;

    // Software pipelining qualification: modulo scheduling needs a
    // single-block body (no calls, no scattered chunks), no memory
    // recurrence (pointer chase), and enough iterations to amortize
    // the prologue.
    bool loop_swp = opts_.softwarePipelining && !loop.body.hasCall &&
                    loop.body.scatterChunks <= 1 &&
                    loop.body.chases.empty() && loop.trip >= 64;
    info.softwarePipelined = false;

    // Per-reference resources.
    struct RefRes
    {
        std::uint8_t cursor = 0;
        std::uint8_t tbase = 0;
        std::uint8_t tmp = 0;
        std::uint8_t idx = 0;
        std::uint8_t valInt = 0;
        std::uint8_t valFp = 0;
        std::uint8_t stage = 0;    ///< SWP staging (int or fp role)
        std::uint8_t pfCursor = 0;
        bool swp = false;
        bool prefetch = false;
        std::int64_t strideBytes = 0;
        Addr cursorInit = 0;
    };

    std::vector<RefRes> res(loop.body.refs.size());

    // Value destinations may be reused (cyclically) when the register
    // file runs dry; the resulting false dependences are what a real
    // register-constrained compiler would also produce.
    std::vector<std::uint8_t> fp_val_pool;
    std::vector<std::uint8_t> int_val_pool;
    std::size_t fp_reuse = 0, int_reuse = 0;
    auto alloc_fp_val = [&]() -> std::uint8_t {
        if (regs.fpAvailable()) {
            fp_val_pool.push_back(regs.allocFp());
            return fp_val_pool.back();
        }
        panic_if(fp_val_pool.empty(), "no FP value registers at all");
        return fp_val_pool[fp_reuse++ % fp_val_pool.size()];
    };
    auto alloc_int_val = [&]() -> std::uint8_t {
        if (regs.intAvailable()) {
            int_val_pool.push_back(regs.allocInt());
            return int_val_pool.back();
        }
        panic_if(int_val_pool.empty(), "no int value registers at all");
        return int_val_pool[int_reuse++ % int_val_pool.size()];
    };

    std::uint8_t acc_int = 0;
    std::uint8_t acc_fp = 1;   // f1
    std::uint8_t filler_fp_a = 2;  // f2
    std::uint8_t filler_fp_b = 0;
    std::uint8_t filler_int_a = 0;
    std::uint8_t filler_int_b = 0;

    bool need_int_acc = !loop.body.chases.empty();
    for (const hir::ArrayRef &ref : loop.body.refs) {
        const hir::ArrayDecl &arr =
            prog_.arrays[static_cast<std::size_t>(ref.array)];
        if (!arr.fp)
            need_int_acc = true;
    }
    if (need_int_acc)
        acc_int = regs.allocInt();
    if (loop.body.extraFpOps > 0)
        filler_fp_b = regs.allocFp();
    if (loop.body.extraIntOps > 0) {
        filler_int_a = regs.allocInt();
        filler_int_b = regs.allocInt();
    }

    for (std::size_t i = 0; i < loop.body.refs.size(); ++i) {
        const hir::ArrayRef &ref = loop.body.refs[i];
        const hir::ArrayDecl &arr =
            prog_.arrays[static_cast<std::size_t>(ref.array)];
        RefRes &rr = res[i];
        rr.cursor = regs.allocInt();

        if (ref.indexArray >= 0 || ref.viaFpConversion) {
            // Indirect / fp-converted: cursor walks the index source.
            const hir::ArrayDecl &idx = prog_.arrays[static_cast<
                std::size_t>(ref.indexArray >= 0 ? ref.indexArray
                                                 : ref.array)];
            rr.cursorInit = addrs_.arrayBase[static_cast<std::size_t>(
                ref.indexArray >= 0 ? ref.indexArray : ref.array)];
            rr.strideBytes = idx.elemBytes;
            rr.tbase = regs.allocInt();
            rr.tmp = regs.allocInt();
            // The index value needs its own register: reusing the value
            // destination would give it two in-body definitions and the
            // runtime slicer (correctly) refuses multi-def chains.
            rr.idx = regs.allocInt();
            if (ref.viaFpConversion)
                rr.valFp = alloc_fp_val();
            if (!ref.isStore) {
                if (arr.fp && ref.indexArray >= 0)
                    rr.valFp = alloc_fp_val();
                else
                    rr.valInt = alloc_int_val();
            }
        } else {
            rr.cursorInit =
                addrs_.arrayBase[static_cast<std::size_t>(ref.array)] +
                static_cast<Addr>(ref.offsetElems) * arr.elemBytes;
            rr.strideBytes = ref.strideElems * arr.elemBytes;
            if (!ref.isStore) {
                if (arr.fp)
                    rr.valFp = alloc_fp_val();
                else
                    rr.valInt = alloc_int_val();
            }
            // Software pipelining needs a staging ("rotating")
            // register per pipelined load; when the file runs out the
            // compiler stops pipelining further refs.  Only FP loads
            // are pipelined: their L1-bypass latency (>= 6 cycles) is
            // what modulo scheduling pays off for, while integer L1
            // hits are single-cycle.
            rr.swp = loop_swp && !ref.isStore && ref.strideElems != 0 &&
                     arr.fp && regs.fpAvailable();
            if (rr.swp) {
                rr.stage = arr.fp ? regs.allocFp() : regs.allocInt();
                info.softwarePipelined = true;
            }
        }

        rr.prefetch =
            plan.scheduled &&
            std::find(plan.refIndices.begin(), plan.refIndices.end(),
                      static_cast<int>(i)) != plan.refIndices.end();
        if (rr.prefetch)
            rr.pfCursor = regs.allocInt();
    }

    struct ChaseRes
    {
        std::uint8_t ptr = 0;
        std::uint8_t tmpPayload = 0;
        std::uint8_t tmpNext = 0;
        std::uint8_t val = 0;
        std::uint8_t deref = 0;
    };
    std::vector<ChaseRes> chase_res(loop.body.chases.size());
    for (std::size_t i = 0; i < loop.body.chases.size(); ++i) {
        chase_res[i].ptr = regs.allocInt();
        chase_res[i].tmpPayload = regs.allocInt();
        chase_res[i].tmpNext = regs.allocInt();
        chase_res[i].val = regs.allocInt();
        if (loop.body.chases[i].derefPayload)
            chase_res[i].deref = regs.allocInt();
    }

    // ---- Preheader -------------------------------------------------
    emit(build::movi(regTripBound, static_cast<std::int64_t>(loop.trip)));
    emit(build::movi(regInduction, 0));

    for (std::size_t i = 0; i < loop.body.refs.size(); ++i) {
        const hir::ArrayRef &ref = loop.body.refs[i];
        RefRes &rr = res[i];
        emit(build::movi(rr.cursor,
                         static_cast<std::int64_t>(rr.cursorInit)));
        if (ref.indexArray >= 0 || ref.viaFpConversion) {
            Addr tbase =
                addrs_.arrayBase[static_cast<std::size_t>(ref.array)] +
                static_cast<Addr>(ref.offsetElems) *
                    prog_.arrays[static_cast<std::size_t>(ref.array)]
                        .elemBytes;
            emit(build::movi(rr.tbase, static_cast<std::int64_t>(tbase)));
        }
        if (rr.prefetch) {
            emit(build::movi(
                rr.pfCursor,
                static_cast<std::int64_t>(rr.cursorInit) +
                    static_cast<std::int64_t>(plan.distanceIters) *
                        rr.strideBytes));
        }
    }
    for (std::size_t i = 0; i < loop.body.chases.size(); ++i) {
        const hir::PtrChaseRef &chase = loop.body.chases[i];
        emit(build::movi(
            chase_res[i].ptr,
            static_cast<std::int64_t>(addrs_.listHead[static_cast<
                std::size_t>(chase.list)])));
    }

    // SWP prologue loads.
    for (std::size_t i = 0; i < loop.body.refs.size(); ++i) {
        const RefRes &rr = res[i];
        if (!rr.swp)
            continue;
        const hir::ArrayDecl &arr = prog_.arrays[static_cast<std::size_t>(
            loop.body.refs[i].array)];
        if (arr.fp)
            emit(build::ldf(static_cast<std::uint8_t>(arr.elemBytes),
                            rr.stage, rr.cursor,
                            static_cast<std::int32_t>(rr.strideBytes)));
        else
            emit(build::ld(static_cast<std::uint8_t>(arr.elemBytes),
                           rr.stage, rr.cursor,
                           static_cast<std::int32_t>(rr.strideBytes)));
    }

    // ---- Loop head -------------------------------------------------
    flushPending();
    CodeBuffer::LabelId head = buf_.newLabel();
    buf_.bind(head);
    loopHeadLabels_[loop.id] = head;
    std::size_t bundles_at_head = buf_.size();

    // ---- Body: build the instruction groups ------------------------
    std::vector<Insn> loads;
    std::vector<Insn> uses;
    std::vector<Insn> swp_next_loads;

    for (std::size_t i = 0; i < loop.body.refs.size(); ++i) {
        const hir::ArrayRef &ref = loop.body.refs[i];
        const hir::ArrayDecl &arr =
            prog_.arrays[static_cast<std::size_t>(ref.array)];
        const RefRes &rr = res[i];
        auto esz = static_cast<std::uint8_t>(arr.elemBytes);
        auto stride32 = static_cast<std::int32_t>(rr.strideBytes);

        if (rr.prefetch) {
            Insn pf = build::lfetch(rr.pfCursor, stride32);
            if (arr.fp)
                pf.count = 1;  // .nt1: FP data bypasses L1D
            loads.push_back(pf);
        }

        if (ref.viaFpConversion) {
            // ldf fidx = [cursor], 8 ; getf tmp = fidx ;
            // shladd tmp = tmp, k, tbase ; ld val = [tmp]
            panic_if(ref.indexArray < 0,
                     "viaFpConversion requires an FpIndex indexArray");
            const hir::ArrayDecl &idx = prog_.arrays[static_cast<
                std::size_t>(ref.indexArray)];
            loads.push_back(build::ldf(
                static_cast<std::uint8_t>(idx.elemBytes), rr.valFp,
                rr.cursor, static_cast<std::int32_t>(idx.elemBytes)));
            loads.push_back(build::getf(rr.idx, rr.valFp));
            loads.push_back(build::shladd(rr.tmp, rr.idx,
                                          log2u(arr.elemBytes), rr.tbase));
            loads.push_back(build::ld(esz, rr.valInt, rr.tmp));
            uses.push_back(build::add(acc_int, acc_int, rr.valInt));
            continue;
        }

        if (ref.indexArray >= 0) {
            // Fig. 5B: ld idx = [cursor], 8 ; shladd t = idx, k, tbase ;
            //          ld/ldf val = [t]
            const hir::ArrayDecl &idx = prog_.arrays[static_cast<
                std::size_t>(ref.indexArray)];
            loads.push_back(build::ld(
                static_cast<std::uint8_t>(idx.elemBytes), rr.idx,
                rr.cursor, static_cast<std::int32_t>(idx.elemBytes)));
            loads.push_back(build::shladd(rr.tmp, rr.idx,
                                          log2u(arr.elemBytes), rr.tbase));
            if (ref.isStore) {
                loads.push_back(build::st(esz, rr.tmp, acc_int));
            } else if (arr.fp) {
                loads.push_back(build::ldf(esz, rr.valFp, rr.tmp));
                uses.push_back(
                    build::fma(acc_fp, rr.valFp, fpConst, acc_fp));
            } else {
                loads.push_back(build::ld(esz, rr.valInt, rr.tmp));
                uses.push_back(build::add(acc_int, acc_int, rr.valInt));
            }
            continue;
        }

        // Direct reference (Fig. 5A), cursor walks via post-increment.
        if (ref.isStore) {
            if (arr.fp)
                uses.push_back(build::stf(esz, rr.cursor, acc_fp,
                                          stride32));
            else
                uses.push_back(build::st(esz, rr.cursor, acc_int,
                                         stride32));
            continue;
        }

        if (rr.swp) {
            // Use last iteration's staged value; load the next one.
            if (arr.fp) {
                uses.push_back(
                    build::fma(acc_fp, rr.stage, fpConst, acc_fp));
                swp_next_loads.push_back(
                    build::ldf(esz, rr.stage, rr.cursor, stride32));
            } else {
                uses.push_back(build::add(acc_int, acc_int, rr.stage));
                swp_next_loads.push_back(
                    build::ld(esz, rr.stage, rr.cursor, stride32));
            }
        } else {
            if (arr.fp) {
                loads.push_back(
                    build::ldf(esz, rr.valFp, rr.cursor, stride32));
                uses.push_back(
                    build::fma(acc_fp, rr.valFp, fpConst, acc_fp));
            } else {
                loads.push_back(
                    build::ld(esz, rr.valInt, rr.cursor, stride32));
                uses.push_back(build::add(acc_int, acc_int, rr.valInt));
            }
        }
    }

    // Pointer chases (Fig. 5C): inherently serial.
    for (std::size_t i = 0; i < loop.body.chases.size(); ++i) {
        const hir::PtrChaseRef &chase = loop.body.chases[i];
        const hir::ListDecl &list =
            prog_.lists[static_cast<std::size_t>(chase.list)];
        const ChaseRes &cr = chase_res[i];
        loads.push_back(build::addi(
            cr.tmpPayload, static_cast<std::int64_t>(chase.payloadOffset),
            cr.ptr));
        loads.push_back(build::ld(8, cr.val, cr.tmpPayload));
        loads.push_back(build::addi(
            cr.tmpNext, static_cast<std::int64_t>(list.nextOffset),
            cr.ptr));
        loads.push_back(build::ld(8, cr.ptr, cr.tmpNext));
        if (chase.derefPayload) {
            // mcf's arc->tail->field: dereference the loaded pointer.
            loads.push_back(build::ld(8, cr.deref, cr.val));
            uses.push_back(build::add(acc_int, acc_int, cr.deref));
        } else {
            uses.push_back(build::add(acc_int, acc_int, cr.val));
        }
    }

    // Compute filler.
    for (int k = 0; k < loop.body.extraFpOps; ++k) {
        std::uint8_t target = (k % 2) ? filler_fp_b : filler_fp_a;
        uses.push_back(build::fma(target, target, fpConst, fpConst));
    }
    for (int k = 0; k < loop.body.extraIntOps; ++k) {
        std::uint8_t target = (k % 2) ? filler_int_b : filler_int_a;
        uses.push_back(build::add(target, target, regInduction));
    }

    if (loop.body.hasCall) {
        helperNeeded_ = true;
        if (helperLabel_ < 0)
            helperLabel_ = buf_.newLabel();
    }

    // ---- Body emission (optionally scattered into chunks) ----------
    std::vector<Insn> body;
    body.insert(body.end(), loads.begin(), loads.end());
    body.insert(body.end(), uses.begin(), uses.end());
    body.insert(body.end(), swp_next_loads.begin(), swp_next_loads.end());

    int chunks = std::max(1, loop.body.scatterChunks);
    std::size_t per_chunk = (body.size() + chunks - 1) /
                            static_cast<std::size_t>(chunks);
    std::size_t pads_inserted = 0;

    for (int c = 0; c < chunks; ++c) {
        std::size_t lo = static_cast<std::size_t>(c) * per_chunk;
        std::size_t hi = std::min(body.size(), lo + per_chunk);
        for (std::size_t k = lo; k < hi; ++k)
            emit(body[k]);

        if (c + 1 < chunks) {
            CodeBuffer::LabelId next = buf_.newLabel();
            emitBranchTo(build::brAlways(0), next);
            // Cold padding between the scattered hot chunks.
            for (int p = 0; p < loop.body.scatterPadBundles; ++p) {
                Bundle pad;
                pad.padWithNops();
                buf_.append(pad);
                ++pads_inserted;
            }
            buf_.bind(next);
        }
    }

    // The call sits at the end of the body, before the induction update.
    if (loop.body.hasCall)
        emitBranchTo(build::brCall(1, 0), helperLabel_);

    // Induction update and backedge.
    emit(build::addi(regInduction, 1, regInduction));
    emit(build::cmp(Opcode::CmpLt, predLoop, regInduction, regTripBound));
    Insn backedge = build::br(predLoop, 0);
    emitBranchTo(backedge, head);

    info.bodyBundles = static_cast<int>(buf_.size() - bundles_at_head -
                                        pads_inserted);
    info.prefetchesInserted = static_cast<int>(plan.refIndices.size());

    report_.loops.push_back(info);
    if (info.scheduledForPrefetch)
        ++report_.loopsScheduledForPrefetch;
    report_.prefetchesInserted += info.prefetchesInserted;
    currentLoopId_ = -1;
}

void
CodeGen::emitPhase(const hir::Phase &phase)
{
    bool outer = phase.repeat > 1;
    CodeBuffer::LabelId outer_top = -1;

    if (outer) {
        emit(build::movi(regOuterCount,
                         static_cast<std::int64_t>(phase.repeat)));
        flushPending();
        outer_top = buf_.newLabel();
        buf_.bind(outer_top);
    }

    for (int loop_id : phase.loops)
        emitLoop(prog_.loops[static_cast<std::size_t>(loop_id)]);

    if (outer) {
        emit(build::addi(regOuterCount, -1, regOuterCount));
        emit(build::cmp(Opcode::CmpNe, predOuter, regOuterCount, 0));
        emitBranchTo(build::br(predOuter, 0), outer_top);
    }
}

CompileReport
CodeGen::generate(CodeImage &code, DataLayout &data)
{
    layoutData(data);

    // Program prologue: materialize the FP constant (1.0) in f3.
    emit(build::movi(regHelperScratch, 1));
    emit(build::setf(fpConst, regHelperScratch));

    for (const hir::Phase &phase : prog_.sequence)
        emitPhase(phase);

    emit(build::halt());
    flushPending();

    if (helperNeeded_) {
        buf_.bind(helperLabel_);
        Bundle helper;
        helper.add(build::addi(regHelperScratch, 1, regHelperScratch));
        helper.add(build::brRet(1));
        buf_.append(helper);
    }

    Addr base = buf_.commitToText(code);
    report_.entry = base;
    report_.textBytes = code.textBytes();

    // Resolve loop head addresses now that the base is known.
    for (LoopCompileInfo &info : report_.loops) {
        auto it = loopHeadLabels_.find(info.loopId);
        if (it != loopHeadLabels_.end())
            info.headAddr = buf_.labelAddr(it->second, base);
    }
    return report_;
}

} // namespace adore
