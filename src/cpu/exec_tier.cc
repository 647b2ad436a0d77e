/**
 * @file
 * Superblock builder and direct-threaded executor (DESIGN.md §12).
 *
 * The executor is a single Cpu member function holding one handler per
 * UopKind.  With the GNU labels-as-values extension each handler is a
 * local label whose address is pre-bound into the uops at build time,
 * so dispatch is one indirect goto per micro-op; elsewhere the same
 * handler bodies compile as a switch loop.  The handler bodies are
 * written to mirror Cpu::execInsn / execBranch / step() statement for
 * statement — ordering of memory-model calls, DEAR/BTB reporting,
 * predictor updates, and cycle charges is load-bearing for the
 * bit-identity contract (tests/test_toggle_sweep.cc).
 *
 * Exit discipline: the executor leaves the block whenever the event
 * watermark fires (after servicing it exactly as step() does).  All
 * runtime code-image mutations happen inside periodic hooks, so a
 * block's uops can never go stale mid-flight; the span generations are
 * still revalidated on every inline back-edge as cheap insurance.
 *
 * Chaining safety rests on the same discipline: region generations can
 * only change inside a hook, a hook only runs at an event service, and
 * an event service forces an exit before any chain attempt — so at a
 * chain seam the *current* block is provably still valid, and only the
 * *target* needs revalidating (two region-counter loads) before the
 * jump.  Stale targets are dropped and unlinked on the spot.
 */

#include <vector>

#include "cpu/cpu.hh"
#include "cpu/exec_tier.hh"
#include "support/logging.hh"

#if defined(__GNUC__)
#define ADORE_SB_THREADED 1
#define ADORE_FLATTEN __attribute__((flatten))
#else
#define ADORE_SB_THREADED 0
#define ADORE_FLATTEN
#endif

namespace adore
{

namespace
{

/** Two's-complement wrapping helpers, as in execInsn. */
inline std::uint64_t
uw(std::int64_t v)
{
    return static_cast<std::uint64_t>(v);
}

inline std::int64_t
wrap(std::uint64_t v)
{
    return static_cast<std::int64_t>(v);
}

/** Fused loop-tail kind for a compare feeding the back-edge branch. */
UopKind
cmpBrLastKindFor(Opcode op)
{
    switch (op) {
      case Opcode::CmpLt: return UopKind::CmpLtBrLast;
      case Opcode::CmpLe: return UopKind::CmpLeBrLast;
      case Opcode::CmpEq: return UopKind::CmpEqBrLast;
      case Opcode::CmpNe: return UopKind::CmpNeBrLast;
      default: break;
    }
    panic("cmpBrLastKindFor: not a compare (%d)", static_cast<int>(op));
}

bool
isCmp(Opcode op)
{
    return op == Opcode::CmpLt || op == Opcode::CmpLe ||
           op == Opcode::CmpEq || op == Opcode::CmpNe;
}

/**
 * Build-time peephole: can the adjacent same-bundle pair (a, b) run as
 * one combined handler?  Every pair kind's handler is the exact
 * concatenation of the two plain handlers; the one pair hot enough to
 * pay for a handler is a compare feeding a side-exit branch.  (Fusing
 * address generation into loads measured as a net host loss.)
 */
bool
fusePair(const Uop &a, const Uop &b, UopKind &fused)
{
    if (b.kind != UopKind::Br)
        return false;
    switch (a.kind) {
      case UopKind::CmpLt: fused = UopKind::CmpLtBr; return true;
      case UopKind::CmpLe: fused = UopKind::CmpLeBr; return true;
      case UopKind::CmpEq: fused = UopKind::CmpEqBr; return true;
      case UopKind::CmpNe: fused = UopKind::CmpNeBr; return true;
      default: return false;
    }
}

UopKind
uopKindFor(Opcode op)
{
    switch (op) {
      case Opcode::Nop: return UopKind::Nop;
      case Opcode::Add: return UopKind::Add;
      case Opcode::Sub: return UopKind::Sub;
      case Opcode::Addi: return UopKind::Addi;
      case Opcode::Shladd: return UopKind::Shladd;
      case Opcode::Mov: return UopKind::Mov;
      case Opcode::Movi: return UopKind::Movi;
      case Opcode::And: return UopKind::And;
      case Opcode::Or: return UopKind::Or;
      case Opcode::Xor: return UopKind::Xor;
      case Opcode::Shl: return UopKind::Shl;
      case Opcode::Shr: return UopKind::Shr;
      case Opcode::CmpLt: return UopKind::CmpLt;
      case Opcode::CmpLe: return UopKind::CmpLe;
      case Opcode::CmpEq: return UopKind::CmpEq;
      case Opcode::CmpNe: return UopKind::CmpNe;
      case Opcode::Ld: return UopKind::Ld;
      case Opcode::LdS: return UopKind::Ld;  // identical execution
      case Opcode::St: return UopKind::St;
      case Opcode::Ldf: return UopKind::Ldf;
      case Opcode::Stf: return UopKind::Stf;
      case Opcode::Lfetch: return UopKind::Lfetch;
      case Opcode::Getf: return UopKind::Getf;
      case Opcode::Setf: return UopKind::Setf;
      case Opcode::Fma: return UopKind::Fma;
      case Opcode::Fadd: return UopKind::Fadd;
      case Opcode::Fmul: return UopKind::Fmul;
      case Opcode::Fsub: return UopKind::Fsub;
      case Opcode::Br: return UopKind::Br;
      case Opcode::BrCall: return UopKind::BrCall;
      case Opcode::BrRet: return UopKind::BrRet;
      case Opcode::Halt: return UopKind::Halt;
    }
    panic("uopKindFor: unknown opcode %d", static_cast<int>(op));
}

} // namespace

void
Cpu::buildSuperblockAt(Addr head)
{
    if (superblocks_->probe(head, code_))
        return;

    // Region selection: extend along the fall-through path.  A
    // conditional Br is a side exit and the region continues past it; a
    // back-edge Br to the head closes the loop form; BrCall, BrRet, and
    // Halt end the region (no static fall-through worth stitching).
    struct BodyBundle
    {
        const Bundle *bundle;
        Addr addr;
    };
    std::vector<BodyBundle> body;
    bool loop_back = false;
    Addr addr = head;
    while (body.size() < kSuperblockMaxBundles) {
        const Bundle *bundle = code_.fetchFast(addr);
        if (!bundle)
            break;
        body.push_back({bundle, addr});
        int bslot = bundle->branchSlot();
        if (bslot >= 0) {
            const Insn &bi = bundle->slot(bslot);
            if (bi.op != Opcode::Br)
                break;
            if (bi.target == head) {
                loop_back = true;
                break;
            }
        }
        addr += isa::bundleBytes;
    }
    if (body.empty())
        return;

    auto sb = std::make_unique<Superblock>();
    sb->head = head;
    sb->spanEnd = body.back().addr;
    sb->genSum = code_.spanGeneration(head, sb->spanEnd);
    sb->loopBack = loop_back;
    sb->bundles = static_cast<std::uint32_t>(body.size());
    sb->uops.reserve(body.size() * (Bundle::numSlots + 2));

    const void *const *labels = execSuperblock(nullptr, 0);
    auto bind = [labels](Uop &uop) {
        if (labels)
            uop.handler = labels[static_cast<std::size_t>(uop.kind)];
    };

    std::vector<Uop> tmp;  // one bundle's instruction uops, pre-merge
    for (std::size_t i = 0; i < body.size(); ++i) {
        const Bundle &bundle = *body[i].bundle;
        Addr baddr = body[i].addr;
        bool last = i + 1 == body.size();
        int n = bundle.size();

        // Loop-tail fusion (host cost only; semantics are the exact
        // concatenation of the unfused handlers).  A final-slot Br in
        // the region's last bundle absorbs BundleEndLast (BrLast); a
        // compare immediately feeding it is absorbed too (Cmp**BrLast).
        // A bundle containing Halt is never fused: halt jumps to the
        // bundle's epilogue uop, which must then exist on its own.
        bool has_halt = false;
        for (int slot = 0; slot < n; ++slot)
            if (bundle.slot(slot).op == Opcode::Halt)
                has_halt = true;
        bool fuse_br = last && !has_halt && n >= 1 &&
                       bundle.slot(n - 1).op == Opcode::Br;
        bool fuse_cmp = fuse_br && n >= 2 && isCmp(bundle.slot(n - 2).op);

        // Emit this bundle's plain instruction uops into tmp, then
        // peephole-merge adjacent pairs (same bundle by construction).
        int plain_slots = n - (fuse_cmp ? 2 : fuse_br ? 1 : 0);
        tmp.clear();
        for (int slot = 0; slot < plain_slots; ++slot) {
            Uop uop;
            uop.kind = uopKindFor(bundle.slot(slot).op);
            uop.insn = bundle.slot(slot);
            uop.insnPc = isa::insnAddr(baddr, slot);
            uop.bundleAddr = baddr;
            tmp.push_back(uop);
        }
        if (tmp.size() >= 2) {
            std::size_t w = 0;
            for (std::size_t rd = 0; rd < tmp.size(); ++rd) {
                UopKind fused;
                if (rd + 1 < tmp.size() &&
                    fusePair(tmp[rd], tmp[rd + 1], fused)) {
                    Uop pair = tmp[rd];
                    pair.kind = fused;
                    pair.insn2 = tmp[rd + 1].insn;
                    pair.insnPc2 = tmp[rd + 1].insnPc;
                    tmp[w++] = pair;
                    ++rd;
                    ++superblocks_->stats().fusedPairs;
                } else {
                    tmp[w++] = tmp[rd];
                }
            }
            tmp.resize(w);
        }
        if (fuse_cmp)
            ++superblocks_->stats().fusedPairs;

        // Index of this bundle's epilogue uop (BundleEnd* or the seam
        // into the next bundle): taken branches and halt jump straight
        // there, skipping the trailing slots exactly like the
        // interpreter's per-slot break.  With a fused branch the final
        // uop carries its own epilogue and the index is never consumed.
        // Computed after the merge pass, which changes the uop count.
        std::uint32_t end_idx = static_cast<std::uint32_t>(
            sb->uops.size() + (i == 0 ? 1 : 0) + tmp.size());

        if (i == 0) {
            Uop start;
            start.kind = UopKind::BundleStart;
            start.bundleAddr = baddr;
            start.fetchLine = baddr & ifetchLineMask_;
            start.endIdx = end_idx;
            bind(start);
            sb->uops.push_back(start);
        }

        for (Uop &uop : tmp) {
            uop.endIdx = end_idx;
            bind(uop);
            sb->uops.push_back(uop);
        }

        if (fuse_cmp) {
            Uop uop;
            uop.kind = cmpBrLastKindFor(bundle.slot(n - 2).op);
            uop.insn = bundle.slot(n - 2);
            uop.insnPc = isa::insnAddr(baddr, n - 2);
            uop.insn2 = bundle.slot(n - 1);
            uop.insnPc2 = isa::insnAddr(baddr, n - 1);
            uop.bundleAddr = baddr;
            uop.endIdx = end_idx;
            bind(uop);
            sb->uops.push_back(uop);
        } else if (fuse_br) {
            Uop uop;
            uop.kind = UopKind::BrLast;
            uop.insn = bundle.slot(n - 1);
            uop.insnPc = isa::insnAddr(baddr, n - 1);
            uop.bundleAddr = baddr;
            uop.endIdx = end_idx;
            bind(uop);
            sb->uops.push_back(uop);
        } else if (last) {
            Uop end;
            end.kind = UopKind::BundleEndLast;
            end.bundleAddr = baddr;
            end.endIdx = end_idx;
            bind(end);
            sb->uops.push_back(end);
        } else {
            // Interior boundary: one seam uop carries this bundle's
            // epilogue and the next bundle's prologue.
            Addr next_addr = body[i + 1].addr;
            Uop seam;
            seam.kind = UopKind::BundleSeam;
            seam.bundleAddr = baddr;
            seam.bundleAddr2 = next_addr;
            seam.fetchLine = next_addr & ifetchLineMask_;
            seam.endIdx = end_idx;
            bind(seam);
            sb->uops.push_back(seam);
        }
    }

    superblocks_->insert(std::move(sb));
}

/*
 * Dispatch scaffolding.  In threaded builds SB_CASE expands to a local
 * label and SB_NEXT to an indirect goto through the next uop's
 * pre-bound handler; in the portable fallback the same bodies sit in a
 * switch re-entered via `goto dispatch`.  Every handler ends with
 * SB_NEXT / SB_GOTO / return, so control never falls through from one
 * case into the next.
 */
#if ADORE_SB_THREADED
#define SB_CASE(k) L_##k:
#define SB_NEXT()                                                       \
    do {                                                                \
        ++u;                                                            \
        goto *u->handler;                                               \
    } while (0)
#define SB_GOTO(idx)                                                    \
    do {                                                                \
        u = base + (idx);                                               \
        goto *u->handler;                                               \
    } while (0)
#define SB_LOOP_TOP()                                                   \
    do {                                                                \
        u = base;                                                       \
        goto *u->handler;                                               \
    } while (0)
#else
#define SB_CASE(k) case UopKind::k:
#define SB_NEXT()                                                       \
    do {                                                                \
        ++u;                                                            \
        goto dispatch;                                                  \
    } while (0)
#define SB_GOTO(idx)                                                    \
    do {                                                                \
        u = base + (idx);                                               \
        goto dispatch;                                                  \
    } while (0)
#define SB_LOOP_TOP()                                                   \
    do {                                                                \
        u = base;                                                       \
        goto dispatch;                                                  \
    } while (0)
#endif

/*
 * Register-cached hot state.  The members the interpreter touches on
 * every instruction (cycle_, issuedThisCycle_, the written-this-bundle
 * masks, the retire count, nextPc_) live in locals for the whole
 * superblock run so the compiler can keep them in host registers
 * instead of store/load-forwarding through `this` between handlers —
 * that member traffic, not dispatch, is what bounds the threaded tier.
 * SB_SYNC_OUT publishes the locals to the members (every exit, and
 * before any call that reads them: the event service, and the
 * line-buffer memory helpers which read cycle_); SB_SYNC_IN reloads
 * them afterwards.  counters_.cycles is deliberately NOT in SB_SYNC_OUT:
 * step() assigns it after the event block, and the sampler must see the
 * same (previous-bundle) value in both tiers.  The set is deliberately
 * capped at what fits the host register file — hoisting pc_ /
 * counters_.cycles / the loopTrips RMW as well measured slower (spill
 * traffic beats the member stores they replace).
 */
#define SB_SYNC_OUT()                                                   \
    do {                                                                \
        cycle_ = cyc;                                                   \
        issuedThisCycle_ = issued;                                      \
        counters_.retiredInsns = retired;                               \
        intWrittenMask_ = int_written;                                  \
        fpWrittenMask_ = fp_written;                                    \
        splitIssueCharged_ = split_charged;                             \
        branchTaken_ = branch_taken;                                    \
        nextPc_ = next_pc;                                              \
        lastIfetchLine_ = last_ifetch_line;                             \
        lastIfetchReadyAt_ = last_ifetch_ready;                         \
    } while (0)

#define SB_SYNC_IN()                                                    \
    do {                                                                \
        cyc = cycle_;                                                   \
        issued = issuedThisCycle_;                                      \
        retired = counters_.retiredInsns;                               \
        int_written = intWrittenMask_;                                  \
        fp_written = fpWrittenMask_;                                    \
        split_charged = splitIssueCharged_;                             \
        branch_taken = branchTaken_;                                    \
        next_pc = nextPc_;                                              \
        last_ifetch_line = lastIfetchLine_;                             \
        last_ifetch_ready = lastIfetchReadyAt_;                         \
        next_event = nextEventAt_;                                      \
    } while (0)

/** Bundle epilogue, mirroring the tail of step(): split-issue charge,
 *  issue accounting, pc publication, then the event watermark (pc_
 *  already points at the next bundle when events fire, and the sample
 *  pc is the just-executed bundle — both exactly as in step()).  The
 *  executor leaves the block after any event service: hooks are the
 *  only place runtime code mutation happens. */
#define SB_BUNDLE_EPILOGUE()                                            \
    if (split_charged) {                                                \
        cyc += 1;                                                       \
        issued = 0;                                                     \
    }                                                                   \
    ++issued;                                                           \
    pc_ = next_pc;                                                      \
    if (cyc >= next_event) {                                            \
        SB_SYNC_OUT();                                                  \
        syncDeferredMemStats();                                         \
        maybeSample(u->bundleAddr);                                     \
        runHooks();                                                     \
        recomputeNextEvent();                                           \
        SB_SYNC_IN();                                                   \
        event_exit = true;                                              \
    }                                                                   \
    counters_.cycles = cyc

/** Non-memory, non-branch instruction: predicated-off still retires
 *  but has no architectural or timing effect (as in execInsn). */
#define SB_ALU_CASE(k, body)                                            \
    SB_CASE(k)                                                          \
    {                                                                   \
        const Insn &insn = u->insn;                                     \
        if (p_[insn.qp]) {                                              \
            sbWaitForSources(insn);                                     \
            body;                                                       \
        }                                                               \
        ++retired;                                                      \
        SB_NEXT();                                                      \
    }

/** Post-increment addressing, mirroring execInsn: applied after the
 *  destination writeback, so a load into its own address register
 *  post-increments the loaded value. */
#define SB_POSTINC()                                                    \
    if (insn.postinc)                                                   \
        sbWriteIntReg(insn.rs1,                                         \
                      wrap(uw(r_[insn.rs1]) +                           \
                           static_cast<std::uint64_t>(insn.postinc)),   \
                      cyc)

/** Branch retire + redirect: a taken branch (or halt) jumps to the
 *  bundle's end uop — the interpreter's per-slot break. */
#define SB_BRANCH_TAIL()                                                \
    do {                                                                \
        ++retired;                                                      \
        if (branch_taken)                                               \
            SB_GOTO(u->endIdx);                                         \
        SB_NEXT();                                                      \
    } while (0)

/** Bundle prologue, mirroring the head of step(): instruction fetch
 *  through the L1I (including the PR 1 repeat-hit fast path; the line
 *  is precomputed per uop), the issue-width limit, and the per-bundle
 *  mask/flag reset. */
#define SB_BUNDLE_PROLOGUE(baddr, bline)                                \
    do {                                                                \
        if (mem_fast && (bline) == last_ifetch_line &&                  \
            cyc >= last_ifetch_ready) {                                 \
            caches_.noteIfetchRepeatHit();                              \
        } else {                                                        \
            std::uint32_t fetch_stall = caches_.ifetch((baddr), cyc);   \
            last_ifetch_line = (bline);                                 \
            last_ifetch_ready = cyc + fetch_stall;                      \
            if (fetch_stall) {                                          \
                cyc += fetch_stall;                                     \
                issued = 0;                                             \
            }                                                           \
        }                                                               \
        if (issued >= bundles_per_cycle) {                              \
            cyc += 1;                                                   \
            issued = 0;                                                 \
        }                                                               \
        next_pc = (baddr) + isa::bundleBytes;                           \
        int_written = 0;                                                \
        fp_written = 0;                                                 \
        split_charged = false;                                          \
        branch_taken = false;                                           \
    } while (0)

/** Chain seam: the block is done but execution continues at next_pc —
 *  if a valid block is cached there, jump straight to its uops without
 *  returning to the run() loop, keeping the hoisted locals and the
 *  pending-ready watermark live.  Falls through to a plain exit when
 *  an exit is forced (halt/event/budget) or no valid target exists.
 *  Safe because generations cannot have changed since this block's
 *  dispatch (mutations force an event exit first), so only the
 *  *target* needs revalidating — sbChainTarget does that. */
#define SB_TRY_CHAIN()                                                  \
    do {                                                                \
        if (!halted_ && !event_exit && cyc < max_cycles) {              \
            Superblock *nb = sbChainTarget(next_pc);                    \
            if (nb) {                                                   \
                cur = nb;                                               \
                base = nb->uops.data();                                 \
                sb_head = nb->head;                                     \
                SB_GOTO(0);                                             \
            }                                                           \
        }                                                               \
        SB_SYNC_OUT();                                                  \
        return nullptr;                                                 \
    } while (0)

/** Final-bundle epilogue + inline back-edge: the loop-form block
 *  restarts at uop[0] when its branch redirected to the head and
 *  nothing (halt, event service, cycle budget) demands an exit.  No
 *  generation recheck is needed on the back-edge: image mutation only
 *  happens inside hooks, hooks only run at event service, and event
 *  service sets event_exit — so reaching the loop-back with
 *  event_exit == false proves the span is exactly as validated at
 *  dispatch (lookup / sbChainTarget).  Any other continuation is a
 *  chain candidate. */
#define SB_LAST_TAIL()                                                  \
    do {                                                                \
        bool event_exit = false;                                        \
        SB_BUNDLE_EPILOGUE();                                           \
        if (!halted_ && !event_exit && branch_taken &&                  \
            next_pc == sb_head && cyc < max_cycles) {                   \
            ++superblocks_->stats().loopTrips;                          \
            SB_LOOP_TOP();                                              \
        }                                                               \
        SB_TRY_CHAIN();                                                 \
    } while (0)

/** The plain-Br body of execBranch: direction prediction, penalty /
 *  bubble charges, BTB recording, redirect.  Shared by the Br handler
 *  and the fused BrLast / Cmp**BrLast tails. */
#define SB_BR_CORE(brinsn, brpc)                                        \
    do {                                                                \
        Addr fallthrough = u->bundleAddr + isa::bundleBytes;            \
        bool taken = p_[(brinsn).qp];                                   \
        Addr target = (brinsn).target;                                  \
        bool predicted_taken = predictor_.predict(brpc);                \
        bool mispredicted = predicted_taken != taken;                   \
        predictor_.update((brpc), taken);                               \
        if (mispredicted) {                                             \
            cyc += config_.mispredictPenalty;                           \
            issued = 0;                                                 \
            ++counters_.mispredicts;                                    \
        } else if (taken) {                                             \
            cyc += config_.takenBranchBubble;                           \
            issued = 0;                                                 \
        }                                                               \
        btb_.record((brpc), taken ? target : fallthrough, taken,        \
                    mispredicted);                                      \
        if (taken) {                                                    \
            ++counters_.takenBranches;                                  \
            branch_taken = true;                                        \
            next_pc = target;                                           \
        }                                                               \
    } while (0)

/*
 * Instruction bodies of the Ld, Addi and Shladd handlers: each is the
 * full execInsn-mirroring body (predication, source waits, writeback,
 * retire) of the instruction it is given.
 */
#define SB_LD_BODY(ldinsn, ldpc)                                        \
    do {                                                                \
        const Insn &insn = (ldinsn);                                    \
        if (p_[insn.qp]) {                                              \
            sbWaitForSources(insn);                                     \
            Addr ea = static_cast<Addr>(r_[insn.rs1]);                  \
            cycle_ = cyc; /* loadInt reads cycle_ */                    \
            MemAccessResult res = loadInt(ea, (ldpc));                  \
            std::uint64_t raw = memory_.read(ea, insn.size);            \
            /* Deliberate divergence from execInsn: no pointer-chase    \
             * host lookahead (see the Ld handler note below). */       \
            if (hwpfValueObserve_ && insn.size == 8)                    \
                caches_.observeLoadedValue((ldpc), ea, raw,             \
                                           res.latency, cyc);           \
            sbWriteIntReg(insn.rd, static_cast<std::int64_t>(raw),      \
                          cyc + res.latency);                           \
            SB_POSTINC();                                               \
            dear_.observeLoad((ldpc), ea, res.latency, cyc);            \
            if (res.latency >= config_.dearLatencyThreshold)            \
                ++counters_.dcacheLoadMisses;                           \
        }                                                               \
        ++retired;                                                      \
    } while (0)

#define SB_ADDI_BODY(aiinsn)                                            \
    do {                                                                \
        const Insn &insn = (aiinsn);                                    \
        if (p_[insn.qp]) {                                              \
            sbWaitForSources(insn);                                     \
            sbWriteIntReg(insn.rd,                                      \
                          wrap(static_cast<std::uint64_t>(insn.imm) +   \
                               uw(r_[insn.rs1])),                       \
                          cyc);                                         \
        }                                                               \
        ++retired;                                                      \
    } while (0)

#define SB_SHLADD_BODY(sainsn)                                          \
    do {                                                                \
        const Insn &insn = (sainsn);                                    \
        if (p_[insn.qp]) {                                              \
            sbWaitForSources(insn);                                     \
            sbWriteIntReg(insn.rd,                                      \
                          wrap((uw(r_[insn.rs1]) << insn.count) +       \
                               uw(r_[insn.rs2])),                       \
                          cyc);                                         \
        }                                                               \
        ++retired;                                                      \
    } while (0)

/** The fused `cmp ; br` pair at an interior side exit: the compare
 *  body, then the branch reading the just-written predicate, then the
 *  normal branch tail (taken -> bundle epilogue via endIdx). */
#define SB_CMP_BR_CASE(k, cmp_expr)                                     \
    SB_CASE(k)                                                          \
    {                                                                   \
        const Insn &insn = u->insn;                                     \
        if (p_[insn.qp]) {                                              \
            sbWaitForSources(insn);                                     \
            bool res = (cmp_expr);                                      \
            if (insn.pd != 0)                                           \
                p_[insn.pd] = res;                                      \
        }                                                               \
        ++retired;                                                      \
        SB_BR_CORE(u->insn2, u->insnPc2);                               \
        SB_BRANCH_TAIL();                                               \
    }

ADORE_FLATTEN const void *const *
Cpu::execSuperblock(Superblock *sb, Cycle max_cycles)
{
#if ADORE_SB_THREADED
    static const void *const labels[] = {
#define ADORE_SB_LABEL_ENTRY(k) &&L_##k,
        ADORE_SB_UOP_KINDS(ADORE_SB_LABEL_ENTRY)
#undef ADORE_SB_LABEL_ENTRY
    };
    static_assert(sizeof(labels) / sizeof(labels[0]) == numUopKinds,
                  "label table out of sync with UopKind");
    if (!sb)
        return labels;
#else
    if (!sb)
        return nullptr;
#endif

    // Block-identity state, mutable because chaining retargets it:
    // `cur` is the block whose uops are executing (run() counts the
    // dispatch; chained entries count under stats().chained).
    Superblock *cur = sb;
    const Uop *base = cur->uops.data();
    const Uop *u = base;
    Addr sb_head = cur->head;

    // Hot member state hoisted into locals (see the SB_SYNC_OUT comment).
    Cycle cyc;
    int issued;
    std::uint64_t retired;
    std::uint32_t int_written;
    std::uint16_t fp_written;
    bool split_charged;
    bool branch_taken;
    Addr next_pc;
    Addr last_ifetch_line;
    Cycle last_ifetch_ready;
    Cycle next_event;
    SB_SYNC_IN();
    const bool mem_fast = memFastPath_;
    const int bundles_per_cycle = config_.bundlesPerCycle;

    /*
     * Pending-ready watermark: the highest ready-time any register can
     * hold.  rReady_/fReady_ entries are only ever written with the
     * then-current cycle (ALU results) or current cycle + latency
     * (loads, FP); the cycle is monotonic, so once cyc reaches the
     * watermark no source operand can stall and sbWaitForSources
     * collapses to the split-issue mask test — zero scoreboard loads.
     * A pure ALU loop rides that fast path permanently.  Seeded from a
     * full scoreboard scan once per block dispatch; bumped by every
     * latency-carrying writeback.
     */
    Cycle pending_max = 0;
    for (Cycle t : rReady_)
        pending_max = std::max(pending_max, t);
    for (Cycle t : fReady_)
        pending_max = std::max(pending_max, t);

    /*
     * Local mirrors of Cpu::waitUntil / waitForSources / writeIntReg /
     * writeFpReg operating on the hoisted state.  Statement-for-statement
     * copies of the cpu.hh originals — any change there must land here
     * too (the tier-toggle bit-identity suite is the tripwire).
     */
    auto sbWaitUntil = [&](Cycle ready_at) {
        if (ready_at > cyc) {
            cyc = ready_at;
            issued = 0;
        }
    };
    auto sbWaitForSources = [&](const Insn &insn) {
        std::uint32_t im = insn.srcIntMask;
        std::uint32_t fm = insn.srcFpMask;
        // Watermark shortcut, checked first because it subsumes the
        // no-source case: no register is pending past cyc, so the
        // ready-time walk cannot stall and only the split-issue mask
        // test remains (branchless; identical net effect to the full
        // walk below, which also charges only on mask overlap).
        if (cyc >= pending_max) {
            split_charged |= ((int_written & im) | (fp_written & fm)) != 0;
            return;
        }
        if ((im | fm) == 0)
            return;
        if (int_written & im)
            split_charged = true;
        if (fm == 0 && (im & (im - 1)) == 0) {
            sbWaitUntil(
                rReady_[static_cast<unsigned>(std::countr_zero(im))]);
            return;
        }
        Cycle ready = 0;
        while (im) {
            ready = std::max(
                ready, rReady_[static_cast<unsigned>(std::countr_zero(im))]);
            im &= im - 1;
        }
        if (fp_written & fm)
            split_charged = true;
        while (fm) {
            ready = std::max(
                ready, fReady_[static_cast<unsigned>(std::countr_zero(fm))]);
            fm &= fm - 1;
        }
        sbWaitUntil(ready);
    };
    auto sbWriteIntReg = [&](std::uint8_t rd, std::int64_t v, Cycle ready) {
        if (rd == 0)
            return;
        r_[rd] = v;
        rReady_[rd] = ready;
        // Only a ready time still in the future can ever stall a later
        // read (cyc is monotonic), so same-cycle writebacks — every ALU
        // op passes `cyc` here — skip the watermark bump entirely: the
        // inlined `cyc > cyc` folds to false.
        if (ready > cyc)
            pending_max = std::max(pending_max, ready);
        int_written |= 1u << rd;
    };
    auto sbWriteFpReg = [&](std::uint8_t fd, double v, Cycle ready) {
        if (fd == 0)
            return;
        f_[fd] = v;
        fReady_[fd] = ready;
        if (ready > cyc)  // see sbWriteIntReg
            pending_max = std::max(pending_max, ready);
        fp_written |= static_cast<std::uint16_t>(1u << fd);
    };

    /*
     * Resolve a chain target for SB_TRY_CHAIN: first the current
     * block's cached links, then a cache lookup that records a new
     * link.  Targets are revalidated against their span generations on
     * every follow; a stale cached target is dropped and unlinked on
     * the spot (never `cur` — cur is valid, see SB_TRY_CHAIN).
     */
    auto sbChainTarget = [&](Addr target) -> Superblock * {
        for (Superblock::ChainLink &l : cur->chains) {
            if (l.to && l.target == target) {
                if (code_.spanGeneration(l.to->head, l.to->spanEnd) ==
                    l.to->genSum) {
                    ++superblocks_->stats().chained;
                    return l.to;
                }
                if (l.to != cur)
                    superblocks_->invalidateBlock(l.to);
                return nullptr;
            }
        }
        Superblock *to = superblocks_->lookup(target, code_);
        if (!to)
            return nullptr;
        superblocks_->link(cur, target, to);
        ++superblocks_->stats().chained;
        return to;
    };

#if ADORE_SB_THREADED
    goto *u->handler;
#else
dispatch:
    switch (u->kind) {
#endif

    SB_CASE(BundleStart)
    {
        SB_BUNDLE_PROLOGUE(u->bundleAddr, u->fetchLine);
        SB_NEXT();
    }

    SB_CASE(BundleSeam)
    {
        // Interior bundle boundary: this bundle's epilogue, then —
        // unless something demands an exit — the next bundle's
        // prologue, all in one dispatch.  A taken side exit is a chain
        // candidate: the branch target may head another cached block.
        bool event_exit = false;
        SB_BUNDLE_EPILOGUE();
        if (halted_ || branch_taken || event_exit || cyc >= max_cycles) {
            if (branch_taken)
                SB_TRY_CHAIN();
            SB_SYNC_OUT();
            return nullptr;
        }
        SB_BUNDLE_PROLOGUE(u->bundleAddr2, u->fetchLine);
        SB_NEXT();
    }

    SB_CASE(BundleEndLast)
    {
        SB_LAST_TAIL();
    }

    SB_CASE(Nop)
    {
        // qp and waitForSources are no-ops for a nop; only the retire
        // count remains.
        ++retired;
        SB_NEXT();
    }

    SB_ALU_CASE(Add,
                sbWriteIntReg(insn.rd,
                              wrap(uw(r_[insn.rs1]) + uw(r_[insn.rs2])),
                              cyc))
    SB_ALU_CASE(Sub,
                sbWriteIntReg(insn.rd,
                              wrap(uw(r_[insn.rs1]) - uw(r_[insn.rs2])),
                              cyc))
    SB_CASE(Addi)
    {
        SB_ADDI_BODY(u->insn);
        SB_NEXT();
    }

    SB_CASE(Shladd)
    {
        SB_SHLADD_BODY(u->insn);
        SB_NEXT();
    }
    SB_ALU_CASE(Mov, sbWriteIntReg(insn.rd, r_[insn.rs1], cyc))
    SB_ALU_CASE(Movi, sbWriteIntReg(insn.rd, insn.imm, cyc))
    SB_ALU_CASE(And,
                sbWriteIntReg(insn.rd, r_[insn.rs1] & r_[insn.rs2], cyc))
    SB_ALU_CASE(Or,
                sbWriteIntReg(insn.rd, r_[insn.rs1] | r_[insn.rs2], cyc))
    SB_ALU_CASE(Xor,
                sbWriteIntReg(insn.rd, r_[insn.rs1] ^ r_[insn.rs2], cyc))
    SB_ALU_CASE(Shl, sbWriteIntReg(insn.rd,
                                   wrap(uw(r_[insn.rs1]) << insn.count),
                                   cyc))
    SB_ALU_CASE(Shr,
                sbWriteIntReg(insn.rd,
                              static_cast<std::int64_t>(
                                  static_cast<std::uint64_t>(
                                      r_[insn.rs1]) >>
                                  insn.count),
                              cyc))

#define SB_CMP_BODY(cmp_expr)                                           \
    do {                                                                \
        bool res = (cmp_expr);                                          \
        if (insn.pd != 0)                                               \
            p_[insn.pd] = res;                                          \
    } while (0)
    SB_ALU_CASE(CmpLt, SB_CMP_BODY(r_[insn.rs1] < r_[insn.rs2]))
    SB_ALU_CASE(CmpLe, SB_CMP_BODY(r_[insn.rs1] <= r_[insn.rs2]))
    SB_ALU_CASE(CmpEq, SB_CMP_BODY(r_[insn.rs1] == r_[insn.rs2]))
    SB_ALU_CASE(CmpNe, SB_CMP_BODY(r_[insn.rs1] != r_[insn.rs2]))
#undef SB_CMP_BODY

    SB_CASE(Ld)
    {
        // SB_LD_BODY's deliberate divergence from execInsn: no
        // pointer-chase host lookahead (hostPrefetchWalk/hostPrefetch
        // on the loaded value).  It has no simulated effect, and in
        // this tier the line buffer plus warm host caches already cover
        // the hot footprint — measured on jit_hot_loop, mcf_o2_adore
        // and mcf_pointer_chase_hot, the unconditional lookahead is a
        // net host-side loss here (it stays in the interpreter, where
        // it wins).
        SB_LD_BODY(u->insn, u->insnPc);
        SB_NEXT();
    }

    SB_CASE(Ldf)
    {
        const Insn &insn = u->insn;
        if (p_[insn.qp]) {
            sbWaitForSources(insn);
            Addr ea = static_cast<Addr>(r_[insn.rs1]);
            cycle_ = cyc;  // loadFp reads cycle_ (line-buffer readiness)
            MemAccessResult res = loadFp(ea, u->insnPc);
            double v = insn.size == 4
                           ? static_cast<double>(memory_.readF32(ea))
                           : memory_.readF64(ea);
            sbWriteFpReg(insn.fd, v, cyc + res.latency);
            SB_POSTINC();
            dear_.observeLoad(u->insnPc, ea, res.latency, cyc);
            if (res.latency >= config_.dearLatencyThreshold)
                ++counters_.dcacheLoadMisses;
        }
        ++retired;
        SB_NEXT();
    }

    SB_CASE(St)
    {
        const Insn &insn = u->insn;
        if (p_[insn.qp]) {
            sbWaitForSources(insn);
            Addr ea = static_cast<Addr>(r_[insn.rs1]);
            memory_.write(ea, static_cast<std::uint64_t>(r_[insn.rs2]),
                          insn.size);
            cycle_ = cyc;  // storeInt reads cycle_
            storeInt(ea);
            SB_POSTINC();
        }
        ++retired;
        SB_NEXT();
    }

    SB_CASE(Stf)
    {
        const Insn &insn = u->insn;
        if (p_[insn.qp]) {
            sbWaitForSources(insn);
            Addr ea = static_cast<Addr>(r_[insn.rs1]);
            if (insn.size == 4)
                memory_.writeF32(ea, static_cast<float>(f_[insn.fs2]));
            else
                memory_.writeF64(ea, f_[insn.fs2]);
            cycle_ = cyc;  // storeFp reads cycle_
            storeFp(ea);
            SB_POSTINC();
        }
        ++retired;
        SB_NEXT();
    }

    SB_CASE(Lfetch)
    {
        const Insn &insn = u->insn;
        if (p_[insn.qp]) {
            sbWaitForSources(insn);
            Addr ea = static_cast<Addr>(r_[insn.rs1]);
            caches_.hostPrefetchWalk(ea);
            // count == 1 encodes the .nt1 hint (no L1D allocation).
            caches_.prefetch(ea, cyc, insn.count == 1);
            SB_POSTINC();
        }
        ++retired;
        SB_NEXT();
    }

    SB_ALU_CASE(Getf,
                sbWriteIntReg(insn.rd,
                              static_cast<std::int64_t>(f_[insn.fs1]),
                              cyc))
    SB_ALU_CASE(Setf,
                sbWriteFpReg(insn.fd, static_cast<double>(r_[insn.rs1]),
                             cyc + config_.fpOpLatency))
    SB_ALU_CASE(Fma,
                sbWriteFpReg(insn.fd,
                             f_[insn.fs1] * f_[insn.fs2] + f_[insn.fs3],
                             cyc + config_.fpOpLatency))
    SB_ALU_CASE(Fadd, sbWriteFpReg(insn.fd, f_[insn.fs1] + f_[insn.fs2],
                                   cyc + config_.fpOpLatency))
    SB_ALU_CASE(Fmul, sbWriteFpReg(insn.fd, f_[insn.fs1] * f_[insn.fs2],
                                   cyc + config_.fpOpLatency))
    SB_ALU_CASE(Fsub, sbWriteFpReg(insn.fd, f_[insn.fs1] - f_[insn.fs2],
                                   cyc + config_.fpOpLatency))

    SB_CASE(Br)
    {
        SB_BR_CORE(u->insn, u->insnPc);
        SB_BRANCH_TAIL();
    }

    SB_CASE(BrCall)
    {
        const Insn &insn = u->insn;
        Addr fallthrough = u->bundleAddr + isa::bundleBytes;
        bool taken = p_[insn.qp];
        Addr target = 0;
        if (taken) {
            b_[insn.count] = fallthrough;
            target = insn.target;
        }
        bool predicted_taken = predictor_.predict(u->insnPc);
        bool mispredicted = predicted_taken != taken;
        predictor_.update(u->insnPc, taken);
        if (mispredicted) {
            cyc += config_.mispredictPenalty;
            issued = 0;
            ++counters_.mispredicts;
        } else if (taken) {
            cyc += config_.takenBranchBubble;
            issued = 0;
        }
        btb_.record(u->insnPc, taken ? target : fallthrough, taken,
                    mispredicted);
        if (taken) {
            ++counters_.takenBranches;
            branch_taken = true;
            next_pc = target;
        }
        SB_BRANCH_TAIL();
    }

    SB_CASE(BrRet)
    {
        const Insn &insn = u->insn;
        Addr fallthrough = u->bundleAddr + isa::bundleBytes;
        bool taken = p_[insn.qp];
        Addr target = b_[insn.count];
        bool predicted_taken = predictor_.predict(u->insnPc);
        bool mispredicted = predicted_taken != taken;
        predictor_.update(u->insnPc, taken);
        if (mispredicted) {
            cyc += config_.mispredictPenalty;
            issued = 0;
            ++counters_.mispredicts;
        } else if (taken) {
            cyc += config_.takenBranchBubble;
            issued = 0;
        }
        btb_.record(u->insnPc, taken ? target : fallthrough, taken,
                    mispredicted);
        if (taken) {
            ++counters_.takenBranches;
            branch_taken = true;
            next_pc = target;
        }
        SB_BRANCH_TAIL();
    }

    SB_CASE(Halt)
    {
        // As in execBranch: halt retires without touching the
        // predictor or BTB, then breaks to the bundle epilogue.
        halted_ = true;
        ++retired;
        SB_GOTO(u->endIdx);
    }

    SB_CASE(BrLast)
    {
        // Fused back-edge: the Br body, then the final-bundle epilogue.
        // Exact concatenation of Br + BundleEndLast — the Br is the
        // bundle's final slot, so both its taken break and its
        // fall-through land on the end uop anyway.
        SB_BR_CORE(u->insn, u->insnPc);
        ++retired;
        SB_LAST_TAIL();
    }

/** The fused `cmp ; br` loop tail: the compare body (predication and
 *  all), then the branch reading the just-written predicate, then the
 *  final-bundle epilogue — three handlers' work in one dispatch. */
#define SB_CMP_BR_LAST_CASE(k, cmp_expr)                                \
    SB_CASE(k)                                                          \
    {                                                                   \
        const Insn &insn = u->insn;                                     \
        if (p_[insn.qp]) {                                              \
            sbWaitForSources(insn);                                     \
            bool res = (cmp_expr);                                      \
            if (insn.pd != 0)                                           \
                p_[insn.pd] = res;                                      \
        }                                                               \
        ++retired;                                                      \
        SB_BR_CORE(u->insn2, u->insnPc2);                               \
        ++retired;                                                      \
        SB_LAST_TAIL();                                                 \
    }

    SB_CMP_BR_LAST_CASE(CmpLtBrLast, r_[insn.rs1] < r_[insn.rs2])
    SB_CMP_BR_LAST_CASE(CmpLeBrLast, r_[insn.rs1] <= r_[insn.rs2])
    SB_CMP_BR_LAST_CASE(CmpEqBrLast, r_[insn.rs1] == r_[insn.rs2])
    SB_CMP_BR_LAST_CASE(CmpNeBrLast, r_[insn.rs1] != r_[insn.rs2])
#undef SB_CMP_BR_LAST_CASE

    SB_CMP_BR_CASE(CmpLtBr, r_[insn.rs1] < r_[insn.rs2])
    SB_CMP_BR_CASE(CmpLeBr, r_[insn.rs1] <= r_[insn.rs2])
    SB_CMP_BR_CASE(CmpEqBr, r_[insn.rs1] == r_[insn.rs2])
    SB_CMP_BR_CASE(CmpNeBr, r_[insn.rs1] != r_[insn.rs2])

#if !ADORE_SB_THREADED
    }
    panic("superblock executor: unhandled uop kind %d",
          static_cast<int>(u->kind));
#endif
}

} // namespace adore
