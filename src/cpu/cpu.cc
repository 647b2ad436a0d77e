#include "cpu/cpu.hh"

#include <algorithm>
#include <bit>

#include "cpu/exec_tier.hh"
#include "support/logging.hh"

/**
 * Flatten the interpreter hot path: inlining the whole call tree of
 * run() and execBundle() into single frames is worth ~20% simulated
 * MIPS over the compiler's default inlining decisions (the
 * per-instruction helpers otherwise stay out of line).
 */
#if defined(__GNUC__)
#define ADORE_FLATTEN __attribute__((flatten))
#else
#define ADORE_FLATTEN
#endif

namespace adore
{

const char *
execTierName(ExecTier tier)
{
    return tier == ExecTier::DirectThreaded ? "direct_threaded"
                                            : "interpreter";
}

Cpu::Cpu(CodeImage &code, CacheHierarchy &caches, MainMemory &memory,
         const CpuConfig &config)
    : code_(code),
      caches_(caches),
      memory_(memory),
      config_(config),
      ifetchLineMask_(~static_cast<Addr>(caches.l1i().lineBytes() - 1)),
      l1dFast_(&caches.l1dFast()),
      l2Fast_(&caches.l2Fast()),
      memFastPath_(caches.config().fastPath),
      hwpfValueObserve_(caches.hwPrefetch() != nullptr),
      l1dHitLatency_(caches.config().l1d.hitLatency),
      l2HitLatency_(caches.config().l2.hitLatency),
      l1dLineShift_(static_cast<std::uint32_t>(
          std::countr_zero(caches.l1d().lineBytes()))),
      l2LineShift_(static_cast<std::uint32_t>(
          std::countr_zero(caches.l2().lineBytes()))),
      execTierEnabled_(config.execTier == ExecTier::DirectThreaded),
      dear_(config.dearLatencyThreshold)
{
    p_[0] = true;  // p0 is hardwired true
    bundleCache_.resize(kBundleCacheEntries);
    superblocks_ = std::make_unique<SuperblockCache>(kBundleCacheEntries);
}

Cpu::~Cpu() = default;

const SuperblockStats &
Cpu::superblockStats() const
{
    return superblocks_->stats();
}

const Superblock *
Cpu::superblockAt(Addr head) const
{
    return superblocks_->probe(head, code_);
}

void
Cpu::setIntReg(int i, std::int64_t v)
{
    if (i != 0)
        r_[static_cast<size_t>(i)] = v;
}

void
Cpu::setFpReg(int i, double v)
{
    if (i != 0)
        f_[static_cast<size_t>(i)] = v;
}

void
Cpu::setPredReg(int i, bool v)
{
    if (i != 0)
        p_[static_cast<size_t>(i)] = v;
}

void
Cpu::addPeriodicHook(Cycle period, PeriodicHook hook)
{
    panic_if(period == 0, "zero-period hook");
    hooks_.push_back({period, cycle_ + period, std::move(hook)});
    recomputeNextEvent();
}

void
Cpu::recomputeNextEvent()
{
    Cycle next = ~Cycle{0};
    for (const Hook &hook : hooks_)
        next = std::min(next, hook.nextAt);
    if (sampler_ && sampler_->enabled())
        next = std::min(next, sampler_->nextSampleAt());
    nextEventAt_ = next;
}

void
Cpu::execBranch(const Insn &insn, Addr insn_pc, Addr bundle_addr)
{
    Addr fallthrough = bundle_addr + isa::bundleBytes;
    bool taken = false;
    Addr target = 0;

    switch (insn.op) {
      case Opcode::Br:
        taken = p_[insn.qp];
        target = insn.target;
        break;
      case Opcode::BrCall:
        taken = p_[insn.qp];
        if (taken) {
            b_[insn.count] = fallthrough;
            target = insn.target;
        }
        break;
      case Opcode::BrRet:
        taken = p_[insn.qp];
        target = b_[insn.count];
        break;
      case Opcode::Halt:
        halted_ = true;
        return;
      default:
        panic("execBranch on non-branch");
    }

    bool predicted_taken = predictor_.predict(insn_pc);
    bool mispredicted = predicted_taken != taken;
    predictor_.update(insn_pc, taken);

    if (mispredicted) {
        cycle_ += config_.mispredictPenalty;
        issuedThisCycle_ = 0;
        ++counters_.mispredicts;
    } else if (taken) {
        cycle_ += config_.takenBranchBubble;
        issuedThisCycle_ = 0;
    }

    btb_.record(insn_pc, taken ? target : fallthrough, taken, mispredicted);

    if (taken) {
        ++counters_.takenBranches;
        branchTaken_ = true;
        nextPc_ = target;
    }
}

void
Cpu::execInsn(const Insn &insn, Addr insn_pc, Addr bundle_addr)
{
    // Branches always reach the branch unit: a false qualifying
    // predicate makes them not-taken, but the predictor and BTB still
    // see them (and a wrong direction prediction still flushes).
    if (insn.flags & insn_flags::branch) {
        execBranch(insn, insn_pc, bundle_addr);
        return;
    }

    // Qualifying predicate: a predicated-off instruction still retires
    // but has no architectural or timing effect.
    if (!p_[insn.qp])
        return;

    waitForSources(insn);

    auto write_r = [&](std::uint8_t rd, std::int64_t v, Cycle ready) {
        writeIntReg(rd, v, ready);
    };
    auto write_f = [&](std::uint8_t fd, double v, Cycle ready) {
        writeFpReg(fd, v, ready);
    };
    // Integer ALU arithmetic is two's-complement wrapping (the modeled
    // machine's semantics); compute in uint64_t so host signed overflow
    // never occurs.
    auto u = [&](std::uint8_t rs) {
        return static_cast<std::uint64_t>(r_[rs]);
    };
    auto wrap = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };

    switch (insn.op) {
      case Opcode::Nop:
        break;
      case Opcode::Add:
        write_r(insn.rd, wrap(u(insn.rs1) + u(insn.rs2)), cycle_);
        break;
      case Opcode::Sub:
        write_r(insn.rd, wrap(u(insn.rs1) - u(insn.rs2)), cycle_);
        break;
      case Opcode::Addi:
        write_r(insn.rd,
                wrap(static_cast<std::uint64_t>(insn.imm) + u(insn.rs1)),
                cycle_);
        break;
      case Opcode::Shladd:
        write_r(insn.rd,
                wrap((u(insn.rs1) << insn.count) + u(insn.rs2)), cycle_);
        break;
      case Opcode::Mov:
        write_r(insn.rd, r_[insn.rs1], cycle_);
        break;
      case Opcode::Movi:
        write_r(insn.rd, insn.imm, cycle_);
        break;
      case Opcode::And:
        write_r(insn.rd, r_[insn.rs1] & r_[insn.rs2], cycle_);
        break;
      case Opcode::Or:
        write_r(insn.rd, r_[insn.rs1] | r_[insn.rs2], cycle_);
        break;
      case Opcode::Xor:
        write_r(insn.rd, r_[insn.rs1] ^ r_[insn.rs2], cycle_);
        break;
      case Opcode::Shl:
        write_r(insn.rd, wrap(u(insn.rs1) << insn.count), cycle_);
        break;
      case Opcode::Shr:
        write_r(insn.rd,
                static_cast<std::int64_t>(
                    static_cast<std::uint64_t>(r_[insn.rs1]) >> insn.count),
                cycle_);
        break;
      case Opcode::CmpLt:
      case Opcode::CmpLe:
      case Opcode::CmpEq:
      case Opcode::CmpNe: {
        bool res = false;
        switch (insn.op) {
          case Opcode::CmpLt: res = r_[insn.rs1] < r_[insn.rs2]; break;
          case Opcode::CmpLe: res = r_[insn.rs1] <= r_[insn.rs2]; break;
          case Opcode::CmpEq: res = r_[insn.rs1] == r_[insn.rs2]; break;
          default: res = r_[insn.rs1] != r_[insn.rs2]; break;
        }
        if (insn.pd != 0)
            p_[insn.pd] = res;
        break;
      }
      case Opcode::Ld:
      case Opcode::LdS: {
        Addr ea = static_cast<Addr>(r_[insn.rs1]);
        MemAccessResult res = loadInt(ea, insn_pc);
        std::uint64_t raw = memory_.read(ea, insn.size);
        // Pointer-chase lookahead: a 64-bit load's value is often the
        // next node address, so warming the host cache lines its walk
        // and data read will touch overlaps a full simulated iteration.
        // Hint only; a non-pointer value just prefetches nothing useful.
        if (insn.size == 8) {
            caches_.hostPrefetchWalk(raw);
            memory_.hostPrefetch(raw);
            if (hwpfValueObserve_)
                caches_.observeLoadedValue(insn_pc, ea, raw, res.latency,
                                           cycle_);
        }
        write_r(insn.rd, static_cast<std::int64_t>(raw),
                cycle_ + res.latency);
        if (insn.postinc)
            write_r(insn.rs1,
                    wrap(u(insn.rs1) +
                         static_cast<std::uint64_t>(insn.postinc)),
                    cycle_);
        dear_.observeLoad(insn_pc, ea, res.latency, cycle_);
        if (res.latency >= config_.dearLatencyThreshold)
            ++counters_.dcacheLoadMisses;
        break;
      }
      case Opcode::Ldf: {
        Addr ea = static_cast<Addr>(r_[insn.rs1]);
        MemAccessResult res = loadFp(ea, insn_pc);
        double v = insn.size == 4
                       ? static_cast<double>(memory_.readF32(ea))
                       : memory_.readF64(ea);
        write_f(insn.fd, v, cycle_ + res.latency);
        if (insn.postinc)
            write_r(insn.rs1,
                    wrap(u(insn.rs1) +
                         static_cast<std::uint64_t>(insn.postinc)),
                    cycle_);
        dear_.observeLoad(insn_pc, ea, res.latency, cycle_);
        if (res.latency >= config_.dearLatencyThreshold)
            ++counters_.dcacheLoadMisses;
        break;
      }
      case Opcode::St: {
        Addr ea = static_cast<Addr>(r_[insn.rs1]);
        memory_.write(ea, static_cast<std::uint64_t>(r_[insn.rs2]),
                      insn.size);
        storeInt(ea);
        if (insn.postinc)
            write_r(insn.rs1,
                    wrap(u(insn.rs1) +
                         static_cast<std::uint64_t>(insn.postinc)),
                    cycle_);
        break;
      }
      case Opcode::Stf: {
        Addr ea = static_cast<Addr>(r_[insn.rs1]);
        if (insn.size == 4)
            memory_.writeF32(ea, static_cast<float>(f_[insn.fs2]));
        else
            memory_.writeF64(ea, f_[insn.fs2]);
        storeFp(ea);
        if (insn.postinc)
            write_r(insn.rs1,
                    wrap(u(insn.rs1) +
                         static_cast<std::uint64_t>(insn.postinc)),
                    cycle_);
        break;
      }
      case Opcode::Lfetch: {
        Addr ea = static_cast<Addr>(r_[insn.rs1]);
        // Overlap the host cache misses of the prefetch walk (L2 probe,
        // below-L2 fills) with the decode of the rest of the bundle.
        caches_.hostPrefetchWalk(ea);
        // count == 1 encodes the .nt1 hint: do not allocate in L1D.
        caches_.prefetch(ea, cycle_, insn.count == 1);
        if (insn.postinc)
            write_r(insn.rs1,
                    wrap(u(insn.rs1) +
                         static_cast<std::uint64_t>(insn.postinc)),
                    cycle_);
        break;
      }
      case Opcode::Getf:
        // Modelled as a fused fcvt.fx.trunc + getf.sig: the integer value
        // of the FP register.  Opaque to the ADORE dependence slicer.
        write_r(insn.rd, static_cast<std::int64_t>(f_[insn.fs1]), cycle_);
        break;
      case Opcode::Setf:
        write_f(insn.fd, static_cast<double>(r_[insn.rs1]),
                cycle_ + config_.fpOpLatency);
        break;
      case Opcode::Fma:
        write_f(insn.fd, f_[insn.fs1] * f_[insn.fs2] + f_[insn.fs3],
                cycle_ + config_.fpOpLatency);
        break;
      case Opcode::Fadd:
        write_f(insn.fd, f_[insn.fs1] + f_[insn.fs2],
                cycle_ + config_.fpOpLatency);
        break;
      case Opcode::Fmul:
        write_f(insn.fd, f_[insn.fs1] * f_[insn.fs2],
                cycle_ + config_.fpOpLatency);
        break;
      case Opcode::Fsub:
        write_f(insn.fd, f_[insn.fs1] - f_[insn.fs2],
                cycle_ + config_.fpOpLatency);
        break;
      case Opcode::Br:
      case Opcode::BrCall:
      case Opcode::BrRet:
      case Opcode::Halt:
        break;  // handled above
    }
}

ADORE_FLATTEN void
Cpu::execBundle(const Bundle &bundle, Addr bundle_addr)
{
    intWrittenMask_ = 0;
    fpWrittenMask_ = 0;
    splitIssueCharged_ = false;
    branchTaken_ = false;

    const int n = bundle.size();
    if (bundle.branchFree()) {
        // No slot is a branch (or halt), so control cannot leave the
        // bundle and every slot retires: the per-slot halt/redirect
        // checks fold away and the retire count updates once.
        for (int slot = 0; slot < n; ++slot)
            execInsn(bundle.slot(slot), isa::insnAddr(bundle_addr, slot),
                     bundle_addr);
        counters_.retiredInsns += static_cast<std::uint64_t>(n);
    } else {
        for (int slot = 0; slot < n; ++slot) {
            const Insn &insn = bundle.slot(slot);
            execInsn(insn, isa::insnAddr(bundle_addr, slot), bundle_addr);
            ++counters_.retiredInsns;
            if (halted_ || branchTaken_)
                break;
        }
    }

    // Split issue: an intra-bundle register dependence forces the bundle
    // across a cycle boundary.
    if (splitIssueCharged_) {
        cycle_ += 1;
        issuedThisCycle_ = 0;
    }
}

void
Cpu::runHooks()
{
    for (Hook &hook : hooks_) {
        while (cycle_ >= hook.nextAt) {
            hook.fn(cycle_);
            hook.nextAt += hook.period;
        }
    }
}

void
Cpu::maybeSample(Addr bundle_addr)
{
    if (!sampler_ || !sampler_->enabled())
        return;
    if (cycle_ < sampler_->nextSampleAt())
        return;

    Sample s;
    s.pc = bundle_addr;
    s.cycles = cycle_;
    s.dcacheMissCount = counters_.dcacheLoadMisses;
    s.retiredCount = counters_.retiredInsns;
    s.btb = btb_.snapshot();
    s.dear = dear_.read();
    Cycle overhead = sampler_->takeSample(s);
    cycle_ += overhead;
}

bool
Cpu::step()
{
    if (halted_)
        return false;

    Addr bundle_addr = isa::bundleAddr(pc_);

    // Instruction fetch through the L1I.  Fast path: the previous fetch
    // touched the same line and its fill has completed, so this fetch is
    // a guaranteed ready hit on the (already-MRU) line — only the hit
    // statistics need updating.  L1I lines move only through ifetch
    // itself, so any eviction of the cached line is preceded by a
    // slow-path fetch that retags the cache (see DESIGN.md).
    Addr fetch_line = bundle_addr & ifetchLineMask_;
    if (memFastPath_ && fetch_line == lastIfetchLine_ &&
        cycle_ >= lastIfetchReadyAt_) {
        caches_.noteIfetchRepeatHit();
    } else {
        std::uint32_t fetch_stall = caches_.ifetch(bundle_addr, cycle_);
        lastIfetchLine_ = fetch_line;
        lastIfetchReadyAt_ = cycle_ + fetch_stall;
        if (fetch_stall) {
            cycle_ += fetch_stall;
            issuedThisCycle_ = 0;
        }
    }

    if (issuedThisCycle_ >= config_.bundlesPerCycle) {
        cycle_ += 1;
        issuedThisCycle_ = 0;
    }

    // Decoded-bundle lookup through the direct-mapped cache, falling
    // back to the bounds-checked-once contiguous-span fetch.  The hit
    // counter doubles as the execution tier's hotness signal, and
    // counts trace heads only: the kSuperblockHotThreshold-th arrival at
    // an address (at an unchanged region cache key) that did not fall
    // through from the previous bundle promotes it to a superblock.
    // Interior loop bundles get hot in the same iteration as their
    // head; counting them would stitch blocks past their own back-edge
    // that are never dispatched and evict the ones that are.
    const bool trace_head = bundle_addr != seqNext_;
    std::uint64_t code_key = code_.cacheKey(bundle_addr);
    BundleCacheEntry &entry =
        bundleCache_[(bundle_addr / isa::bundleBytes) &
                     (kBundleCacheEntries - 1)];
    const Bundle *bundle;
    if (bundle_addr == entry.addr && code_key == entry.key) {
        bundle = entry.bundle;
        if (trace_head &&
            ++entry.hits == kSuperblockHotThreshold &&
            execTierEnabled_) {
            buildSuperblockAt(bundle_addr);
        }
    } else {
        bundle = code_.fetchFast(bundle_addr);
        panic_if(!bundle, "fetch outside image: 0x%llx",
                 static_cast<unsigned long long>(bundle_addr));
        entry = {bundle_addr, code_key, bundle, trace_head ? 1u : 0u};
    }

    nextPc_ = bundle_addr + isa::bundleBytes;
    seqNext_ = nextPc_;
    execBundle(*bundle, bundle_addr);
    ++issuedThisCycle_;
    pc_ = nextPc_;

    // Event watermark: the common step does one comparison instead of
    // polling the sampler and scanning the hook list.  Deferred cache
    // stats are flushed first so samplers and hooks observe exactly the
    // counters the slow path would have produced.
    if (cycle_ >= nextEventAt_) {
        syncDeferredMemStats();
        maybeSample(bundle_addr);
        runHooks();
        recomputeNextEvent();
    }
    counters_.cycles = cycle_;

    return !halted_;
}

ADORE_FLATTEN Cpu::RunResult
Cpu::run(Cycle max_cycles)
{
    // The sampler may have been enabled or retimed since the watermark
    // was last computed (e.g. Sampler::setEnabled after setSampler).
    recomputeNextEvent();

    if (execTierEnabled_) {
        // Superblock dispatch: a valid block at pc executes flattened
        // (chaining into further blocks) until a side exit, event
        // service, or budget/generation check fails; everything else
        // (including hotness training and formation) goes through the
        // interpreter step.  step() stays exactly one bundle either
        // way, so direct step() drivers see pure interpreter behaviour.
        while (!halted_ && cycle_ < max_cycles &&
               !stopRequested_.load(std::memory_order_relaxed)) {
            Superblock *sb =
                superblocks_->lookup(isa::bundleAddr(pc_), code_);
            if (sb) {
                ++superblocks_->stats().dispatches;
                execSuperblock(sb, max_cycles);
                seqNext_ = ~Addr{0};  // a block exit is a trace head
                continue;
            }
            step();
        }
    } else {
        while (!halted_ && cycle_ < max_cycles &&
               !stopRequested_.load(std::memory_order_relaxed)) {
            step();
        }
    }

    syncDeferredMemStats();
    counters_.cycles = cycle_;
    return {halted_, cycle_, counters_.retiredInsns};
}

} // namespace adore
