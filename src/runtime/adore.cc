#include "runtime/adore.hh"

#include <algorithm>

#include "isa/builder.hh"
#include "runtime/slicer.hh"
#include "support/logging.hh"

namespace adore
{

AdoreRuntime::AdoreRuntime(Cpu &cpu, const AdoreConfig &config)
    : cpu_(cpu),
      config_(config),
      sampler_(config.sampler),
      ueb_(config.uebMultiplier),
      phaseDetector_(config.phase),
      traceSelector_(cpu.code(), config.traceSelect),
      prefetchGen_(config.prefetchGen)
{
}

void
AdoreRuntime::attach()
{
    panic_if(attached_, "AdoreRuntime attached twice");
    attached_ = true;

    events_ = config_.events;
    if (!events_ && verbose()) {
        // No external sink, but verbose logging wants the decision
        // lines: a private echo-only trace renders every event through
        // inform() (the single formatting path the old ad-hoc verbose
        // prints were folded into).
        ownEvents_ = std::make_unique<observe::EventTrace>(512);
        ownEvents_->enable();
        ownEvents_->setEcho(true);
        events_ = ownEvents_.get();
    }
    phaseDetector_.setEventTrace(events_);
    traceSelector_.setEventTrace(events_);
    prefetchGen_.setEventTrace(events_);

    if (config_.faultPlan)
        sampler_.setFaultPlan(config_.faultPlan);
    if (config_.tracePoolCapacityBundles)
        cpu_.code().setPoolCapacity(config_.tracePoolCapacityBundles);
    if (config_.guardrails.enabled) {
        guardrails_ = std::make_unique<Guardrails>(config_.guardrails);
        guardrails_->setEventTrace(events_);
    }
    baseSamplingInterval_ = config_.sampler.interval;

    phaseDetector_.setDoubleWindowCallback([this] {
        ++stats_.windowDoublings;
        sampler_.doubleWindow();
    });

    cpu_.setSampler(&sampler_);
    sampler_.setEnabled(true, cpu_.cycle());
    sampler_.setOverflowHandler(
        [this](const std::vector<Sample> &ssb) { ueb_.pushWindow(ssb); });
    cpu_.addPeriodicHook(config_.pollPeriod,
                         [this](Cycle now) { onPoll(now); });
}

void
AdoreRuntime::detach()
{
    sampler_.setEnabled(false);
}

void
AdoreRuntime::onPoll(Cycle now)
{
    if (events_)
        events_->setNow(now);
    if (guardrails_)
        guardrails_->beginPoll();

    consumeWindows(now);

    if (config_.faultPlan && events_)
        emitFaultDeltas();
    if (guardrails_)
        endPollGuardrails();
}

void
AdoreRuntime::consumeWindows(Cycle now)
{
    // Consume any profile windows that arrived since the last poll.
    while (windowsConsumed_ < ueb_.totalWindows()) {
        std::uint64_t behind = ueb_.totalWindows() - windowsConsumed_;
        if (behind > ueb_.retainedWindows()) {
            // Older windows fell off the circular buffer.
            windowsConsumed_ = ueb_.totalWindows() -
                               ueb_.retainedWindows();
            behind = ueb_.retainedWindows();
        }
        const std::vector<Sample> &window =
            ueb_.window(ueb_.retainedWindows() - behind);
        ++windowsConsumed_;
        ++stats_.windowsProcessed;
        if (events_) {
            events_->emit(observe::SamplingBatchEvent{
                windowsConsumed_ - 1,
                static_cast<std::uint32_t>(window.size())});
        }

        PhaseDetector::Event event = phaseDetector_.onWindow(window, now);
        switch (event) {
          case PhaseDetector::Event::None:
            break;
          case PhaseDetector::Event::PhaseChange:
            ++stats_.phaseChanges;
            if (guardrails_)
                guardrails_->notePhaseChange();
            break;
          case PhaseDetector::Event::StablePhase: {
            ++stats_.phasesDetected;
            const PhaseInfo &phase = phaseDetector_.current();
            if (CodeImage::inPool(phase.pcCenter)) {
                // Already running out of the trace pool: skip to avoid
                // re-optimization (Section 2.3) — but keep monitoring:
                // with guardrails on, a batch whose in-pool CPI
                // regressed past the pre-optimization level is
                // unpatched in stages.
                ++stats_.phasesSkippedInPool;
                if (events_) {
                    events_->emit(observe::PhaseSkippedEvent{
                        "in-pool", phase.cpi,
                        batches_.empty() ? 0.0
                                         : batches_.back().cpiBefore});
                }
                if (guardrails_)
                    guardrailProfitabilityCheck(phase);
            } else if (!phase.highMissRate) {
                ++stats_.phasesSkippedLowMiss;
                if (events_) {
                    events_->emit(observe::PhaseSkippedEvent{
                        "low-miss-rate", phase.cpi, 0.0});
                }
            } else {
                optimizePhase();
            }
            break;
          }
        }
    }
}

void
AdoreRuntime::emitFaultDeltas()
{
    const fault::FaultStats &fs = config_.faultPlan->stats();
    auto delta = [this](const char *channel, std::uint64_t cur,
                        std::uint64_t &last) {
        if (cur > last)
            events_->emit(observe::FaultInjectedEvent{channel, cur - last});
        last = cur;
    };
    delta("drop-batch", fs.batchesDropped, lastFaultStats_.batchesDropped);
    delta("dup-batch", fs.batchesDuplicated,
          lastFaultStats_.batchesDuplicated);
    delta("dear-alias", fs.dearAliased, lastFaultStats_.dearAliased);
    delta("counter-jitter", fs.countersJittered,
          lastFaultStats_.countersJittered);
    delta("btb-corrupt", fs.btbCorrupted, lastFaultStats_.btbCorrupted);
    delta("patch-fail", fs.patchesFailed, lastFaultStats_.patchesFailed);
    delta("optimizer-stall", fs.optimizerStalls,
          lastFaultStats_.optimizerStalls);
    delta("mem-jitter", fs.memFillsJittered,
          lastFaultStats_.memFillsJittered);
    delta("bus-squeeze", fs.busSqueezes, lastFaultStats_.busSqueezes);
}

void
AdoreRuntime::endPollGuardrails()
{
    const HierarchyStats &mem = cpu_.caches().stats();
    std::uint64_t issued = mem.prefetchesIssued - lastPrefetchesIssued_;
    std::uint64_t dropped = mem.prefetchesDropped - lastPrefetchesDropped_;
    lastPrefetchesIssued_ = mem.prefetchesIssued;
    lastPrefetchesDropped_ = mem.prefetchesDropped;
    guardrails_->noteMemPressure(issued, dropped);
    guardrails_->endPoll();

    // Apply sampling-rate backoff.  The poll runs inside a Cpu periodic
    // hook and the Cpu recomputes its event watermark after hooks, so
    // the retimed interval takes effect from the next sample.
    Cycle want = baseSamplingInterval_ * guardrails_->samplingMultiplier();
    if (sampler_.interval() != want)
        sampler_.setInterval(want);
}

void
AdoreRuntime::guardrailProfitabilityCheck(const PhaseInfo &phase)
{
    // Per-trace monitoring: attribute the in-pool phase to the patched
    // trace whose pool range holds the phase's PCcenter, newest batch
    // first (pool ranges are unique per commit).
    for (std::size_t bi = batches_.size(); bi-- > 0;) {
        OptimizedBatch &batch = batches_[bi];
        if (batch.reverted)
            continue;
        for (const PatchedTrace &t : batch.traces) {
            if (phase.pcCenter < t.poolStart ||
                phase.pcCenter >= t.poolEnd) {
                continue;
            }
            if (!cpu_.code().isPatched(t.head))
                return;  // already individually reverted
            if (phase.cpi <= batch.cpiBefore *
                                 config_.guardrails.revertCpiRatio) {
                return;  // profitable enough: leave it in
            }
            if (batch.revertStage == 0) {
                // Stage 1: surgically revert only the offending trace.
                batch.revertStage = 1;
                if (unpatchHead(batch, t.head, false))
                    guardrails_->noteStagedRevert(t.head);
            } else {
                // Stage 2: the batch regressed again — revert the rest.
                std::uint64_t n = 0;
                Addr first = t.head;
                for (const PatchedTrace &u : batch.traces) {
                    if (unpatchHead(batch, u.head, false))
                        ++n;
                }
                batch.revertStage = 2;
                guardrails_->noteFullRevert(first, n);
            }
            return;
        }
    }
}

std::unordered_map<Addr, AdoreRuntime::DearAgg>
AdoreRuntime::aggregateDear(const std::vector<Sample> &samples) const
{
    std::unordered_map<Addr, DearAgg> agg;
    DearRecord prev{};
    for (const Sample &sample : samples) {
        const DearRecord &d = sample.dear;
        if (!d.valid)
            continue;
        // The DEAR latches the most recent event; identical consecutive
        // captures are the same event observed twice.
        if (prev.valid && prev.pc == d.pc && prev.missAddr == d.missAddr &&
            prev.latency == d.latency) {
            continue;
        }
        prev = d;
        DearAgg &a = agg[d.pc];
        a.totalLatency += d.latency;
        ++a.count;
    }
    return agg;
}

Addr
AdoreRuntime::commitTrace(const Trace &trace,
                          const std::vector<Bundle> &init_bundles)
{
    std::size_t total = init_bundles.size() + trace.bundles.size() + 1;

    // Chaos channel: the live patch itself may fail (e.g. the real
    // system's mprotect/bundle-swap race).  Checked before allocation
    // so a refused patch leaks no pool space.  Recoverable: the trace
    // is skipped and may be retried on a later phase.
    if (config_.faultPlan && config_.faultPlan->patchFails()) {
        ++stats_.tracesPatchFailed;
        if (guardrails_)
            guardrails_->notePatchFailed(trace.startAddr);
        return CodeImage::badAddr;
    }

    CodeImage &code = cpu_.code();
    std::uint64_t bumps_before = code.regionBumpCount();
    Addr base = code.tryAllocTrace(total);
    if (base == CodeImage::badAddr) {
        // Trace-pool exhaustion: reject, record, continue running.
        ++stats_.tracesRejectedPoolFull;
        if (guardrails_) {
            guardrails_->notePoolExhausted(trace.startAddr);
        } else if (events_) {
            events_->emit(observe::GuardrailEvent{
                "pool-exhausted", trace.startAddr,
                static_cast<std::uint64_t>(total)});
        }
        return CodeImage::badAddr;
    }

    Addr body_start =
        base + init_bundles.size() * isa::bundleBytes;

    for (std::size_t i = 0; i < init_bundles.size(); ++i)
        code.writeBundle(base + i * isa::bundleBytes, init_bundles[i]);

    for (std::size_t i = 0; i < trace.bundles.size(); ++i) {
        Bundle bundle = trace.bundles[i];
        if (trace.isLoop &&
            static_cast<int>(i) == trace.backedgeBundle) {
            // Retarget the backedge at the in-pool body start (the
            // init code runs only on trace entry).
            bundle.slot(trace.backedgeSlot).target = body_start;
        }
        if (std::find(trace.elidedBranches.begin(),
                      trace.elidedBranches.end(),
                      static_cast<int>(i)) != trace.elidedBranches.end()) {
            int bslot = bundle.branchSlot();
            if (bslot >= 0) {
                Insn nop = build::nop();
                nop.slot = SlotKind::B;
                bundle.slot(bslot) = nop;
            }
        }
        code.writeBundle(body_start + i * isa::bundleBytes, bundle);
    }

    // Exit bundle: resume original code after the trace.
    Bundle exit_bundle;
    exit_bundle.add(build::brAlways(trace.fallthroughAddr()));
    code.writeBundle(body_start + trace.bundles.size() * isa::bundleBytes,
                     exit_bundle);

    code.patch(trace.startAddr, base);
    stats_.regionGenBumps += code.regionBumpCount() - bumps_before;

    if (events_) {
        events_->emit(observe::TracePatchedEvent{
            trace.startAddr, base,
            static_cast<std::uint32_t>(trace.bundles.size()),
            static_cast<std::uint32_t>(init_bundles.size())});
    }
    return base;
}

bool
AdoreRuntime::unpatchHead(OptimizedBatch &batch, Addr head, bool blacklist)
{
    if (!cpu_.code().isPatched(head))
        return false;
    std::uint64_t bumps_before = cpu_.code().regionBumpCount();
    cpu_.code().unpatch(head);
    stats_.regionGenBumps += cpu_.code().regionBumpCount() - bumps_before;
    ++stats_.tracesUnpatched;
    if (events_)
        events_->emit(observe::TraceRevertedEvent{head});
    if (blacklist || !guardrails_)
        blacklist_.insert(head);
    else
        guardrails_->noteTraceReverted(head);
    cpu_.chargeCycles(config_.patchCyclesPerTrace);

    bool anyPatched = false;
    for (const PatchedTrace &t : batch.traces) {
        if (cpu_.code().isPatched(t.head)) {
            anyPatched = true;
            break;
        }
    }
    if (!anyPatched && !batch.reverted) {
        batch.reverted = true;
        ++stats_.phasesReverted;
    }
    return true;
}

std::vector<Addr>
AdoreRuntime::patchedHeadsOf(std::size_t index) const
{
    std::vector<Addr> out;
    if (index >= batches_.size())
        return out;
    for (const PatchedTrace &t : batches_[index].traces) {
        if (cpu_.code().isPatched(t.head))
            out.push_back(t.head);
    }
    return out;
}

bool
AdoreRuntime::revertTrace(Addr head)
{
    // Newest batch first: a head whose backoff expired may have been
    // re-optimized into a later batch.
    for (auto it = batches_.rbegin(); it != batches_.rend(); ++it) {
        for (const PatchedTrace &t : it->traces) {
            if (t.head == head)
                return unpatchHead(*it, head, true);
        }
    }
    return false;
}

bool
AdoreRuntime::revertBatchAt(std::size_t index)
{
    if (index >= batches_.size())
        return false;
    OptimizedBatch &batch = batches_[index];
    if (batch.reverted)
        return false;
    bool any = false;
    for (const PatchedTrace &t : batch.traces) {
        if (unpatchHead(batch, t.head, true))
            any = true;
    }
    return any;
}

void
AdoreRuntime::optimizePhase()
{
    // Virtual-cycle watchdog: an injected optimizer stall beyond the
    // deadline cancels the phase before any work is done and degrades
    // via the guardrail throttle.
    if (config_.faultPlan) {
        std::uint64_t stall = config_.faultPlan->optimizerStall();
        if (stall > config_.watchdogDeadlineCycles) {
            const Addr pcCenter = phaseDetector_.current().pcCenter;
            ++stats_.phasesWatchdogCancelled;
            if (guardrails_) {
                guardrails_->noteWatchdogFire(pcCenter, stall);
            } else if (events_) {
                events_->emit(observe::GuardrailEvent{
                    "watchdog-cancel", pcCenter, stall});
            }
            return;
        }
    }

    std::vector<Sample> samples = ueb_.flatten();
    std::vector<Trace> traces = traceSelector_.select(samples);
    auto dear = aggregateDear(samples);

    OptimizedBatch batch;
    batch.cpiBefore = phaseDetector_.current().cpi;

    bool any_patched = false;
    bool any_prefetched = false;

    // Auto-throttle: under bus saturation the guardrails damp (1) or
    // disable (0) prefetch generation per trace.
    int load_cap = config_.maxPrefetchLoadsPerTrace;
    if (guardrails_)
        load_cap = guardrails_->prefetchLoadCap(load_cap);

    for (Trace &trace : traces) {
        ++stats_.tracesSelected;
        if (trace.isLoop)
            ++stats_.loopTraces;

        if (!trace.isLoop &&
            trace.bundles.size() < config_.minNonLoopTraceBundles) {
            continue;  // too small to gain anything from relayout
        }

        if (cpu_.code().isPatched(trace.startAddr)) {
            ++stats_.tracesSkippedPatched;
            continue;
        }
        if (blacklist_.count(trace.startAddr)) {
            continue;  // previously reverted as nonprofitable
        }
        if (guardrails_ && !guardrails_->allowOptimize(trace.startAddr)) {
            continue;  // reverted head still in re-optimization backoff
        }
        if (config_.swpLoopFilter &&
            config_.swpLoopFilter(trace.startAddr)) {
            // Software-pipelined loop with rotating registers: the
            // current optimizer cannot insert prefetches there
            // (Section 4.3).
            ++stats_.tracesSkippedSwp;
            continue;
        }
        // Traces that already contain compiler-generated lfetch (O3
        // binaries): the static pass covers the direct references, so
        // only indirect / pointer-chasing loads remain for the runtime
        // prefetcher.  When nothing remains, the trace is skipped
        // entirely (Section 4.3's "already have compiler generated
        // lfetch").
        bool has_static_lfetch = trace.containsLfetch();

        if (!config_.insertPrefetches)
            continue;

        PrefetchGenResult gen;
        bool throttled_off = guardrails_ && load_cap == 0;
        if (trace.isLoop && !throttled_off) {
            // Delinquent loads of this trace, hottest first (top-3).
            std::vector<DelinquentLoad> loads;
            DependenceSlicer slicer(trace, events_);
            for (const auto &[pc, agg] : dear) {
                int bidx = trace.bundleIndexOfOrigPc(pc);
                if (bidx < 0)
                    continue;
                DelinquentLoad dl;
                dl.origPc = pc;
                dl.pos = {bidx, isa::slotOf(pc)};
                dl.totalLatency = agg.totalLatency;
                dl.sampleCount = agg.count;
                const Bundle &bundle =
                    trace.bundles[static_cast<std::size_t>(bidx)];
                if (dl.pos.slot >= bundle.size() ||
                    !bundle.slot(dl.pos.slot).isLoad()) {
                    continue;
                }
                dl.slice = slicer.classify(dl.pos);
                loads.push_back(dl);
            }
            std::sort(loads.begin(), loads.end(),
                      [](const DelinquentLoad &a, const DelinquentLoad &b) {
                          if (a.totalLatency != b.totalLatency)
                              return a.totalLatency > b.totalLatency;
                          return a.origPc < b.origPc;
                      });
            if (loads.size() > static_cast<std::size_t>(load_cap))
                loads.resize(static_cast<std::size_t>(load_cap));

            if (events_) {
                for (const DelinquentLoad &dl : loads) {
                    events_->emit(observe::DelinquentLoadEvent{
                        dl.origPc, refPatternName(dl.slice.pattern),
                        dl.avgLatency(), dl.sampleCount,
                        dl.slice.strideBytes});
                }
            }

            // Issue-limited body estimate: two bundles per cycle plus
            // loop-control overhead.
            auto body_cycles = static_cast<std::uint32_t>(
                1 + trace.bundles.size() / 2);
            gen = prefetchGen_.generate(trace, loads, body_cycles,
                                        has_static_lfetch);

            stats_.directPrefetches += gen.directPrefetches;
            stats_.indirectPrefetches += gen.indirectPrefetches;
            stats_.pointerPrefetches += gen.pointerPrefetches;
            stats_.loadsSkippedNoRegs += gen.loadsSkippedNoRegs;
            stats_.loadsSkippedUnknown += gen.loadsSkippedUnknown;
            stats_.bundlesInserted += gen.bundlesInserted;
            stats_.slotsFilled += gen.slotsFilled;
            if (gen.totalPrefetchedLoads() > 0)
                any_prefetched = true;
        }

        if (has_static_lfetch && gen.totalPrefetchedLoads() == 0) {
            // Fully covered by the compiler: nothing to add.
            ++stats_.tracesSkippedLfetch;
            continue;
        }

        Addr base = commitTrace(trace, gen.initBundles);
        if (base == CodeImage::badAddr)
            continue;  // patch failed or pool exhausted: recoverable
        std::size_t total =
            gen.initBundles.size() + trace.bundles.size() + 1;
        batch.traces.push_back(
            {trace.startAddr, base,
             base + total * isa::bundleBytes});
        ++stats_.tracesPatched;
        any_patched = true;
        cpu_.chargeCycles(config_.patchCyclesPerTrace);
    }

    if (any_patched) {
        ++stats_.phasesOptimized;
        batches_.push_back(std::move(batch));
    }
    if (any_prefetched)
        ++stats_.phasesPrefetched;
}

} // namespace adore
