#include "harness/experiment.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace adore
{

AdoreConfig
Experiment::defaultAdoreConfig()
{
    AdoreConfig cfg;
    cfg.sampler.interval = 4'000;
    cfg.sampler.ssbSamples = 64;
    cfg.uebMultiplier = 16;
    cfg.pollPeriod = 64'000;
    // The optimizer runs on its own thread behind the bounded sample
    // queue; the barrier handshake keeps results bit-identical to the
    // synchronous in-hook optimizer (tests/test_async_toggle.cc).
    cfg.mode = OptimizerMode::AsyncBarrier;
    return cfg;
}

RunMetrics
Experiment::run(const hir::Program &prog, const RunConfig &cfg)
{
    Machine machine(cfg.machine);
    DataLayout data(machine.memory());
    Compiler compiler(cfg.machine.hier);

    RunMetrics out;
    out.compileReport =
        compiler.compile(prog, cfg.compile, machine.code(), data);
    machine.cpu().setPc(out.compileReport.entry);

    // Chaos: one deterministic fault plan per run, shared by the PMU
    // path, the patching path, and the memory system.  The memory
    // channels also apply to ADORE-less baseline runs, so a chaos
    // CPI-margin comparison sees the same degraded memory system on
    // both sides.
    std::unique_ptr<fault::FaultPlan> faults;
    if (cfg.faults.any()) {
        faults = std::make_unique<fault::FaultPlan>(cfg.faults);
        machine.caches().setFaultPlan(faults.get());
        out.faultsUsed = true;
    }

    // The SWP-loop filter: ADORE must skip loops compiled with rotating
    // registers (paper Section 4.3).
    std::unordered_set<int> swp_loops;
    for (const LoopCompileInfo &li : out.compileReport.loops)
        if (li.softwarePipelined)
            swp_loops.insert(li.loopId);

    // Adaptive hw-prefetch controller: created whenever the engine is
    // present and configured adaptive, with or without ADORE (the
    // hardware-only study arm still retunes per its own counters; it
    // just never sees phase changes or a guardrail cap).
    std::unique_ptr<HwPrefetchController> hwpfCtl;
    if (cfg.machine.hier.hwPrefetch.enabled &&
        cfg.machine.hier.hwPrefetch.adaptive) {
        hwpfCtl = std::make_unique<HwPrefetchController>(machine.caches());
        out.hwpfControllerUsed = true;
    }

    std::unique_ptr<AdoreRuntime> adore;
    if (cfg.adore) {
        AdoreConfig acfg = cfg.adoreConfig;
        if (faults)
            acfg.faultPlan = faults.get();
        if (!swp_loops.empty()) {
            CodeImage *code = &machine.code();
            acfg.swpLoopFilter = [code, swp_loops](Addr pc) {
                int id = code->loopIdAt(pc);
                return id >= 0 && swp_loops.count(id) != 0;
            };
        }
        acfg.hwpfController = hwpfCtl.get();
        adore = std::make_unique<AdoreRuntime>(machine.cpu(), acfg);
        adore->attach();
        out.adoreUsed = true;
    }

    if (hwpfCtl) {
        if (adore) {
            hwpfCtl->setGuardrails(adore->guardrails());
            hwpfCtl->setEventTrace(adore->events());
        } else {
            hwpfCtl->setEventTrace(cfg.adoreConfig.events);
        }
        // Registered after ADORE's attach so the controller's poll sees
        // the guardrail rung the same poll updated it.
        HwPrefetchController *c = hwpfCtl.get();
        machine.cpu().addPeriodicHook(
            cfg.adoreConfig.pollPeriod > 0 ? cfg.adoreConfig.pollPeriod
                                           : Cycle{64'000},
            [c](Cycle now) { c->poll(now); });
    }

    // Optional CPI / DEAR time series (Figs. 8 and 9).
    struct SeriesState
    {
        Cycle lastCycle = 0;
        std::uint64_t lastRetired = 0;
        std::uint64_t lastMisses = 0;
    };
    auto series_state = std::make_shared<SeriesState>();
    if (cfg.seriesInterval > 0) {
        Cpu *cpu = &machine.cpu();
        TimeSeries *cpi_series = &out.cpiSeries;
        TimeSeries *dear_series = &out.dearSeries;
        machine.cpu().addPeriodicHook(
            cfg.seriesInterval,
            [cpu, cpi_series, dear_series, series_state](Cycle now) {
                const PerfCounters &c = cpu->counters();
                double d_insn = static_cast<double>(
                    c.retiredInsns - series_state->lastRetired);
                if (d_insn > 0) {
                    double d_cyc = static_cast<double>(
                        now - series_state->lastCycle);
                    double d_miss = static_cast<double>(
                        c.dcacheLoadMisses - series_state->lastMisses);
                    cpi_series->add(now, d_cyc / d_insn);
                    dear_series->add(now, d_miss / d_insn * 1000.0);
                }
                series_state->lastCycle = now;
                series_state->lastRetired = c.retiredInsns;
                series_state->lastMisses = c.dcacheLoadMisses;
            });
    }

    // Cooperative cancellation: a periodic hook forwards the external
    // flag to the Cpu's stop request, bounding cancel latency to one
    // hook period (hooks force superblock event exits).
    if (cfg.cancelFlag) {
        Cpu *cpu = &machine.cpu();
        const std::atomic<bool> *flag = cfg.cancelFlag;
        machine.cpu().addPeriodicHook(
            cfg.cancelCheckPeriod > 0 ? cfg.cancelCheckPeriod
                                      : Cycle{65'536},
            [cpu, flag](Cycle) {
                if (flag->load(std::memory_order_acquire))
                    cpu->requestStop();
            });
    }

    if (cfg.testFailpoint)
        cfg.testFailpoint();

    auto result = machine.cpu().run(cfg.maxCycles);
    out.stopRequested = machine.cpu().stopRequested();
    if (!result.halted && !out.stopRequested && !cfg.quietCycleLimit) {
        warn("%s: run hit the %llu-cycle limit before Halt",
             prog.name.c_str(),
             static_cast<unsigned long long>(cfg.maxCycles));
    }

    out.halted = result.halted;
    out.cycles = result.cycles;
    out.retired = result.retired;
    out.execTier = cfg.machine.cpu.execTier;
    out.superblockStats = machine.cpu().superblockStats();
    out.regionGenBumps = machine.code().regionBumpCount();
    out.dearMisses = machine.cpu().counters().dcacheLoadMisses;
    out.cpi = out.retired ? static_cast<double>(out.cycles) /
                                static_cast<double>(out.retired)
                          : 0.0;
    out.dearPer1000 =
        out.retired ? static_cast<double>(out.dearMisses) /
                          static_cast<double>(out.retired) * 1000.0
                    : 0.0;
    out.memStats = machine.caches().stats();
    out.l1iStats = machine.caches().l1i().stats();
    out.l1dStats = machine.caches().l1d().stats();
    out.l2Stats = machine.caches().l2().stats();
    out.l3Stats = machine.caches().l3().stats();
    if (adore) {
        adore->detach();  // quiesces (joins) the optimizer service
        out.adoreStats = adore->stats();
        out.samplerStats = adore->sampler().stats();
        out.optimizerMode = adore->config().mode;
        if (adore->optimizerService()) {
            out.optimizerServiceUsed = true;
            out.optimizerStats = adore->optimizerService()->statsSnapshot();
        }
        if (adore->guardrails()) {
            out.guardrailsUsed = true;
            out.guardrailStats = adore->guardrails()->stats();
        }
    }
    if (const HwPrefetchEngine *hw = machine.caches().hwPrefetch()) {
        out.hwPrefetchUsed = true;
        out.hwpfStats = hw->stats();
    }
    if (hwpfCtl)
        out.hwpfControllerStats = hwpfCtl->stats();
    if (faults)
        out.faultStats = faults->stats();
    return out;
}

void
Experiment::collectMetrics(observe::MetricsRegistry &registry,
                           const RunMetrics &metrics)
{
    auto add = [&registry](const std::string &name, double value,
                           const char *desc) {
        registry.set(name, value, desc);
    };

    add("run.halted", metrics.halted ? 1.0 : 0.0,
        "run reached Halt before the cycle limit");
    add("run.cycles", static_cast<double>(metrics.cycles),
        "simulated cycles");
    add("run.retired", static_cast<double>(metrics.retired),
        "retired instructions");
    add("run.cpi", metrics.cpi, "cycles per retired instruction");
    add("run.exec_tier",
        metrics.execTier == ExecTier::DirectThreaded ? 1.0 : 0.0,
        "execution tier (0 = interpreter, 1 = direct_threaded)");
    add("tier.blocks_built",
        static_cast<double>(metrics.superblockStats.built),
        "superblocks constructed");
    add("tier.blocks_replaced",
        static_cast<double>(metrics.superblockStats.replaced),
        "superblocks evicted by LRU replacement");
    add("tier.blocks_invalidated",
        static_cast<double>(metrics.superblockStats.invalidated),
        "stale superblocks dropped at lookup");
    add("tier.dispatches",
        static_cast<double>(metrics.superblockStats.dispatches),
        "run()-loop entries into a superblock");
    add("tier.loop_trips",
        static_cast<double>(metrics.superblockStats.loopTrips),
        "inline superblock back-edges taken");
    add("tier.chained",
        static_cast<double>(metrics.superblockStats.chained),
        "direct block-to-block transitions (no interpreter round-trip)");
    add("tier.blocks_demoted",
        static_cast<double>(metrics.superblockStats.demoted),
        "superblocks removed by the profitability oracle");
    add("tier.fused_pairs",
        static_cast<double>(metrics.superblockStats.fusedPairs),
        "instruction pairs fused into combined uops at build");
    add("tier.region_gen_bumps", static_cast<double>(metrics.regionGenBumps),
        "CodeImage region-generation bumps over the run (all sources)");

    add("run.dear_misses", static_cast<double>(metrics.dearMisses),
        "DEAR-qualifying D-cache load misses");
    add("run.dear_per_1000", metrics.dearPer1000,
        "DEAR-qualifying misses per 1000 instructions");
    add("run.seconds_at_900mhz", metrics.secondsAt900MHz(),
        "wall-clock seconds at the paper's 900 MHz machine");

    add("mem.loads", static_cast<double>(metrics.memStats.loads),
        "demand data loads");
    add("mem.stores", static_cast<double>(metrics.memStats.stores),
        "demand data stores");
    add("mem.prefetches_issued",
        static_cast<double>(metrics.memStats.prefetchesIssued),
        "lfetch requests issued to the hierarchy");
    add("mem.prefetches_dropped",
        static_cast<double>(metrics.memStats.prefetchesDropped),
        "lfetch requests throttled (prefetch queue full)");
    add("mem.prefetches_useless",
        static_cast<double>(metrics.memStats.prefetchesUseless),
        "lfetch requests whose line was already resident");
    add("mem.ifetches", static_cast<double>(metrics.memStats.ifetches),
        "bundle fetches");
    add("mem.ifetch_miss_rate", metrics.memStats.ifetchMissRate(),
        "L1I miss rate of bundle fetches");

    struct Level
    {
        const char *name;
        const CacheStats *stats;
    };
    const Level levels[] = {{"l1i", &metrics.l1iStats},
                            {"l1d", &metrics.l1dStats},
                            {"l2", &metrics.l2Stats},
                            {"l3", &metrics.l3Stats}};
    for (const Level &level : levels) {
        std::string p(level.name);
        const CacheStats &s = *level.stats;
        add(p + ".accesses", static_cast<double>(s.accesses),
            "cache accesses");
        add(p + ".hits", static_cast<double>(s.hits), "cache hits");
        add(p + ".misses", static_cast<double>(s.misses), "cache misses");
        add(p + ".miss_rate", s.missRate(), "misses / accesses");
        add(p + ".in_flight_hits", static_cast<double>(s.inFlightHits),
            "hits on lines whose fill was still pending");
        add(p + ".prefetch_fills", static_cast<double>(s.prefetchFills),
            "lines filled by prefetches");
        add(p + ".demand_fills", static_cast<double>(s.demandFills),
            "lines filled by demand misses");
        add(p + ".evictions", static_cast<double>(s.evictions),
            "lines evicted");
    }

    const CompileReport &cr = metrics.compileReport;
    int swp_loops = 0;
    for (const LoopCompileInfo &li : cr.loops)
        swp_loops += li.softwarePipelined ? 1 : 0;
    add("compile.text_bytes", static_cast<double>(cr.textBytes),
        "compiled text-segment bytes");
    add("compile.loops", static_cast<double>(cr.loops.size()),
        "compiled loops");
    add("compile.loops_scheduled_for_prefetch",
        static_cast<double>(cr.loopsScheduledForPrefetch),
        "loops the static prefetch pass scheduled");
    add("compile.static_lfetches",
        static_cast<double>(cr.prefetchesInserted),
        "compiler-inserted lfetch instructions");
    add("compile.swp_loops", static_cast<double>(swp_loops),
        "software-pipelined loops");

    if (metrics.faultsUsed) {
        const fault::FaultStats &f = metrics.faultStats;
        add("fault.batches_dropped",
            static_cast<double>(f.batchesDropped),
            "SSB overflow batches dropped before the UEB");
        add("fault.batches_duplicated",
            static_cast<double>(f.batchesDuplicated),
            "SSB overflow batches delivered twice");
        add("fault.dear_aliased", static_cast<double>(f.dearAliased),
            "DEAR miss addresses aliased");
        add("fault.counters_jittered",
            static_cast<double>(f.countersJittered),
            "samples with jittered PMU counters");
        add("fault.btb_corrupted", static_cast<double>(f.btbCorrupted),
            "samples with corrupted BTB paths");
        add("fault.patches_failed",
            static_cast<double>(f.patchesFailed),
            "trace commits refused by injected patch failure");
        add("fault.optimizer_stalls",
            static_cast<double>(f.optimizerStalls),
            "injected optimizer stalls (watchdog channel)");
        add("fault.mem_fills_jittered",
            static_cast<double>(f.memFillsJittered),
            "memory fills with injected extra latency");
        add("fault.bus_squeezes", static_cast<double>(f.busSqueezes),
            "memory fills with injected extra bus occupancy");
        add("fault.total", static_cast<double>(f.total()),
            "total injected faults across all channels");
    }

    if (metrics.guardrailsUsed) {
        const GuardrailStats &g = metrics.guardrailStats;
        add("guardrail.staged_reverts",
            static_cast<double>(g.stagedReverts),
            "single-trace reverts (stage 1)");
        add("guardrail.full_reverts", static_cast<double>(g.fullReverts),
            "whole-batch reverts (stage 2)");
        add("guardrail.reopt_blocked",
            static_cast<double>(g.reoptBlocked),
            "optimize attempts denied by re-optimization backoff");
        add("guardrail.heads_blacklisted",
            static_cast<double>(g.headsBlacklisted),
            "trace heads permanently blacklisted");
        add("guardrail.sampling_backoffs",
            static_cast<double>(g.samplingBackoffs),
            "sampling-interval doublings on phase thrash");
        add("guardrail.sampling_restores",
            static_cast<double>(g.samplingRestores),
            "sampling-interval restorations after calm");
        add("guardrail.prefetch_damped",
            static_cast<double>(g.prefetchDamped),
            "prefetch throttle transitions to damped");
        add("guardrail.prefetch_disabled",
            static_cast<double>(g.prefetchDisabled),
            "prefetch throttle transitions to disabled");
        add("guardrail.prefetch_restored",
            static_cast<double>(g.prefetchRestored),
            "prefetch throttle step-downs after calm");
        add("guardrail.pool_exhausted_rejects",
            static_cast<double>(g.poolExhaustedRejects),
            "trace commits refused by pool exhaustion");
        add("guardrail.patch_failures",
            static_cast<double>(g.patchFailures),
            "patch failures absorbed by the guardrails");
        add("guardrail.watchdog_fires",
            static_cast<double>(g.watchdogFires),
            "optimizer phases cancelled by the watchdog");
        if (metrics.hwPrefetchUsed) {
            add("guardrail.hwpf_damped",
                static_cast<double>(g.hwPrefetchDamped),
                "hw-prefetch throttle rung steps to damped");
            add("guardrail.hwpf_disabled",
                static_cast<double>(g.hwPrefetchDisabled),
                "hw-prefetch throttle rung steps to disabled");
            add("guardrail.hwpf_restored",
                static_cast<double>(g.hwPrefetchRestored),
                "hw-prefetch throttle rung recoveries");
        }
    }

    // Gated on hwPrefetchUsed so runs without the engine keep a
    // byte-identical metric set (the bit-identity and golden tests
    // compare whole JSON blobs).
    if (metrics.hwPrefetchUsed) {
        const HwPrefetchStats &h = metrics.hwpfStats;
        add("hwpf.issued", static_cast<double>(h.issued()),
            "hardware prefetches issued to the bus (all prefetchers)");
        add("hwpf.dropped", static_cast<double>(h.dropped()),
            "hardware prefetches throttled (shared prefetch queue full)");
        add("hwpf.useless", static_cast<double>(h.useless()),
            "hardware prefetches whose line was already resident");
        struct Pf
        {
            const char *name;
            const HwPrefetcherStats *stats;
        };
        const Pf pfs[] = {{"stride", &h.stride},
                          {"vldp", &h.vldp},
                          {"pointer", &h.pointer}};
        for (const Pf &pf : pfs) {
            std::string p = std::string("hwpf.") + pf.name;
            const HwPrefetcherStats &s = *pf.stats;
            add(p + "_trained", static_cast<double>(s.trained),
                "prefetcher table-update events");
            add(p + "_predictions", static_cast<double>(s.predictions),
                "candidate lines predicted");
            add(p + "_issued", static_cast<double>(s.issued),
                "candidates issued to the bus");
            add(p + "_dropped", static_cast<double>(s.dropped),
                "candidates throttled");
            add(p + "_useless", static_cast<double>(s.useless),
                "candidates already resident");
        }
        if (metrics.hwpfControllerUsed) {
            const HwPrefetchControllerStats &c =
                metrics.hwpfControllerStats;
            add("hwpf.controller_polls", static_cast<double>(c.polls),
                "adaptive-controller polls");
            add("hwpf.phase_retunes",
                static_cast<double>(c.phaseRetunes),
                "controller resets on phase change");
            add("hwpf.degree_ups", static_cast<double>(c.degreeUps),
                "controller degree increases");
            add("hwpf.degree_downs", static_cast<double>(c.degreeDowns),
                "controller degree decreases");
            add("hwpf.disables",
                static_cast<double>(c.prefetcherDisables),
                "prefetchers turned off by the controller");
            add("hwpf.guardrail_caps",
                static_cast<double>(c.guardrailCaps),
                "polls newly capped by the guardrail rung");
        }
    }

    add("adore.used", metrics.adoreUsed ? 1.0 : 0.0,
        "dynamic optimizer attached");
    if (!metrics.adoreUsed)
        return;
    const AdoreStats &a = metrics.adoreStats;
    add("adore.windows_processed",
        static_cast<double>(a.windowsProcessed),
        "profile windows consumed by the optimizer");
    add("adore.window_doublings", static_cast<double>(a.windowDoublings),
        "sampling-window doublings (unstable behaviour)");
    add("adore.phases_detected", static_cast<double>(a.phasesDetected),
        "stable phases detected");
    add("adore.phase_changes", static_cast<double>(a.phaseChanges),
        "phase changes");
    add("adore.phases_skipped_low_miss",
        static_cast<double>(a.phasesSkippedLowMiss),
        "stable phases skipped: miss rate below threshold");
    add("adore.phases_skipped_in_pool",
        static_cast<double>(a.phasesSkippedInPool),
        "stable phases skipped: already running from the pool");
    add("adore.phases_optimized", static_cast<double>(a.phasesOptimized),
        "phases with at least one trace patched");
    add("adore.phases_prefetched",
        static_cast<double>(a.phasesPrefetched),
        "phases with at least one prefetch inserted");
    add("adore.traces_selected", static_cast<double>(a.tracesSelected),
        "traces grown from the BTB path profile");
    add("adore.loop_traces", static_cast<double>(a.loopTraces),
        "selected traces ending in a backedge");
    add("adore.traces_patched", static_cast<double>(a.tracesPatched),
        "traces committed to the pool and patched");
    add("adore.traces_skipped_lfetch",
        static_cast<double>(a.tracesSkippedLfetch),
        "traces skipped: compiler lfetch already covers them");
    add("adore.traces_skipped_swp",
        static_cast<double>(a.tracesSkippedSwp),
        "traces skipped: software-pipelined loop");
    add("adore.traces_skipped_patched",
        static_cast<double>(a.tracesSkippedPatched),
        "traces skipped: head already patched");
    add("adore.prefetches_direct", a.directPrefetches,
        "direct-pattern prefetches inserted");
    add("adore.prefetches_indirect", a.indirectPrefetches,
        "indirect-pattern prefetches inserted");
    add("adore.prefetches_pointer", a.pointerPrefetches,
        "pointer-chasing prefetches inserted");
    add("adore.loads_skipped_no_regs", a.loadsSkippedNoRegs,
        "delinquent loads dropped: reserved registers exhausted");
    add("adore.loads_skipped_unknown", a.loadsSkippedUnknown,
        "delinquent loads dropped: unknown reference pattern");
    add("adore.bundles_inserted", a.bundlesInserted,
        "new body bundles inserted for prefetch code");
    add("adore.slots_filled", a.slotsFilled,
        "prefetch instructions placed in free slots");
    add("adore.phases_reverted", static_cast<double>(a.phasesReverted),
        "optimization batches reverted as nonprofitable");
    add("adore.traces_unpatched", static_cast<double>(a.tracesUnpatched),
        "traces unpatched by reverts");
    add("adore.traces_rejected_pool_full",
        static_cast<double>(a.tracesRejectedPoolFull),
        "trace commits rejected: trace pool exhausted");
    add("adore.traces_patch_failed",
        static_cast<double>(a.tracesPatchFailed),
        "trace commits rejected: injected patch failure");
    add("adore.phases_watchdog_cancelled",
        static_cast<double>(a.phasesWatchdogCancelled),
        "phase optimizations cancelled by the watchdog");
    add("adore.traces_commit_stale",
        static_cast<double>(a.tracesCommitStale),
        "async trace commits refused: head patched meanwhile");
    add("adore.region_gen_bumps", static_cast<double>(a.regionGenBumps),
        "region generations bumped by runtime pool writes and patches");

    const SamplerStats &p = metrics.samplerStats;
    add("pmu.samples_taken", static_cast<double>(p.samplesTaken),
        "PMU samples recorded into the SSB");
    add("pmu.overflows", static_cast<double>(p.overflows),
        "SSB overflow signals");
    add("pmu.batches_delivered",
        static_cast<double>(p.batchesDelivered),
        "SSB batches accepted by the overflow handler");
    add("pmu.dropped_batches", static_cast<double>(p.totalDropped()),
        "SSB batches lost for any reason");
    add("pmu.dropped_fault", static_cast<double>(p.droppedFault),
        "SSB batches dropped by the injected drop-batch fault");
    add("pmu.dropped_consumer_behind",
        static_cast<double>(p.droppedConsumerBehind),
        "SSB batches dropped: optimizer sample queue was full");

    add("optimizer.mode",
        static_cast<double>(static_cast<int>(metrics.optimizerMode)),
        "optimizer threading mode (0 sync, 1 barrier, 2 free)");
    if (metrics.optimizerServiceUsed) {
        const OptimizerServiceStats &o = metrics.optimizerStats;
        add("optimizer.queue_enqueued",
            static_cast<double>(o.batchesEnqueued),
            "sample batches accepted by the bounded queue");
        add("optimizer.queue_dropped",
            static_cast<double>(o.batchesDropped),
            "sample batches refused: bounded queue full");
        add("optimizer.ticks_processed",
            static_cast<double>(o.ticksProcessed),
            "free-running poll ticks processed by the worker");
        add("optimizer.ticks_dropped",
            static_cast<double>(o.ticksDropped),
            "poll ticks dropped (deltas carried to the next tick)");
        add("optimizer.barrier_polls",
            static_cast<double>(o.barrierPolls),
            "barrier-mode polls executed by the worker");
        add("optimizer.commits_applied",
            static_cast<double>(o.commitsApplied),
            "planned trace commits applied at safe points");
        add("optimizer.commits_stale",
            static_cast<double>(o.commitsStale),
            "planned trace commits refused stale at apply");
        add("optimizer.requests_dropped",
            static_cast<double>(o.requestsDropped),
            "commit/unpatch requests refused: queue full");
        add("optimizer.watchdog_host_cancels",
            static_cast<double>(o.watchdogHostCancels),
            "host-time watchdog cancellations requested");
    }
}

std::string
Experiment::metricsJson(const RunMetrics &metrics)
{
    observe::MetricsRegistry registry;
    collectMetrics(registry, metrics);
    return registry.toJson();
}

std::vector<RunOutcome>
Experiment::runManyChecked(const std::vector<RunSpec> &specs,
                           unsigned jobs)
{
    std::vector<RunOutcome> outcomes(specs.size());
    ThreadPool pool(jobs);
    pool.parallelFor(specs.size(), [&](std::size_t i) {
        RunOutcome &out = outcomes[i];
        if (!specs[i].prog) {
            out.error = "spec has no program";
            return;
        }
        // Crash isolation: a throwing job poisons only its own slot.
        // parallelFor would rethrow out of the batch otherwise, and the
        // lane that threw would stop claiming indices.
        try {
            out.metrics = run(*specs[i].prog, specs[i].cfg);
            out.ok = true;
        } catch (const std::exception &e) {
            out.error = e.what();
        } catch (...) {
            out.error = "unknown exception";
        }
    });
    return outcomes;
}

std::vector<RunMetrics>
Experiment::runMany(const std::vector<RunSpec> &specs, unsigned jobs)
{
    std::vector<RunOutcome> outcomes = runManyChecked(specs, jobs);
    std::string failures;
    std::vector<RunMetrics> results(specs.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].ok) {
            results[i] = std::move(outcomes[i].metrics);
            continue;
        }
        failures += failures.empty() ? "runMany failures: " : "; ";
        failures += "spec " + std::to_string(i) + " (" +
                    (specs[i].prog ? specs[i].prog->name : "<null>") +
                    "): " + outcomes[i].error;
    }
    if (!failures.empty())
        throw std::runtime_error(failures);
    return results;
}

MissProfile
Experiment::collectProfile(const hir::Program &prog,
                           const CompileOptions &train_opts,
                           double coverage)
{
    Machine machine;
    DataLayout data(machine.memory());
    Compiler compiler(machine.config().hier);
    CompileReport report =
        compiler.compile(prog, train_opts, machine.code(), data);
    machine.cpu().setPc(report.entry);

    // Plain perfmon-style sampling without any optimizer: collect every
    // (deduplicated) DEAR event into per-pc totals.
    struct PcAgg
    {
        Addr pc;
        std::uint64_t totalLatency = 0;
    };
    std::unordered_map<Addr, std::uint64_t> totals;

    SamplerConfig scfg;
    scfg.interval = 4'000;
    scfg.ssbSamples = 64;
    Sampler sampler(scfg);
    DearRecord prev{};
    sampler.setOverflowHandler(
        [&totals, &prev](const std::vector<Sample> &ssb) {
            for (const Sample &s : ssb) {
                const DearRecord &d = s.dear;
                if (!d.valid)
                    continue;
                if (prev.valid && prev.pc == d.pc &&
                    prev.missAddr == d.missAddr &&
                    prev.latency == d.latency) {
                    continue;
                }
                prev = d;
                totals[d.pc] += d.latency;
            }
            return true;
        });
    machine.cpu().setSampler(&sampler);
    sampler.setEnabled(true, 0);

    machine.cpu().run(4'000'000'000ULL);

    // Sort delinquent loads by decreasing total latency and take loads
    // until the requested latency coverage is reached (Section 4.2).
    std::vector<PcAgg> sorted;
    std::uint64_t grand_total = 0;
    for (const auto &[pc, lat] : totals) {
        sorted.push_back({pc, lat});
        grand_total += lat;
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const PcAgg &a, const PcAgg &b) {
                  if (a.totalLatency != b.totalLatency)
                      return a.totalLatency > b.totalLatency;
                  return a.pc < b.pc;
              });

    MissProfile profile;
    std::uint64_t acc = 0;
    for (const PcAgg &entry : sorted) {
        if (grand_total > 0 &&
            static_cast<double>(acc) >=
                coverage * static_cast<double>(grand_total)) {
            break;
        }
        acc += entry.totalLatency;
        int loop_id = machine.code().loopIdAt(entry.pc);
        if (loop_id >= 0)
            profile.hotLoops.insert(loop_id);
    }
    return profile;
}

} // namespace adore
