#include "harness/experiment.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
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

namespace
{

/** Export every field of @p stats that has a metric name as
 *  "<prefix><metric>", except metrics starting with a nonempty
 *  @p skip. */
template <typename S>
void
addStats(observe::MetricsRegistry &registry, const std::string &prefix,
         const S &stats, std::string_view skip = {})
{
    S::forEachField([&](const StatField &f, auto member) {
        if (f.metric && (skip.empty() ||
                         !std::string_view(f.metric).starts_with(skip)))
            registry.set(prefix + f.metric,
                         static_cast<double>(stats.*member), f.description);
    });
}

} // namespace

void
Experiment::collectMetrics(observe::MetricsRegistry &registry,
                           const RunMetrics &metrics)
{
    // The counter structs export themselves from their field lists;
    // only flags, derived rates and totals are written out here.
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
    addStats(registry, "tier.", metrics.superblockStats);
    add("tier.region_gen_bumps", static_cast<double>(metrics.regionGenBumps),
        "CodeImage region-generation bumps over the run (all sources)");

    add("run.dear_misses", static_cast<double>(metrics.dearMisses),
        "DEAR-qualifying D-cache load misses");
    add("run.dear_per_1000", metrics.dearPer1000,
        "DEAR-qualifying misses per 1000 instructions");
    add("run.seconds_at_900mhz", metrics.secondsAt900MHz(),
        "wall-clock seconds at the paper's 900 MHz machine");

    addStats(registry, "mem.", metrics.memStats);
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
        std::string p = std::string(level.name) + ".";
        addStats(registry, p, *level.stats);
        add(p + "miss_rate", level.stats->missRate(), "misses / accesses");
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
        addStats(registry, "fault.", metrics.faultStats);
        add("fault.total", static_cast<double>(metrics.faultStats.total()),
            "total injected faults across all channels");
    }

    // The guardrails' hw-prefetch rung exists only with the engine.
    if (metrics.guardrailsUsed)
        addStats(registry, "guardrail.", metrics.guardrailStats,
                 metrics.hwPrefetchUsed ? "" : "hwpf_");

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
        addStats(registry, "hwpf.stride_", h.stride);
        addStats(registry, "hwpf.vldp_", h.vldp);
        addStats(registry, "hwpf.pointer_", h.pointer);
        if (metrics.hwpfControllerUsed)
            addStats(registry, "hwpf.", metrics.hwpfControllerStats);
    }

    add("adore.used", metrics.adoreUsed ? 1.0 : 0.0,
        "dynamic optimizer attached");
    if (!metrics.adoreUsed)
        return;
    addStats(registry, "adore.", metrics.adoreStats);

    addStats(registry, "pmu.", metrics.samplerStats);
    add("pmu.dropped_batches",
        static_cast<double>(metrics.samplerStats.totalDropped()),
        "SSB batches lost for any reason");

    add("optimizer.mode",
        static_cast<double>(static_cast<int>(metrics.optimizerMode)),
        "optimizer threading mode (0 sync, 1 barrier, 2 free)");
    if (metrics.optimizerServiceUsed)
        addStats(registry, "optimizer.", metrics.optimizerStats);
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
