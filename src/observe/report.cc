#include "observe/report.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "observe/exporters.hh"
#include "observe/figures.hh"
#include "support/logging.hh"
#include "workloads/workloads.hh"

namespace adore::report
{

namespace
{

const char *
levelName(OptLevel level)
{
    return level == OptLevel::O3 ? "O3" : "O2";
}

std::string
hexAddr(std::uint64_t addr)
{
    return fmt("0x%llx", static_cast<unsigned long long>(addr));
}

} // namespace

bool
parseScenario(const std::string &name, ScenarioSpec &spec)
{
    auto us = name.rfind('_');
    if (us == std::string::npos)
        return false;
    std::string workload = name.substr(0, us);
    std::string level = name.substr(us + 1);
    if (level == "o2") {
        spec.level = OptLevel::O2;
    } else if (level == "o3") {
        spec.level = OptLevel::O3;
    } else {
        return false;
    }
    for (const auto &info : workloads::allWorkloads()) {
        if (info.name == workload) {
            spec.workload = workload;
            return true;
        }
    }
    return false;
}

std::vector<std::string>
allScenarioNames()
{
    std::vector<std::string> names;
    for (const char *suffix : {"_o2", "_o3"})
        for (const auto &info : workloads::allWorkloads())
            names.push_back(info.name + suffix);
    return names;
}

ScenarioResult
runScenario(const std::string &name)
{
    ScenarioResult result;
    result.name = name;
    panic_if(!parseScenario(name, result.spec),
             "unknown scenario '%s'", name.c_str());

    hir::Program prog = workloads::make(result.spec.workload);
    bool o3 = result.spec.level == OptLevel::O3;

    observe::EventTrace events(1 << 16);
    events.enable();

    RunConfig base_cfg = armConfig(o3 ? Arm::O3Base : Arm::O2Base);
    RunConfig opt_cfg = armConfig(o3 ? Arm::O3Adore : Arm::O2Adore);
    opt_cfg.adoreConfig.events = &events;

    // Two independent simulations; only the optimized one records
    // events, so fanning out over the pool is safe.
    std::vector<RunSpec> specs{{&prog, base_cfg}, {&prog, opt_cfg}};
    std::vector<RunMetrics> runs = Experiment::runMany(specs);
    result.baseline = runs[0];
    result.optimized = runs[1];
    result.events = events.snapshot();
    result.eventsDropped = events.dropped();
    return result;
}

std::string
markdownReport(const ScenarioResult &r)
{
    std::ostringstream out;
    const RunMetrics &base = r.baseline;
    const RunMetrics &opt = r.optimized;
    const AdoreStats &st = opt.adoreStats;
    const char *lvl = levelName(r.spec.level);

    out << "# ADORE report — " << r.spec.workload << " (restricted "
        << lvl << ")\n\n";
    out << "Generated by `adore_report " << r.name
        << "` on the simulated Itanium-2-class machine "
           "(DESIGN.md §6); baseline and optimized runs share the "
           "compile, only the runtime differs.  Execution tier: `"
        << execTierName(r.baseline.execTier)
        << "` (DESIGN.md §12; both tiers produce bit-identical "
           "results).\n\n";

    out << "## Summary\n\n";
    out << "| metric | " << lvl << " baseline | " << lvl
        << " + ADORE |\n|---|---|---|\n";
    out << "| cycles | " << base.cycles << " | " << opt.cycles << " |\n";
    out << "| retired instructions | " << base.retired << " | "
        << opt.retired << " |\n";
    out << fmt("| CPI | %.3f | %.3f |\n", base.cpi, opt.cpi);
    out << fmt("| DEAR misses / 1000 insn | %.2f | %.2f |\n",
               base.dearPer1000, opt.dearPer1000);
    out << "| **speedup** | — | **"
        << signedPct(Experiment::speedup(base.cycles, opt.cycles))
        << "** |\n\n";

    out << "## Phase behaviour\n\n";
    out << fmt("%llu stable phase(s) detected, %llu optimized, "
               "%llu skipped (miss rate below threshold), "
               "%llu skipped (already running from the trace pool); "
               "%llu profile windows processed, %llu window "
               "doubling(s).\n\n",
               static_cast<unsigned long long>(st.phasesDetected),
               static_cast<unsigned long long>(st.phasesOptimized),
               static_cast<unsigned long long>(st.phasesSkippedLowMiss),
               static_cast<unsigned long long>(st.phasesSkippedInPool),
               static_cast<unsigned long long>(st.windowsProcessed),
               static_cast<unsigned long long>(st.windowDoublings));
    bool any_phase = false;
    for (const observe::Event &event : r.events) {
        const auto *phase =
            std::get_if<observe::StablePhaseEvent>(&event.payload);
        if (!phase)
            continue;
        if (!any_phase) {
            out << "| phase | detected @cycle | CPI | D-miss/insn | "
                   "pc center | high miss rate |\n"
                   "|---|---|---|---|---|---|\n";
            any_phase = true;
        }
        out << fmt("| #%llu | %llu | %.2f | %.5f | %s | %s |\n",
                   static_cast<unsigned long long>(phase->phaseId),
                   static_cast<unsigned long long>(event.cycle),
                   phase->cpi, phase->dpi,
                   hexAddr(phase->pcCenter).c_str(),
                   phase->highMissRate ? "yes" : "no");
    }
    if (!any_phase && st.phasesDetected > 0)
        out << "(per-phase detail unavailable: decision tracing "
               "disabled or compiled out)\n";
    else if (!any_phase)
        out << "No stable phase was detected (the gzip failure mode: "
               "the run is too short or too unstable to optimize).\n";
    out << "\n";

    out << "## Delinquent loads\n\n";
    bool any_load = false;
    for (const observe::Event &event : r.events) {
        const auto *load =
            std::get_if<observe::DelinquentLoadEvent>(&event.payload);
        if (!load)
            continue;
        if (!any_load) {
            out << "| load pc | pattern | avg latency | DEAR samples | "
                   "stride (bytes) |\n|---|---|---|---|---|\n";
            any_load = true;
        }
        out << fmt("| %s | %s | %u | %llu | %lld |\n",
                   hexAddr(load->pc).c_str(), load->pattern,
                   load->avgLatency,
                   static_cast<unsigned long long>(load->samples),
                   static_cast<long long>(load->strideBytes));
    }
    int total_prefetched = st.directPrefetches + st.indirectPrefetches +
                           st.pointerPrefetches;
    if (!any_load && total_prefetched > 0)
        out << "(per-load detail unavailable: decision tracing "
               "disabled or compiled out)\n";
    else if (!any_load)
        out << "No delinquent loads were selected for prefetching.\n";
    out << "\n";

    out << "## Prefetches inserted\n\n";
    bool any_pf = false;
    for (const observe::Event &event : r.events) {
        const auto *pf =
            std::get_if<observe::PrefetchInsertedEvent>(&event.payload);
        if (!pf)
            continue;
        if (!any_pf) {
            out << "| kind | load pc | distance (iters) | body bundle | "
                   "reused free slot |\n|---|---|---|---|---|\n";
            any_pf = true;
        }
        out << fmt("| %s | %s | %u | %d | %s |\n", pf->kind,
                   hexAddr(pf->loadPc).c_str(), pf->distanceIters,
                   pf->bundle, pf->filledFreeSlot ? "yes" : "no");
    }
    if (!any_pf && total_prefetched > 0)
        out << "(per-prefetch detail unavailable: decision tracing "
               "disabled or compiled out)\n";
    else if (!any_pf)
        out << "No prefetches were inserted.\n";
    out << fmt("\nTotals: %d direct, %d indirect, %d pointer-chasing; "
               "%d instruction(s) placed in free slots, %d new "
               "bundle(s) inserted; skipped %d (no registers), %d "
               "(unknown pattern).\n\n",
               st.directPrefetches, st.indirectPrefetches,
               st.pointerPrefetches, st.slotsFilled, st.bundlesInserted,
               st.loadsSkippedNoRegs, st.loadsSkippedUnknown);

    out << "## Traces\n\n";
    bool any_trace = false;
    for (const observe::Event &event : r.events) {
        const auto *patched =
            std::get_if<observe::TracePatchedEvent>(&event.payload);
        if (!patched)
            continue;
        if (!any_trace) {
            out << "| original pc | pool address | body bundles | "
                   "init bundles |\n|---|---|---|---|\n";
            any_trace = true;
        }
        out << fmt("| %s | %s | %u | %u |\n",
                   hexAddr(patched->origAddr).c_str(),
                   hexAddr(patched->poolAddr).c_str(),
                   patched->bodyBundles, patched->initBundles);
    }
    if (!any_trace && st.tracesPatched > 0)
        out << "(per-trace detail unavailable: decision tracing "
               "disabled or compiled out)\n";
    else if (!any_trace)
        out << "No trace was patched.\n";
    out << fmt("\n%llu trace(s) selected (%llu loops), %llu patched; "
               "skipped: %llu compiler-lfetch, %llu software-pipelined, "
               "%llu already patched.\n\n",
               static_cast<unsigned long long>(st.tracesSelected),
               static_cast<unsigned long long>(st.loopTraces),
               static_cast<unsigned long long>(st.tracesPatched),
               static_cast<unsigned long long>(st.tracesSkippedLfetch),
               static_cast<unsigned long long>(st.tracesSkippedSwp),
               static_cast<unsigned long long>(st.tracesSkippedPatched));

    out << "## Cache behaviour\n\n";
    out << "| level | baseline miss rate | ADORE miss rate | prefetch "
           "fills (ADORE) |\n|---|---|---|---|\n";
    struct Level
    {
        const char *name;
        const CacheStats &b;
        const CacheStats &o;
    };
    const Level levels[] = {{"L1D", base.l1dStats, opt.l1dStats},
                            {"L2", base.l2Stats, opt.l2Stats},
                            {"L3", base.l3Stats, opt.l3Stats},
                            {"L1I", base.l1iStats, opt.l1iStats}};
    for (const Level &level : levels) {
        out << fmt("| %s | %.1f%% | %.1f%% | %llu |\n", level.name,
                   level.b.missRate() * 100.0,
                   level.o.missRate() * 100.0,
                   static_cast<unsigned long long>(
                       level.o.prefetchFills));
    }
    out << fmt("\nPrefetches issued %llu, dropped (queue full) %llu, "
               "useless (line already resident) %llu.\n\n",
               static_cast<unsigned long long>(
                   opt.memStats.prefetchesIssued),
               static_cast<unsigned long long>(
                   opt.memStats.prefetchesDropped),
               static_cast<unsigned long long>(
                   opt.memStats.prefetchesUseless));

    out << "## Guardrail\n\n";
    const RunMetrics &g_m = opt;
    out << (g_m.guardrailsUsed
                ? "On: an in-pool phase whose CPI regressed past its "
                  "batch's pre-optimization CPI reverts its trace and "
                  "blacklists the head.\n"
                : "Off for this run (enable with "
                  "`AdoreConfig::guardrails`; the chaos driver "
                  "`adore_chaos` runs it under fault injection).\n");
    out << fmt("\nRuntime revert state: %llu batch(es) reverted, "
               "%llu trace(s) unpatched, %llu pool-full rejection(s), "
               "%llu patch failure(s), %llu watchdog cancel(s).\n",
               static_cast<unsigned long long>(st.phasesReverted),
               static_cast<unsigned long long>(st.tracesUnpatched),
               static_cast<unsigned long long>(st.tracesRejectedPoolFull),
               static_cast<unsigned long long>(st.tracesPatchFailed),
               static_cast<unsigned long long>(
                   st.phasesWatchdogCancelled));
    if (g_m.faultsUsed) {
        out << fmt("Injected faults: %llu total (see `fault.*` metrics "
                   "for the per-channel split).\n",
                   static_cast<unsigned long long>(
                       g_m.faultStats.total()));
    }
    const SamplerStats &ps = g_m.samplerStats;
    out << fmt("Sampling backpressure: %llu batch(es) delivered, "
               "%llu dropped (%llu injected-fault, %llu no-handler).\n",
               static_cast<unsigned long long>(ps.batchesDelivered),
               static_cast<unsigned long long>(ps.totalDropped()),
               static_cast<unsigned long long>(ps.droppedFault),
               static_cast<unsigned long long>(ps.droppedNoHandler));
    bool any_guardrail_event = false;
    for (const observe::Event &event : r.events) {
        const auto *ge =
            std::get_if<observe::GuardrailEvent>(&event.payload);
        if (!ge)
            continue;
        if (!any_guardrail_event) {
            out << "\n| cycle | action | addr | value |\n"
                   "|---|---|---|---|\n";
            any_guardrail_event = true;
        }
        out << fmt("| %llu | %s | %s | %llu |\n",
                   static_cast<unsigned long long>(event.cycle),
                   ge->action, hexAddr(ge->addr).c_str(),
                   static_cast<unsigned long long>(ge->value));
    }
    out << "\n";

    out << "## Execution tier\n\n";
    if (opt.execTier == ExecTier::DirectThreaded) {
        const SuperblockStats &ts = opt.superblockStats;
        out << "Host-side superblock tier (DESIGN.md §12) for the "
               "ADORE run; all figures are host accounting with no "
               "simulated-timing meaning.\n\n";
        out << "| tier counter | value |\n|---|---|\n";
        out << fmt("| superblocks built / replaced | %llu / %llu |\n",
                   static_cast<unsigned long long>(ts.built),
                   static_cast<unsigned long long>(ts.replaced));
        out << fmt("| invalidated (region generation moved) | %llu |\n",
                   static_cast<unsigned long long>(ts.invalidated));
        out << fmt("| dispatches / inline loop trips | %llu / %llu |\n",
                   static_cast<unsigned long long>(ts.dispatches),
                   static_cast<unsigned long long>(ts.loopTrips));
        out << fmt("| chained block transitions | %llu |\n",
                   static_cast<unsigned long long>(ts.chained));
        out << fmt("| uop pairs fused at build | %llu |\n",
                   static_cast<unsigned long long>(ts.fusedPairs));
        out << fmt("| region generation bumps (image-wide) | %llu |\n",
                   static_cast<unsigned long long>(opt.regionGenBumps));
        out << fmt("\nOf the image-wide generation bumps, %llu were "
                   "caused by ADORE trace commits and patch/revert "
                   "writes (`adore.region_gen_bumps`).\n",
                   static_cast<unsigned long long>(
                       st.regionGenBumps));
    } else {
        out << "Interpreter tier: every bundle decodes through the "
               "step path; no superblocks are formed (select the "
               "direct-threaded tier with "
               "`CpuConfig::execTier`).\n";
    }
    out << "\n";

    out << "## Decision log\n\n";
    constexpr std::size_t kMaxLines = 60;
    std::size_t skip =
        r.events.size() > kMaxLines ? r.events.size() - kMaxLines : 0;
    if (r.eventsDropped > 0) {
        out << fmt("(%llu oldest event(s) overwritten by ring "
                   "wraparound)\n",
                   static_cast<unsigned long long>(r.eventsDropped));
    }
    if (skip > 0)
        out << fmt("(showing the last %zu of %zu events)\n", kMaxLines,
                   r.events.size());
    out << "\n```\n";
    for (std::size_t i = skip; i < r.events.size(); ++i)
        out << observe::renderEventLine(r.events[i]) << "\n";
    out << "```\n";
    return out.str();
}

// --------------------------------------------------------------------
// EXPERIMENTS.md regeneration
// --------------------------------------------------------------------

std::vector<GeneratedBlock>
generatedBlocks(const std::string &text)
{
    const std::string beginMark = "<!-- BEGIN GENERATED: ";
    const std::string endMark = "<!-- END GENERATED: ";
    auto fail = [](int line, const std::string &what) {
        throw std::runtime_error("line " + std::to_string(line) + ": " +
                                 what);
    };

    std::vector<GeneratedBlock> blocks;
    bool open = false;
    int openLine = 0;
    int line = 0;
    for (std::size_t pos = 0; pos < text.size();) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        ++line;
        std::string_view row(text.data() + pos, eol - pos);
        bool isBegin = row.starts_with(beginMark);
        bool isEnd = row.starts_with(endMark);
        if (isBegin || isEnd) {
            std::size_t tagAt = (isBegin ? beginMark : endMark).size();
            std::size_t close = row.find(" -->", tagAt);
            if (close == std::string_view::npos)
                fail(line, "unterminated generated-block marker");
            std::string tag(row.substr(tagAt, close - tagAt));
            if (isBegin) {
                if (open)
                    fail(openLine, "BEGIN GENERATED: " + blocks.back().tag +
                                       " has no END before the next marker");
                const Figure *fig = findFigure(tag);
                if (!fig || !fig->block) {
                    std::string known;
                    for (const Figure &f : figureCatalogue())
                        if (f.block)
                            known += " " + f.name;
                    fail(line, "unknown generated block '" + tag +
                                   "' (blocks:" + known + ")");
                }
                for (const GeneratedBlock &b : blocks)
                    if (b.tag == tag)
                        fail(line, "duplicate BEGIN GENERATED: " + tag);
                blocks.push_back({tag, pos + close + 4, 0});
                open = true;
                openLine = line;
            } else {
                if (!open || blocks.back().tag != tag)
                    fail(line, "END GENERATED: " + tag +
                                   " has no BEGIN before it");
                blocks.back().bodyEnd = pos;
                open = false;
            }
        }
        pos = eol + 1;
    }
    if (open)
        fail(openLine, "BEGIN GENERATED: " + blocks.back().tag +
                           " has no END");
    return blocks;
}

std::string
regenerateExperiments(const std::string &text)
{
    std::vector<GeneratedBlock> blocks = generatedBlocks(text);
    if (blocks.empty()) {
        warn("regenerateExperiments: no generated-block markers found");
        return text;
    }
    std::vector<const Figure *> figures;
    for (const GeneratedBlock &block : blocks)
        figures.push_back(findFigure(block.tag));
    FigurePlan plan(figures);
    std::vector<std::string> bodies = plan.run();

    // Splice back to front so earlier offsets stay valid.
    std::string out = text;
    for (std::size_t i = blocks.size(); i-- > 0;) {
        out.replace(blocks[i].bodyBegin,
                    blocks[i].bodyEnd - blocks[i].bodyBegin,
                    "\n<!-- Regenerate with `adore_report "
                    "--regen-experiments`; do not edit by hand. -->\n" +
                        bodies[i]);
    }
    return out;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

} // namespace adore::report
