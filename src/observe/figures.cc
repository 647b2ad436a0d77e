#include "observe/figures.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <sstream>

#include "support/logging.hh"
#include "support/table.hh"
#include "support/thread_pool.hh"
#include "workloads/common.hh"
#include "workloads/workloads.hh"

namespace adore::report
{

std::string
fmt(const char *format, ...)
{
    char buf[256];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof(buf), format, args);
    va_end(args);
    return buf;
}

std::string
signedPct(double speedup)
{
    double pct = speedup * 100.0;
    if (pct < 0)
        return fmt("−%.1f%%", -pct);
    return fmt("+%.1f%%", pct);
}

namespace
{

/** The paper's *original* compilation: SWP on, no registers reserved. */
CompileOptions
originalOptions(OptLevel level)
{
    CompileOptions opts;
    opts.level = level;
    opts.softwarePipelining = true;
    opts.reserveAdoreRegs = false;
    return opts;
}

using Jobs = std::vector<RunSpec>;
using Results = std::vector<RunMetrics>;
using workloads::allWorkloads;

std::string
prefetchMix(const AdoreStats &st)
{
    return fmt("%d/%d/%d", st.directPrefetches, st.indirectPrefetches,
               st.pointerPrefetches);
}

// --------------------------------------------------------------------
// Fig. 7(a), Table 2 and the hardware-prefetching study: the
// EXPERIMENTS.md generated blocks.
// --------------------------------------------------------------------

/** Fig. 7(a) static context: the paper's approximate speedups and the
 *  rows EXPERIMENTS.md bolds (the benchmarks its prose calls out). */
struct PaperRow
{
    const char *name;
    const char *paper;
    bool bold;
};
const PaperRow kFig07aPaper[] = {
    {"mcf", "+57%", true},      {"art", "~+40%", true},
    {"equake", "~+20%", true},  {"fma3d", "~+10%", false},
    {"parser", "~+3%", false},  {"swim", "~+1%", false},
    {"facerec", "~+10%", false}, {"ammp", "~+13%", false},
    {"applu", "~0%", false},    {"vortex", "+2%", false},
    {"vpr", "~0%", false},      {"lucas", "~0%", false},
    {"mesa", "~+4%", false},    {"bzip2", "~+9%", false},
    {"gap", "~0%", false},      {"gzip", "~0%", false},
    {"gcc", "−3.8%", true},
};

const PaperRow *
paperRow(const std::string &name)
{
    for (const PaperRow &row : kFig07aPaper)
        if (name == row.name)
            return &row;
    return nullptr;
}

/** Restricted-O2 speedup of @p arm over the shared baseline. */
double
o2Speedup(const FigurePlan &plan, const std::string &name, Arm arm)
{
    return Experiment::speedup(plan.arm(name, Arm::O2Base).cycles,
                               plan.arm(name, arm).cycles);
}

std::string
renderFig07a(const FigurePlan &plan, const Results &)
{
    struct Row
    {
        std::string name;
        double speedup;
    };
    std::vector<Row> rows;
    for (const auto &info : allWorkloads())
        rows.push_back({info.name, o2Speedup(plan, info.name, Arm::O2Adore)});
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        if (a.speedup != b.speedup)
            return a.speedup > b.speedup;
        return a.name < b.name;
    });

    std::ostringstream out;
    out << "| benchmark | paper (≈) | measured | phases optimized "
           "| prefetches d/i/p |\n|---|---|---|---|---|\n";
    for (const Row &row : rows) {
        const PaperRow *paper = paperRow(row.name);
        std::string pct = signedPct(row.speedup);
        if (paper && paper->bold)
            pct = "**" + pct + "**";
        const AdoreStats &st = plan.arm(row.name, Arm::O2Adore).adoreStats;
        out << "| " << row.name << " | " << (paper ? paper->paper : "?")
            << " | " << pct << " | " << st.phasesOptimized << " | "
            << prefetchMix(st) << " |\n";
    }
    return out.str();
}

std::string
renderTable2(const FigurePlan &plan, const Results &)
{
    std::ostringstream out;
    out << "| benchmark | suite | direct | indirect | pointer-chasing "
           "| phases optimized | L1D miss | L2 miss | L3 miss |\n"
           "|---|---|---|---|---|---|---|---|---|\n";
    for (const auto &info : allWorkloads()) {
        const RunMetrics &rp = plan.arm(info.name, Arm::O2Adore);
        const AdoreStats &st = rp.adoreStats;
        out << "| " << info.name << " | " << (info.fp ? "fp" : "int")
            << " | " << st.directPrefetches << " | "
            << st.indirectPrefetches << " | " << st.pointerPrefetches
            << " | " << st.phasesOptimized << " | "
            << fmt("%.1f%%", rp.l1dStats.missRate() * 100.0) << " | "
            << fmt("%.1f%%", rp.l2Stats.missRate() * 100.0) << " | "
            << fmt("%.1f%%", rp.l3Stats.missRate() * 100.0) << " |\n";
    }
    return out.str();
}

std::string
renderHwpfStudy(const FigurePlan &plan, const Results &)
{
    struct Row
    {
        std::string name;
        double adore, staticO3, hw, both;
    };
    std::vector<Row> rows;
    for (const auto &info : allWorkloads()) {
        const std::string &n = info.name;
        rows.push_back({n, o2Speedup(plan, n, Arm::O2Adore),
                        o2Speedup(plan, n, Arm::O3Base),
                        o2Speedup(plan, n, Arm::O2Hw),
                        o2Speedup(plan, n, Arm::O2HwAdore)});
    }
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        if (a.both != b.both)
            return a.both > b.both;
        return a.name < b.name;
    });

    std::ostringstream out;
    out << "All speedups are relative to the shared restricted-O2 "
           "baseline of the\nfigures above (higher is better; the best "
           "arm per row is bold).  The\nlast two columns describe the "
           "hardware engines in the hw+ADORE run:\nprefetch lines "
           "issued per engine and the fraction of candidates that\n"
           "were already resident in L2.\n\n";
    out << "| benchmark | ADORE | static O3 | hardware | hw+ADORE "
           "| hw issued s/v/p | hw useless |\n"
           "|---|---|---|---|---|---|---|\n";
    for (const Row &r : rows) {
        double best = std::max(std::max(r.adore, r.staticO3),
                               std::max(r.hw, r.both));
        auto cell = [&](double v) {
            std::string pct = signedPct(v);
            return v == best ? "**" + pct + "**" : pct;
        };
        const HwPrefetchStats &hs = plan.arm(r.name, Arm::O2HwAdore).hwpfStats;
        std::uint64_t issued = hs.issued();
        std::uint64_t useless = hs.useless();
        double uselessRate =
            issued + useless ? static_cast<double>(useless) /
                                   static_cast<double>(issued + useless)
                             : 0.0;
        out << "| " << r.name << " | " << cell(r.adore) << " | "
            << cell(r.staticO3) << " | " << cell(r.hw) << " | "
            << cell(r.both) << " | "
            << fmt("%llu/%llu/%llu",
                   static_cast<unsigned long long>(hs.stride.issued),
                   static_cast<unsigned long long>(hs.vldp.issued),
                   static_cast<unsigned long long>(hs.pointer.issued))
            << " | " << fmt("%.1f%%", uselessRate * 100.0) << " |\n";
    }
    return out.str();
}

// --------------------------------------------------------------------
// Console figures.
// --------------------------------------------------------------------

std::string
renderFig07b(const FigurePlan &plan, const Results &)
{
    Table table({"benchmark", "O3 cycles", "+RP cycles", "speedup",
                 "traces skipped (lfetch)", "prefetches(d/i/p)"});
    BarChart chart("Fig 7(b) speedup: O3 + runtime prefetching", "%");
    for (const auto &info : allWorkloads()) {
        const RunMetrics &base = plan.arm(info.name, Arm::O3Base);
        const RunMetrics &rp = plan.arm(info.name, Arm::O3Adore);
        double speedup = Experiment::speedup(base.cycles, rp.cycles);
        table.addRow({info.name, std::to_string(base.cycles),
                      std::to_string(rp.cycles), Table::pct(speedup),
                      std::to_string(rp.adoreStats.tracesSkippedLfetch),
                      prefetchMix(rp.adoreStats)});
        chart.addBar(info.name, speedup);
    }
    return table.render() + "\n" + chart.render() + "\n";
}

/**
 * Table 1: per workload, the original-O3 run, a training run on the
 * original-O2 binary, and the O3 recompile guided by its miss profile.
 */
void
table1Jobs(FigurePlan &plan, Jobs &jobs)
{
    for (const auto &info : allWorkloads()) {
        const hir::Program &prog = plan.program(info.name);
        RunConfig plain;
        plain.compile = originalOptions(OptLevel::O3);
        RunConfig guided = plain;
        guided.compile.profile =
            plan.trainingProfile(prog, originalOptions(OptLevel::O2));
        jobs.push_back({&prog, plain});
        jobs.push_back({&prog, guided});
    }
}

std::string
renderTable1(const FigurePlan &, const Results &runs)
{
    Table table({"Spec2000", "loops O3", "loops O3+Profile", "time O3",
                 "time O3+Profile", "size O3", "size O3+Profile"});
    double filtered_sum = 0.0;
    int filtered_count = 0;
    std::size_t job = 0;
    for (const auto &info : allWorkloads()) {
        const RunMetrics &plain = runs[job++];
        const RunMetrics &prof = runs[job++];
        int loops_o3 = plain.compileReport.loopsScheduledForPrefetch;
        int loops_prof = prof.compileReport.loopsScheduledForPrefetch;
        double norm_time = plain.cycles
                               ? static_cast<double>(prof.cycles) /
                                     static_cast<double>(plain.cycles)
                               : 1.0;
        double norm_size =
            plain.compileReport.textBytes
                ? static_cast<double>(prof.compileReport.textBytes) /
                      static_cast<double>(plain.compileReport.textBytes)
                : 1.0;
        table.addRow({info.name, std::to_string(loops_o3),
                      std::to_string(loops_prof), "1",
                      Table::fmt(norm_time, 3), "1",
                      Table::fmt(norm_size, 3)});
        if (loops_o3 > 0) {
            filtered_sum += 1.0 - static_cast<double>(loops_prof) /
                                      static_cast<double>(loops_o3);
            ++filtered_count;
        }
    }
    std::string out = table.render() + "\n";
    if (filtered_count) {
        out += fmt("average fraction of prefetch loops filtered out: "
                   "%.0f%% (paper: 83%%)\n",
                   filtered_sum / filtered_count * 100.0);
    }
    return out;
}

/**
 * Bucket a series onto an absolute cycle grid shared by both runs, so
 * the optimized curve visibly ends earlier (as in the paper).
 */
std::vector<double>
bucketed(const TimeSeries &series, Cycle span, std::size_t buckets)
{
    std::vector<double> sums(buckets, 0.0);
    std::vector<int> counts(buckets, 0);
    for (const auto &p : series.points()) {
        std::size_t b = static_cast<std::size_t>(
            static_cast<double>(p.cycle) / static_cast<double>(span) *
            static_cast<double>(buckets));
        if (b >= buckets)
            b = buckets - 1;
        sums[b] += p.value;
        ++counts[b];
    }
    std::vector<double> out;
    for (std::size_t b = 0; b < buckets; ++b) {
        if (!counts[b])
            break;  // the run ended: shorter curve
        out.push_back(sums[b] / counts[b]);
    }
    return out;
}

/**
 * Figs. 8 and 9: CPI and DEAR-miss-rate time series of @p workload
 * (printed as @p spec) with and without runtime prefetching, sampled
 * every @p interval cycles.  @p dear is the event name the paper's
 * panel (b) prints.
 */
Figure
seriesFigure(const std::string &name, const std::string &fig,
             const std::string &workload, const std::string &spec,
             Cycle interval, const std::string &dear)
{
    Figure f;
    f.name = name;
    f.title = "Fig. " + fig + " — Runtime Prefetching for " + spec +
              " (time series)";
    f.jobs = [workload, interval](FigurePlan &plan, Jobs &jobs) {
        const hir::Program &prog = plan.program(workload);
        for (Arm arm : {Arm::O2Base, Arm::O2Adore}) {
            RunConfig cfg = armConfig(arm);
            cfg.seriesInterval = interval;
            jobs.push_back({&prog, cfg});
        }
    };
    f.render = [fig, spec, dear](const FigurePlan &, const Results &runs) {
        const RunMetrics &base = runs[0];
        const RunMetrics &rp = runs[1];
        Cycle span = std::max(base.cycles, rp.cycles);
        LineChart cpi("Fig " + fig + "(a): " + spec +
                          " CPI over execution time",
                      "CPI");
        cpi.addSeries("no runtime prefetching",
                      bucketed(base.cpiSeries, span, 72));
        cpi.addSeries("with runtime prefetching",
                      bucketed(rp.cpiSeries, span, 72));
        LineChart miss("Fig " + fig + "(b): " + spec + " " + dear +
                           " / 1000 instructions",
                       "misses/1000 insn");
        miss.addSeries("no runtime prefetching",
                       bucketed(base.dearSeries, span, 72));
        miss.addSeries("with runtime prefetching",
                       bucketed(rp.dearSeries, span, 72));
        return cpi.render(14) + "\n" + miss.render(14) + "\n" +
               fmt("run length: %llu -> %llu cycles (%.1f%% speedup)\n",
                   static_cast<unsigned long long>(base.cycles),
                   static_cast<unsigned long long>(rp.cycles),
                   Experiment::speedup(base.cycles, rp.cycles) * 100.0);
    };
    return f;
}

std::string
renderFig10(const FigurePlan &plan, const Results &)
{
    Table table({"benchmark", "restricted O2", "original O2",
                 "original-O2 speedup", "SWP'd loops"});
    BarChart chart("Fig 10: original O2 (SWP, all registers) vs restricted",
                   "%");
    for (const auto &info : allWorkloads()) {
        const RunMetrics &restricted = plan.arm(info.name, Arm::O2Base);
        const RunMetrics &original = plan.arm(info.name, Arm::O2Original);
        int swp_loops = 0;
        for (const auto &li : original.compileReport.loops)
            if (li.softwarePipelined)
                ++swp_loops;
        double speedup =
            Experiment::speedup(restricted.cycles, original.cycles);
        table.addRow({info.name, std::to_string(restricted.cycles),
                      std::to_string(original.cycles), Table::pct(speedup),
                      std::to_string(swp_loops)});
        chart.addBar(info.name, speedup);
    }
    return table.render() + "\n" + chart.render() + "\n";
}

/** Monitoring cost of @p monitored over @p base, as a fraction. */
double
overhead(const RunMetrics &base, const RunMetrics &monitored)
{
    return base.cycles ? static_cast<double>(monitored.cycles) /
                                 static_cast<double>(base.cycles) -
                             1.0
                       : 0.0;
}

std::string
renderFig11(const FigurePlan &plan, const Results &)
{
    Table table({"benchmark", "O2 (s @900MHz)",
                 "O2+ADORE w/o prefetch (s)", "overhead"});
    double worst = 0.0;
    for (const auto &info : allWorkloads()) {
        const RunMetrics &base = plan.arm(info.name, Arm::O2Base);
        const RunMetrics &monitored = plan.arm(info.name, Arm::O2Monitor);
        double cost = overhead(base, monitored);
        worst = std::max(worst, cost);
        table.addRow({info.name, Table::fmt(base.secondsAt900MHz(), 3),
                      Table::fmt(monitored.secondsAt900MHz(), 3),
                      Table::pct(cost)});
    }
    return table.render() + "\n" +
           fmt("worst-case overhead: %.1f%% (paper: 1-2%%)\n",
               worst * 100.0);
}

// --------------------------------------------------------------------
// Ablations: sweeps over ADORE's design parameters.
// --------------------------------------------------------------------

const char *const kTopKWorkloads[] = {"applu", "art", "swim"};
const Cycle kIntervals[] = {1'000u, 2'000u, 4'000u, 8'000u, 16'000u};
const char *const kRevertWorkloads[] = {"shuffled-walk", "gcc", "vortex",
                                        "mcf"};

/** The sweep points at the arms' own setting (k=3, R=4000) are the
 *  O2Adore/O2Monitor arms themselves, so they read those runs instead
 *  of simulating the same configuration again. */
bool
isArmTopK(int k)
{
    return k == armConfig(Arm::O2Adore).adoreConfig.maxPrefetchLoadsPerTrace;
}

bool
isArmInterval(Cycle r)
{
    return r == armConfig(Arm::O2Adore).adoreConfig.sampler.interval;
}

void
ablationJobs(FigurePlan &plan, Jobs &jobs)
{
    // 1. Top-k delinquent loads per trace.
    for (const char *name : kTopKWorkloads) {
        plan.need(name, Arm::O2Base);
        plan.need(name, Arm::O2Adore);
        for (int k = 1; k <= 4; ++k) {
            if (isArmTopK(k))
                continue;
            RunConfig cfg = armConfig(Arm::O2Adore);
            cfg.adoreConfig.maxPrefetchLoadsPerTrace = k;
            jobs.push_back({&plan.program(name), cfg});
        }
    }
    // 2. Sampling interval: mcf's speedup, mesa's monitoring cost.
    plan.need("mcf", Arm::O2Base);
    plan.need("mcf", Arm::O2Adore);
    plan.need("mesa", Arm::O2Base);
    plan.need("mesa", Arm::O2Monitor);
    for (Cycle r : kIntervals) {
        if (isArmInterval(r))
            continue;
        RunConfig cfg = armConfig(Arm::O2Adore);
        cfg.adoreConfig.sampler.interval = r;
        jobs.push_back({&plan.program("mcf"), cfg});
        cfg.adoreConfig.insertPrefetches = false;
        jobs.push_back({&plan.program("mesa"), cfg});
    }
    // 3. ADORE vs ADORE + guardrails.
    plan.own(shuffledWalk());
    for (const char *name : kRevertWorkloads) {
        plan.need(name, Arm::O2Base);
        plan.need(name, Arm::O2Adore);
        RunConfig cfg = armConfig(Arm::O2Adore);
        cfg.adoreConfig.guardrails = true;
        jobs.push_back({&plan.program(name), cfg});
    }
}

std::string
renderAblation(const FigurePlan &plan, const Results &runs)
{
    std::size_t job = 0;
    std::string out = "1. top-k delinquent-load budget "
                      "(paper: k=3, four reserved registers)\n\n";
    {
        Table t({"workload", "k=1", "k=2", "k=3 (paper)", "k=4"});
        for (const char *name : kTopKWorkloads) {
            Cycle base = plan.arm(name, Arm::O2Base).cycles;
            std::vector<std::string> row = {name};
            for (int k = 1; k <= 4; ++k) {
                const RunMetrics &m = isArmTopK(k)
                                          ? plan.arm(name, Arm::O2Adore)
                                          : runs[job++];
                row.push_back(
                    Table::pct(Experiment::speedup(base, m.cycles)));
            }
            t.addRow(row);
        }
        out += t.render() + "\n";
    }

    out += "2. sampling interval R (scaled; paper recommends the "
           "equivalent of >= 100k cy/sample)\n\n";
    {
        Table t({"R (cycles)", "mcf speedup", "mesa overhead-only"});
        const RunMetrics &mcf = plan.arm("mcf", Arm::O2Base);
        const RunMetrics &mesa = plan.arm("mesa", Arm::O2Base);
        for (Cycle r : kIntervals) {
            bool arm = isArmInterval(r);
            const RunMetrics &m =
                arm ? plan.arm("mcf", Arm::O2Adore) : runs[job++];
            const RunMetrics &o =
                arm ? plan.arm("mesa", Arm::O2Monitor) : runs[job++];
            t.addRow({std::to_string(r),
                      Table::pct(Experiment::speedup(mcf.cycles, m.cycles)),
                      Table::pct(overhead(mesa, o))});
        }
        out += t.render() + "\n";
    }

    out += "3. ADORE vs ADORE + guardrails (revert and blacklist "
           "nonprofitable traces; paper Section 2.3)\n\n";
    {
        Table t({"workload", "ADORE (paper)", "ADORE + guardrails",
                 "reverts"});
        for (const char *name : kRevertWorkloads) {
            const RunMetrics &guarded = runs[job++];
            t.addRow({name, Table::pct(o2Speedup(plan, name, Arm::O2Adore)),
                      Table::pct(Experiment::speedup(
                          plan.arm(name, Arm::O2Base).cycles,
                          guarded.cycles)),
                      std::to_string(guarded.adoreStats.tracesUnpatched)});
        }
        out += t.render() + "\n";
    }
    return out;
}

std::vector<Figure>
buildCatalogue()
{
    std::vector<Figure> c;
    c.push_back({"fig07a",
                 "Fig. 7(a) — O2 + Runtime Prefetching vs O2 (restricted)",
                 true, {Arm::O2Base, Arm::O2Adore}, {}, renderFig07a});
    c.push_back({"fig07b",
                 "Fig. 7(b) — O3 + Runtime Prefetching vs O3 (restricted)",
                 false, {Arm::O3Base, Arm::O3Adore}, {}, renderFig07b});
    c.push_back({"table1",
                 "Table 1 — Profile-Guided Static Prefetching (ORC-like)",
                 false, {}, table1Jobs, renderTable1});
    c.push_back({"table2", "Table 2 — Prefetching Data Analysis (O2 + RP)",
                 true, {Arm::O2Adore}, {}, renderTable2});
    c.push_back(seriesFigure("fig08", "8", "art", "179.art", 200'000,
                             "DEAR_CACHE_LAT8"));
    c.push_back(seriesFigure("fig09", "9", "mcf", "181.mcf", 400'000,
                             "DEAR_Cache_LAT8"));
    c.push_back({"fig10",
                 "Fig. 10 — O2 with SWP + no reserved registers vs "
                 "restricted O2",
                 false, {Arm::O2Base, Arm::O2Original}, {}, renderFig10});
    c.push_back({"fig11",
                 "Fig. 11 — Overhead of Runtime Prefetching "
                 "(sampling + phase detection, no prefetch insertion)",
                 false, {Arm::O2Base, Arm::O2Monitor}, {}, renderFig11});
    c.push_back({"ablation", "Ablations — ADORE design parameters", false,
                 {}, ablationJobs, renderAblation});
    c.push_back({"hwpf_study",
                 "Hardware prefetching study — ADORE, static O3, "
                 "hardware, hw+ADORE",
                 true,
                 {Arm::O2Base, Arm::O2Adore, Arm::O3Base, Arm::O2Hw,
                  Arm::O2HwAdore},
                 {}, renderHwpfStudy});
    return c;
}

} // namespace

hir::Program
shuffledWalk()
{
    hir::Program prog;
    prog.name = "shuffled-walk";
    int list = workloads::linkedList(prog, "nodes", 12'000, 96, 1.0);
    // Warm-up traversal so the hot phase is profiled against the list
    // already resident in L3.
    hir::LoopBody warm;
    warm.chases.push_back({list, 8});
    workloads::phase(prog, workloads::addLoop(prog, "warm", 11'900, warm),
                     1);
    hir::LoopBody body;
    body.chases.push_back({list, 8});
    body.extraIntOps = 6;
    workloads::phase(prog, workloads::addLoop(prog, "walk", 11'900, body),
                     40);
    return prog;
}

hir::Program
storeStreamMix()
{
    hir::Program prog;
    prog.name = "store-stream-mix";
    // Six streams, every other one stored, each touching a new line
    // per iteration: more line fills than the bus can carry.
    hir::LoopBody body;
    for (int s = 0; s < 6; ++s) {
        int a = workloads::intStream(prog, "s" + std::to_string(s),
                                     256 * 1024);
        body.refs.push_back(workloads::direct(a, 8, s % 2 == 1));
    }
    workloads::phase(prog, workloads::addLoop(prog, "mix", 32 * 1024,
                                              body),
                     6);
    return prog;
}

hir::Program
alternatingIndirect()
{
    hir::Program prog;
    prog.name = "alternating-indirect";
    std::vector<int> loops;
    for (int l = 0; l < 6; ++l) {
        std::string n = std::to_string(l);
        int target = workloads::intStream(prog, "t" + n, 256 * 1024);
        int idx = workloads::indexArray(prog, "i" + n, 2 * 1024,
                                        256 * 1024);
        hir::LoopBody body;
        body.refs.push_back(workloads::indirect(target, idx));
        body.extraIntOps = 2;
        loops.push_back(workloads::addLoop(prog, "ind" + n, 2 * 1024,
                                           body));
    }
    workloads::phase(prog, loops, 45);
    return prog;
}

hir::Program
scatteredLoops()
{
    hir::Program prog;
    prog.name = "scattered-loops";
    // Five phases of eight hot loops each; every phase selects a fresh
    // set of large loop traces, so the bounded pool runs out.
    for (int p = 0; p < 5; ++p) {
        std::vector<int> loops;
        for (int l = 0; l < 8; ++l) {
            std::string n = std::to_string(p * 8 + l);
            int a = workloads::intStream(prog, "a" + n, 16 * 1024);
            hir::LoopBody body;
            body.refs.push_back(workloads::direct(a, 8));
            body.extraIntOps = 24;
            loops.push_back(workloads::addLoop(prog, "walk" + n, 2 * 1024,
                                               body));
        }
        workloads::phase(prog, loops, 9);
    }
    return prog;
}

RunConfig
armConfig(Arm arm)
{
    RunConfig cfg;
    switch (arm) {
      case Arm::O2Base:
      case Arm::O2Adore:
      case Arm::O2Monitor:
      case Arm::O2Hw:
      case Arm::O2HwAdore:
        cfg.compile = restrictedOptions(OptLevel::O2);
        break;
      case Arm::O3Base:
      case Arm::O3Adore:
        cfg.compile = restrictedOptions(OptLevel::O3);
        break;
      case Arm::O2Original:
        cfg.compile = originalOptions(OptLevel::O2);
        break;
    }
    if (arm == Arm::O2Adore || arm == Arm::O3Adore ||
        arm == Arm::O2Monitor || arm == Arm::O2HwAdore) {
        cfg.adore = true;
        cfg.adoreConfig = Experiment::defaultAdoreConfig();
    }
    if (arm == Arm::O2Monitor)
        cfg.adoreConfig.insertPrefetches = false;
    if (arm == Arm::O2Hw || arm == Arm::O2HwAdore)
        cfg.machine.hier.hwPrefetch.enabled = true;
    return cfg;
}

const std::vector<Figure> &
figureCatalogue()
{
    static const std::vector<Figure> catalogue = buildCatalogue();
    return catalogue;
}

const Figure *
findFigure(const std::string &name)
{
    for (const Figure &fig : figureCatalogue())
        if (fig.name == name)
            return &fig;
    return nullptr;
}

std::string
banner(const std::string &title)
{
    const std::string rule =
        "==============================================================\n";
    return rule + title +
           "\n(simulated Itanium-2-class machine; see DESIGN.md for "
           "scaling)\n" +
           rule + "\n";
}

FigurePlan::FigurePlan(std::vector<const Figure *> figures)
    : figures_(std::move(figures)), jobs_(figures_.size())
{
    for (std::size_t f = 0; f < figures_.size(); ++f) {
        const Figure &fig = *figures_[f];
        for (const auto &info : allWorkloads())
            for (Arm arm : fig.arms)
                need(info.name, arm);
        if (fig.jobs)
            fig.jobs(*this, jobs_[f]);
    }
}

const hir::Program &
FigurePlan::program(const std::string &name)
{
    auto it = programs_.find(name);
    if (it == programs_.end())
        it = programs_.emplace(name, workloads::make(name)).first;
    return it->second;
}

void
FigurePlan::own(hir::Program prog)
{
    std::string name = prog.name;
    programs_.try_emplace(name, std::move(prog));
}

void
FigurePlan::need(const std::string &name, Arm arm)
{
    if (armIndex_.emplace(ArmRun{name, arm}, armRuns_.size()).second) {
        program(name);
        armRuns_.push_back({name, arm});
    }
}

const MissProfile *
FigurePlan::trainingProfile(const hir::Program &prog,
                            const CompileOptions &train)
{
    training_.push_back({&prog, train, {}});
    return &training_.back().profile;
}

std::size_t
FigurePlan::jobCount() const
{
    std::size_t n = 0;
    for (const Jobs &jobs : jobs_)
        n += jobs.size();
    return n;
}

std::vector<std::string>
FigurePlan::run()
{
    // The training runs feed the compiles of later jobs, so they form a
    // stage of their own.
    if (!training_.empty()) {
        ThreadPool pool;
        pool.parallelFor(training_.size(), [this](std::size_t i) {
            Training &t = training_[i];
            t.profile = Experiment::collectProfile(*t.prog, t.train);
        });
    }

    std::vector<RunSpec> specs;
    for (const ArmRun &run : armRuns_)
        specs.push_back({&programs_.at(run.first), armConfig(run.second)});
    for (const Jobs &jobs : jobs_)
        specs.insert(specs.end(), jobs.begin(), jobs.end());
    std::vector<RunMetrics> results = Experiment::runMany(specs);

    auto next = std::make_move_iterator(results.begin());
    armResults_.assign(next, next + armRuns_.size());
    next += armRuns_.size();
    std::vector<std::string> rendered;
    for (std::size_t f = 0; f < figures_.size(); ++f) {
        Results own(next, next + jobs_[f].size());
        next += jobs_[f].size();
        rendered.push_back(figures_[f]->render(*this, own));
    }
    return rendered;
}

const RunMetrics &
FigurePlan::arm(const std::string &name, Arm arm) const
{
    auto it = armIndex_.find(ArmRun{name, arm});
    panic_if(it == armIndex_.end() || it->second >= armResults_.size(),
             "figure plan holds no finished run of %s under arm %d",
             name.c_str(), static_cast<int>(arm));
    return armResults_[it->second];
}

} // namespace adore::report
