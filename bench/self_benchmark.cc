/**
 * @file
 * Simulator self-benchmark: how fast is the *simulator itself* on the
 * host, in simulated MIPS (retired simulated instructions per host
 * wall-clock second)?
 *
 * This is the regression harness for interpreter-performance work (the
 * fast paths documented in DESIGN.md "Simulator performance"): it runs
 * a fixed scenario mix — a tight ALU/branch loop that isolates
 * interpreter dispatch overhead, plus representative memory-bound
 * workloads with and without the ADORE runtime, and gcc, the registry's
 * largest code footprint (the superblock tier's block-cache stress
 * case; it has no milestone baseline yet) — takes the best of N
 * repeats (min wall time; the meaningful statistic on a noisy shared
 * host), and writes the results to BENCH_simulator.json next to the
 * per-scenario baselines recorded at the previous performance
 * milestone on the reference host (currently `direct_threaded_tier`;
 * the full lineage is retained in the JSON history block).
 *
 * Usage: self_benchmark [--out PATH] [--repeats N] [--quick]
 *                       [--exec-tier interpreter|direct] [--only NAME]
 *   --quick shrinks the loop iteration count and repeats so the
 *   bench_smoke CI target stays fast.
 *   --only runs a single scenario by name (iteration aid; the JSON is
 *   still written but holds just that scenario, so don't commit it).
 *   --exec-tier selects the execution tier for every scenario
 *   (default: the CpuConfig default).  Running with
 *   `--exec-tier interpreter` reproduces the pre-superblock-tier
 *   numbers at any commit, which is how the dispatch-bound baselines
 *   below were re-measured.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cpu/cpu.hh"
#include "isa/builder.hh"
#include "observe/figures.hh"
#include "program/code_buffer.hh"
#include "support/table.hh"
#include "workloads/workloads.hh"

using namespace adore;

namespace
{

struct ScenarioResult
{
    std::string name;
    std::uint64_t retired = 0;
    double bestWallSeconds = 0.0;
    double simMips = 0.0;
    double seedSimMips = 0.0;  ///< pre-fast-path interpreter baseline
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * The interpreter-dispatch scenario: a three-ALU-op loop body plus a
 * compare-and-branch tail, no data memory traffic.  Simulated MIPS here
 * is a direct measurement of per-instruction interpreter overhead.
 */
ScenarioResult
runInterpreterLoop(std::uint64_t iters, int repeats, ExecTier tier)
{
    ScenarioResult res;
    res.name = "interpreter_loop";
    res.bestWallSeconds = 1e300;
    for (int rep = 0; rep < repeats; ++rep) {
        MachineConfig mcfg;
        mcfg.cpu.execTier = tier;
        Machine machine(mcfg);
        CodeBuffer buf;
        Bundle init;
        init.add(build::movi(1, 0));
        init.add(build::movi(2, static_cast<std::int64_t>(iters)));
        buf.append(init);
        auto head = buf.newLabel();
        buf.bind(head);
        Bundle body;
        body.add(build::addi(3, 2, 3));
        body.add(build::addi(4, 1, 4));
        body.add(build::addi(1, 1, 1));
        buf.append(body);
        Bundle tail;
        tail.add(build::cmp(Opcode::CmpLt, 1, 1, 2));
        tail.add(build::br(1, 0));
        buf.appendWithBranchTo(tail, head);
        Bundle h;
        h.add(build::halt());
        buf.append(h);
        buf.commitToText(machine.code());
        machine.cpu().setPc(CodeImage::textBase);

        double t0 = now();
        machine.cpu().run(~Cycle{0});
        double wall = now() - t0;

        res.retired = machine.cpu().counters().retiredInsns;
        res.bestWallSeconds = std::min(res.bestWallSeconds, wall);
    }
    res.simMips =
        static_cast<double>(res.retired) / res.bestWallSeconds / 1e6;
    return res;
}

/**
 * The memory-bound pointer-chase scenario: an mcf-style hot loop over a
 * 512 KiB linked ring (64 B node stride, next pointer at offset 0) whose
 * chase load misses L1D/L2 on every iteration, plus three streaming
 * loads from a 2 KiB L1D-resident side array and a predicated wrap.
 * The chase stresses the hierarchy's tag-walk and fill paths; the side
 * array isolates repeat loads to ready L1D lines (the load-line-buffer
 * case).  No ADORE runtime, no compiler: the loop is hand-assembled so
 * the scenario measures the memory hierarchy, not workload generation.
 */
ScenarioResult
runPointerChaseHot(std::uint64_t iters, int repeats, ExecTier tier)
{
    ScenarioResult res;
    res.name = "mcf_pointer_chase_hot";
    res.bestWallSeconds = 1e300;

    constexpr Addr ring_base = 0x20000000;
    constexpr std::uint64_t ring_nodes = 8192;   // x 64 B = 512 KiB
    constexpr std::uint32_t node_stride = 64;
    constexpr Addr hot_base = 0x30000000;
    constexpr std::uint64_t hot_bytes = 2048;    // L1D-resident

    for (int rep = 0; rep < repeats; ++rep) {
        MachineConfig mcfg;
        mcfg.cpu.execTier = tier;
        Machine machine(mcfg);
        for (std::uint64_t i = 0; i < ring_nodes; ++i) {
            Addr next = ring_base + ((i + 1) % ring_nodes) * node_stride;
            machine.memory().writeU64(ring_base + i * node_stride, next);
        }
        for (Addr off = 0; off < hot_bytes; off += 8)
            machine.memory().writeU64(hot_base + off, off);

        CodeBuffer buf;
        Bundle init1;
        init1.add(build::movi(1, ring_base));        // chase pointer
        init1.add(build::movi(7, 0));                // iteration counter
        init1.add(build::movi(8, static_cast<std::int64_t>(iters)));
        buf.append(init1);
        Bundle init2;
        init2.add(build::movi(9, hot_base));         // side-array walker
        init2.add(build::movi(10, hot_base));        // side-array base
        init2.add(build::movi(11, hot_base + hot_bytes));
        buf.append(init2);
        auto head = buf.newLabel();
        buf.bind(head);
        Bundle b1;
        b1.add(build::ld(8, 2, 1));       // chase: next = node->next
        b1.add(build::ld(8, 12, 9, 8));   // hot side-array stream...
        b1.add(build::addi(7, 1, 7));
        buf.append(b1);
        Bundle b2;
        b2.add(build::ld(8, 13, 9, 8));
        b2.add(build::ld(8, 14, 9, 8));
        b2.add(build::add(15, 15, 12));
        buf.append(b2);
        Bundle b3;
        b3.add(build::add(16, 13, 14));
        b3.add(build::mov(1, 2));         // follow the chase pointer
        b3.add(build::cmp(Opcode::CmpLt, 1, 7, 8));
        buf.append(b3);
        Bundle b4;
        b4.add(build::cmp(Opcode::CmpLe, 2, 11, 9));  // walker past end?
        Insn wrap = build::mov(9, 10);                // predicated reset
        wrap.qp = 2;
        b4.add(wrap);
        b4.add(build::br(1, 0));
        buf.appendWithBranchTo(b4, head);
        Bundle h;
        h.add(build::halt());
        buf.append(h);
        buf.commitToText(machine.code());
        machine.cpu().setPc(CodeImage::textBase);

        double t0 = now();
        machine.cpu().run(~Cycle{0});
        double wall = now() - t0;

        res.retired = machine.cpu().counters().retiredInsns;
        res.bestWallSeconds = std::min(res.bestWallSeconds, wall);
    }
    res.simMips =
        static_cast<double>(res.retired) / res.bestWallSeconds / 1e6;
    return res;
}

/**
 * The superblock-tier scenario: a four-bundle hot loop of the shape the
 * direct-threaded tier targets — L1D-resident streaming loads with
 * post-increment, a store, dependent ALU work, a predicated wrap, and a
 * compare-and-branch back edge.  Unlike interpreter_loop it carries
 * data-memory traffic through the load/store fast paths, so it measures
 * superblock dispatch with the memory handlers in the mix rather than
 * pure ALU dispatch.  The whole loop body fits one superblock; once hot
 * it runs as a single inlined-back-edge region.
 */
ScenarioResult
runJitHotLoop(std::uint64_t iters, int repeats, ExecTier tier)
{
    ScenarioResult res;
    res.name = "jit_hot_loop";
    res.bestWallSeconds = 1e300;

    constexpr Addr arr_base = 0x40000000;
    constexpr std::uint64_t arr_bytes = 2048;    // L1D-resident

    for (int rep = 0; rep < repeats; ++rep) {
        MachineConfig mcfg;
        mcfg.cpu.execTier = tier;
        Machine machine(mcfg);
        for (Addr off = 0; off < arr_bytes; off += 8)
            machine.memory().writeU64(arr_base + off, off);

        CodeBuffer buf;
        Bundle init1;
        init1.add(build::movi(1, 0));                // iteration counter
        init1.add(build::movi(2, static_cast<std::int64_t>(iters)));
        init1.add(build::movi(9, arr_base));         // array walker
        buf.append(init1);
        Bundle init2;
        init2.add(build::movi(10, arr_base));        // array base
        init2.add(build::movi(11, arr_base + arr_bytes));
        buf.append(init2);
        auto head = buf.newLabel();
        buf.bind(head);
        Bundle b1;
        b1.add(build::ld(8, 12, 9, 8));   // stream from the hot array
        b1.add(build::addi(3, 1, 3));
        b1.add(build::addi(1, 1, 1));
        buf.append(b1);
        Bundle b2;
        b2.add(build::ld(8, 13, 9, 8));
        b2.add(build::add(15, 15, 12));
        b2.add(build::shladd(16, 12, 1, 13));
        buf.append(b2);
        Bundle b3;
        b3.add(build::st(8, 10, 15));     // accumulate back to the base
        b3.add(build::cmp(Opcode::CmpLe, 2, 11, 9));  // walker past end?
        Insn wrap = build::mov(9, 10);                // predicated reset
        wrap.qp = 2;
        b3.add(wrap);
        buf.append(b3);
        Bundle b4;
        b4.add(build::cmp(Opcode::CmpLt, 1, 1, 2));
        b4.add(build::br(1, 0));
        buf.appendWithBranchTo(b4, head);
        Bundle h;
        h.add(build::halt());
        buf.append(h);
        buf.commitToText(machine.code());
        machine.cpu().setPc(CodeImage::textBase);

        double t0 = now();
        machine.cpu().run(~Cycle{0});
        double wall = now() - t0;

        res.retired = machine.cpu().counters().retiredInsns;
        res.bestWallSeconds = std::min(res.bestWallSeconds, wall);
    }
    res.simMips =
        static_cast<double>(res.retired) / res.bestWallSeconds / 1e6;
    return res;
}

/** A registered workload under the bench harness configuration. */
ScenarioResult
runWorkloadScenario(const std::string &name, bool adore, int repeats,
                    ExecTier tier)
{
    ScenarioResult res;
    res.name = name + (adore ? "_o2_adore" : "_o2");
    res.bestWallSeconds = 1e300;
    hir::Program prog = workloads::make(name);
    RunConfig cfg = report::armConfig(adore ? report::Arm::O2Adore
                                            : report::Arm::O2Base);
    cfg.machine.cpu.execTier = tier;
    for (int rep = 0; rep < repeats; ++rep) {
        double t0 = now();
        RunMetrics m = Experiment::run(prog, cfg);
        double wall = now() - t0;
        res.retired = m.retired;
        res.bestWallSeconds = std::min(res.bestWallSeconds, wall);
        // Tier-tuning aid: dump the superblock lifecycle counters for
        // the first repeat when asked (ADORE_BENCH_TIER_STATS=1).
        if (rep == 0 && std::getenv("ADORE_BENCH_TIER_STATS")) {
            const SuperblockStats &s = m.superblockStats;
            std::fprintf(stderr,
                         "%s tier: built=%llu replaced=%llu "
                         "invalidated=%llu dispatches=%llu "
                         "loop_trips=%llu chained=%llu demoted=%llu "
                         "fused=%llu region_bumps=%llu\n",
                         res.name.c_str(),
                         (unsigned long long)s.built,
                         (unsigned long long)s.replaced,
                         (unsigned long long)s.invalidated,
                         (unsigned long long)s.dispatches,
                         (unsigned long long)s.loopTrips,
                         (unsigned long long)s.chained,
                         (unsigned long long)s.demoted,
                         (unsigned long long)s.fusedPairs,
                         (unsigned long long)m.regionGenBumps);
        }
    }
    res.simMips =
        static_cast<double>(res.retired) / res.bestWallSeconds / 1e6;
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_simulator.json";
    std::string only;
    int repeats = 5;
    std::uint64_t iters = 20'000'000ULL;
    ExecTier tier = CpuConfig().execTier;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--repeats") && i + 1 < argc) {
            repeats = std::atoi(argv[++i]);
        } else if (!std::strcmp(argv[i], "--quick")) {
            repeats = 2;
            iters = 2'000'000ULL;
        } else if (!std::strcmp(argv[i], "--only") && i + 1 < argc) {
            only = argv[++i];
        } else if (!std::strcmp(argv[i], "--exec-tier") && i + 1 < argc) {
            std::string name = argv[++i];
            if (name == "interpreter") {
                tier = ExecTier::Interpreter;
            } else if (name == "direct" || name == "direct_threaded") {
                tier = ExecTier::DirectThreaded;
            } else {
                std::fprintf(stderr, "unknown exec tier '%s'\n",
                             name.c_str());
                return 2;
            }
        } else {
            std::fprintf(stderr,
                         "usage: %s [--out PATH] [--repeats N] [--quick] "
                         "[--exec-tier interpreter|direct]\n",
                         argv[0]);
            return 2;
        }
    }
    if (repeats < 1)
        repeats = 1;

    std::fputs(report::banner("Simulator self-benchmark (simulated MIPS "
                              "on this host)")
                   .c_str(),
               stdout);
    std::printf("execution tier: %s\n\n", execTierName(tier));

    /*
     * Pre-change baselines: the `direct_threaded_tier` milestone (see
     * the history block below) — every scenario re-measured on the
     * reference host at the commit introducing the direct-threaded
     * superblock tier, repeats=10, -O3 Release.  The improvement
     * column therefore isolates the region-keyed cache + chaining +
     * fusion work of the current milestone; earlier lineage (seed
     * interpreter, fast paths, pre-tier interpreter) lives in the
     * history block.  All values are host-specific: compare
     * improvement ratios, not absolute MIPS, when running elsewhere.
     */
    struct Baseline
    {
        const char *name;
        double seedMips;
    };
    const Baseline baselines[] = {
        {"interpreter_loop", 279.3},
        {"jit_hot_loop", 166.1},
        {"gzip_o2", 177.0},
        {"art_o2", 106.3},
        {"mcf_o2", 84.3},
        {"mcf_o2_adore", 65.5},
        {"equake_o2", 126.6},
        {"mcf_pointer_chase_hot", 107.7},
    };

    std::vector<ScenarioResult> results;
    auto want = [&](const char *name) {
        return only.empty() || only == name;
    };
    if (want("interpreter_loop"))
        results.push_back(runInterpreterLoop(iters, repeats, tier));
    if (want("jit_hot_loop"))
        results.push_back(
            runJitHotLoop(iters >= 20'000'000ULL ? iters / 2 : iters,
                          repeats, tier));
    if (want("gzip_o2"))
        results.push_back(runWorkloadScenario("gzip", false, repeats, tier));
    if (want("art_o2"))
        results.push_back(runWorkloadScenario("art", false, repeats, tier));
    if (want("mcf_o2"))
        results.push_back(runWorkloadScenario("mcf", false, repeats, tier));
    if (want("mcf_o2_adore"))
        results.push_back(runWorkloadScenario("mcf", true, repeats, tier));
    if (want("equake_o2"))
        results.push_back(
            runWorkloadScenario("equake", false, repeats, tier));
    if (want("gcc_o2"))
        results.push_back(runWorkloadScenario("gcc", false, repeats, tier));
    if (want("mcf_pointer_chase_hot"))
        results.push_back(runPointerChaseHot(
            iters >= 20'000'000ULL ? 400'000ULL : 40'000ULL, repeats,
            tier));
    if (results.empty()) {
        std::fprintf(stderr, "unknown scenario '%s'\n", only.c_str());
        return 2;
    }

    for (ScenarioResult &res : results) {
        for (const Baseline &b : baselines)
            if (res.name == b.name)
                res.seedSimMips = b.seedMips;
    }

    Table table({"scenario", "retired insns", "best wall (s)", "sim MIPS",
                 "pre-PR MIPS", "improvement"});
    double log_sum = 0.0;
    int log_count = 0;
    for (const ScenarioResult &res : results) {
        double improvement =
            res.seedSimMips > 0 ? res.simMips / res.seedSimMips : 0.0;
        if (improvement > 0) {
            log_sum += std::log(improvement);
            ++log_count;
        }
        table.addRow({res.name, std::to_string(res.retired),
                      Table::fmt(res.bestWallSeconds, 3),
                      Table::fmt(res.simMips, 1),
                      Table::fmt(res.seedSimMips, 1),
                      Table::fmt(improvement, 2) + "x"});
    }
    double geomean =
        log_count ? std::exp(log_sum / log_count) : 0.0;
    std::printf("%s\n", table.render().c_str());
    std::printf("geomean improvement over direct_threaded_tier "
                "milestone: %.2fx\n",
                geomean);

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"simulator_self_benchmark\",\n");
    std::fprintf(f, "  \"metric\": \"simulated_mips\",\n");
    std::fprintf(f, "  \"exec_tier\": \"%s\",\n", execTierName(tier));
    std::fprintf(f, "  \"repeats\": %d,\n", repeats);
    std::fprintf(f, "  \"statistic\": \"best_of_repeats\",\n");
    std::fprintf(f, "  \"scenarios\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult &res = results[i];
        double improvement =
            res.seedSimMips > 0 ? res.simMips / res.seedSimMips : 0.0;
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"retired_insns\": %llu, "
            "\"best_wall_s\": %.6f, \"sim_mips\": %.2f, "
            "\"pre_pr_sim_mips\": %.2f, \"improvement\": %.3f}%s\n",
            res.name.c_str(),
            static_cast<unsigned long long>(res.retired),
            res.bestWallSeconds, res.simMips, res.seedSimMips, improvement,
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"geomean_improvement\": %.3f,\n", geomean);
    /*
     * Retained history: best-of-repeats sim-MIPS recorded on the
     * reference host at each prior interpreter-performance milestone,
     * so successive PRs don't overwrite the lineage this file tracks.
     */
    std::fprintf(f, "  \"history\": [\n");
    std::fprintf(
        f,
        "    {\"milestone\": \"seed_interpreter\", \"sim_mips\": "
        "{\"interpreter_loop\": 89.10, \"gzip_o2\": 65.10, "
        "\"art_o2\": 74.60, \"mcf_o2\": 38.50, \"mcf_o2_adore\": "
        "42.30}},\n");
    std::fprintf(
        f,
        "    {\"milestone\": \"interpreter_fast_path\", \"sim_mips\": "
        "{\"interpreter_loop\": 189.45, \"gzip_o2\": 98.90, "
        "\"art_o2\": 110.41, \"mcf_o2\": 57.81, \"mcf_o2_adore\": "
        "62.70}, \"geomean_improvement\": 1.605},\n");
    std::fprintf(
        f,
        "    {\"milestone\": \"pre_memory_fast_path\", \"sim_mips\": "
        "{\"equake_o2\": 121.97, \"mcf_pointer_chase_hot\": 60.19}},\n");
    std::fprintf(
        f,
        "    {\"milestone\": \"pre_exec_tier\", \"exec_tier\": "
        "\"interpreter\", \"sim_mips\": {\"interpreter_loop\": 162.80, "
        "\"jit_hot_loop\": 106.10, \"gzip_o2\": 100.00, \"art_o2\": "
        "102.00, \"mcf_o2\": 62.30, \"mcf_o2_adore\": 67.40, "
        "\"equake_o2\": 130.60, \"mcf_pointer_chase_hot\": 82.20}},\n");
    std::fprintf(
        f,
        "    {\"milestone\": \"direct_threaded_tier\", \"exec_tier\": "
        "\"direct_threaded\", \"sim_mips\": {\"interpreter_loop\": "
        "279.30, \"jit_hot_loop\": 166.10, \"gzip_o2\": 177.00, "
        "\"art_o2\": 106.30, \"mcf_o2\": 84.30, \"mcf_o2_adore\": "
        "65.50, \"equake_o2\": 126.60, \"mcf_pointer_chase_hot\": "
        "107.70}, \"dispatch_bound_geomean_vs_pre_exec_tier\": "
        "1.64},\n");
    std::fprintf(
        f,
        "    {\"milestone\": \"region_keyed_tier\", \"exec_tier\": "
        "\"direct_threaded\", \"sim_mips\": {\"interpreter_loop\": "
        "288.20, \"jit_hot_loop\": 168.70, \"gzip_o2\": 177.60, "
        "\"art_o2\": 149.00, \"mcf_o2\": 81.70, \"mcf_o2_adore\": "
        "87.60, \"equake_o2\": 218.50, \"mcf_pointer_chase_hot\": "
        "106.50}, \"geomean_vs_direct_threaded_tier\": 1.16}\n");
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
