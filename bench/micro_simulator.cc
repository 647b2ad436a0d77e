/**
 * @file
 * google-benchmark micro benchmarks for the simulator's primitives:
 * cache lookups, hierarchy loads, three hand-assembled hot loops in
 * each execution tier, compilation, trace selection, and slicing.
 * Whole-workload speed in both tiers is perfbench's registry_tiers
 * (perfbench/README.md); these isolate one mechanism each.
 */

#include <benchmark/benchmark.h>

#include "compiler/compiler.hh"
#include "harness/machine.hh"
#include "isa/builder.hh"
#include "program/code_buffer.hh"
#include "runtime/slicer.hh"
#include "runtime/trace_selector.hh"
#include "support/rng.hh"
#include "workloads/common.hh"

namespace
{

using namespace adore;

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache({"bench", 256 * 1024, 128, 8, 6});
    Rng rng(1);
    std::vector<Addr> addrs;
    for (int i = 0; i < 4096; ++i)
        addrs.push_back(rng.below(1 << 22));
    std::size_t i = 0;
    Cycle now = 0;
    for (auto _ : state) {
        auto r = cache.access(addrs[i++ & 4095], now++);
        if (!r.hit)
            cache.fill(addrs[(i - 1) & 4095], now + 14, false);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_HierarchyLoad(benchmark::State &state)
{
    HierarchyConfig cfg;
    CacheHierarchy caches(cfg);
    Rng rng(2);
    Cycle now = 0;
    for (auto _ : state) {
        auto r = caches.load(rng.below(1 << 23), now, false);
        now += r.latency;
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyLoad);

/** Cycles simulated per benchmark iteration of a hot loop. */
constexpr Cycle kSliceCycles = 100'000;

/** A loop bound no benchmark run reaches: the loops never halt. */
constexpr std::int64_t kEndless = std::int64_t{1} << 50;

/**
 * Load the hand-assembled loop in @p buf (plus a terminating halt the
 * endless loop never reaches) into @p machine and run it through
 * Cpu::run, kSliceCycles per iteration, so the direct tier trains and
 * forms superblocks exactly as it does in a full run.  Items are
 * retired simulated instructions, so items/s is the loop's sim-MIPS
 * x 1e6.
 */
void
runSlices(benchmark::State &state, Machine &machine, CodeBuffer &buf)
{
    Bundle h;
    h.add(build::halt());
    buf.append(h);
    buf.commitToText(machine.code());
    Cpu &cpu = machine.cpu();
    cpu.setPc(CodeImage::textBase);
    for (auto _ : state)
        benchmark::DoNotOptimize(cpu.run(cpu.cycle() + kSliceCycles));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(cpu.counters().retiredInsns));
}

Machine
machineFor(ExecTier tier)
{
    MachineConfig mcfg;
    mcfg.cpu.execTier = tier;
    return Machine(mcfg);
}

/**
 * interpreter_loop: three ALU ops plus a compare-and-branch tail, no
 * data memory traffic, so its rate is pure per-instruction dispatch
 * cost.
 */
void
BM_InterpreterLoop(benchmark::State &state, ExecTier tier)
{
    Machine machine = machineFor(tier);
    CodeBuffer buf;
    Bundle init;
    init.add(build::movi(1, 0));
    init.add(build::movi(2, kEndless));
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
    runSlices(state, machine, buf);
}
BENCHMARK_CAPTURE(BM_InterpreterLoop, interpreter, ExecTier::Interpreter);
BENCHMARK_CAPTURE(BM_InterpreterLoop, direct_threaded,
                  ExecTier::DirectThreaded);

/**
 * jit_hot_loop: the four-bundle loop shape the superblock tier targets
 * -- L1D-resident streaming loads with post-increment, a store,
 * dependent ALU work, a predicated wrap and a compare-and-branch back
 * edge -- so it measures block dispatch with the load/store fast paths
 * in the mix.
 */
void
BM_JitHotLoop(benchmark::State &state, ExecTier tier)
{
    constexpr Addr arr_base = 0x40000000;
    constexpr std::uint64_t arr_bytes = 2048;  // L1D-resident

    Machine machine = machineFor(tier);
    for (Addr off = 0; off < arr_bytes; off += 8)
        machine.memory().writeU64(arr_base + off, off);

    CodeBuffer buf;
    Bundle init1;
    init1.add(build::movi(1, 0));              // iteration counter
    init1.add(build::movi(2, kEndless));
    init1.add(build::movi(9, arr_base));       // array walker
    buf.append(init1);
    Bundle init2;
    init2.add(build::movi(10, arr_base));      // array base
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
    runSlices(state, machine, buf);
}
BENCHMARK_CAPTURE(BM_JitHotLoop, interpreter, ExecTier::Interpreter);
BENCHMARK_CAPTURE(BM_JitHotLoop, direct_threaded, ExecTier::DirectThreaded);

/**
 * mcf_pointer_chase_hot: an mcf-style chase over a 512 KiB linked ring
 * (64 B nodes, next pointer at offset 0) that misses L1D/L2 every
 * iteration, plus three loads from a 2 KiB L1D-resident side array and
 * a predicated wrap.  The chase stresses the hierarchy's tag walk and
 * fill paths; the side array the repeat-load line buffer.
 */
void
BM_PointerChaseHot(benchmark::State &state, ExecTier tier)
{
    constexpr Addr ring_base = 0x20000000;
    constexpr std::uint64_t ring_nodes = 8192;  // x 64 B = 512 KiB
    constexpr std::uint32_t node_stride = 64;
    constexpr Addr hot_base = 0x30000000;
    constexpr std::uint64_t hot_bytes = 2048;   // L1D-resident

    Machine machine = machineFor(tier);
    for (std::uint64_t i = 0; i < ring_nodes; ++i) {
        Addr next = ring_base + ((i + 1) % ring_nodes) * node_stride;
        machine.memory().writeU64(ring_base + i * node_stride, next);
    }
    for (Addr off = 0; off < hot_bytes; off += 8)
        machine.memory().writeU64(hot_base + off, off);

    CodeBuffer buf;
    Bundle init1;
    init1.add(build::movi(1, ring_base));      // chase pointer
    init1.add(build::movi(7, 0));              // iteration counter
    init1.add(build::movi(8, kEndless));
    buf.append(init1);
    Bundle init2;
    init2.add(build::movi(9, hot_base));       // side-array walker
    init2.add(build::movi(10, hot_base));      // side-array base
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
    runSlices(state, machine, buf);
}
BENCHMARK_CAPTURE(BM_PointerChaseHot, interpreter, ExecTier::Interpreter);
BENCHMARK_CAPTURE(BM_PointerChaseHot, direct_threaded,
                  ExecTier::DirectThreaded);

void
BM_WorkloadCompile(benchmark::State &state)
{
    hir::Program prog = [] {
        hir::Program p;
        p.name = "bench";
        int arr = workloads::fpStream(p, "a", 4096);
        hir::LoopBody body;
        body.refs.push_back(workloads::direct(arr, 1));
        int loop = workloads::addLoop(p, "l", 4096, body);
        workloads::phase(p, loop, 1);
        workloads::addColdLoops(p, 8);
        return p;
    }();
    for (auto _ : state) {
        Machine machine;
        DataLayout data(machine.memory());
        Compiler compiler(machine.config().hier);
        CompileOptions opts;
        opts.level = OptLevel::O3;
        auto report =
            compiler.compile(prog, opts, machine.code(), data);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_WorkloadCompile);

void
BM_TraceSelection(benchmark::State &state)
{
    // Selection cost over a realistic sample batch.
    CodeImage code;
    CodeBuffer buf;
    auto head = buf.newLabel();
    buf.bind(head);
    Bundle body;
    body.add(build::addi(3, 1, 3));
    body.add(build::addi(1, 1, 1));
    buf.append(body);
    Bundle tail;
    tail.add(build::cmp(Opcode::CmpLt, 1, 1, 2));
    tail.add(build::br(1, 0));
    buf.appendWithBranchTo(tail, head);
    Bundle h;
    h.add(build::halt());
    buf.append(h);
    Addr base = buf.commitToText(code);

    std::vector<Sample> samples(1024);
    for (auto &s : samples) {
        s.pc = base;
        for (auto &e : s.btb)
            e = BtbEntry{true, base + isa::bundleBytes, base, true,
                         false};
    }

    TraceSelector selector(code, TraceSelectorConfig{});
    for (auto _ : state) {
        auto traces = selector.select(samples);
        benchmark::DoNotOptimize(traces);
    }
}
BENCHMARK(BM_TraceSelection);

void
BM_DependenceSlicing(benchmark::State &state)
{
    Trace t;
    t.isLoop = true;
    Bundle b1;
    b1.add(build::ld(8, 20, 16, 8));
    b1.add(build::shladd(15, 20, 3, 25));
    b1.padWithNops();
    t.bundles.push_back(b1);
    Bundle b2;
    b2.add(build::ld(8, 21, 15));
    b2.padWithNops();
    t.bundles.push_back(b2);
    t.origAddrs = {0x4000000, 0x4000010};

    for (auto _ : state) {
        DependenceSlicer slicer(t);
        auto r = slicer.classify({1, 0});
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_DependenceSlicing);

} // namespace

BENCHMARK_MAIN();
