/**
 * @file
 * pattern_playground: build one loop of each data-reference pattern the
 * paper's Fig. 5 describes (direct array, indirect array, pointer
 * chasing, and the fp->int "unknown" case), run each under ADORE, and
 * show how the dependence slicer classifies the delinquent loads and
 * what prefetch code it generates.
 *
 * A good starting point for adding your own workloads.
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "workloads/common.hh"

using namespace adore;

namespace
{

hir::Program
directCase()
{
    hir::Program prog;
    prog.name = "direct";
    int a = workloads::fpStream(prog, "a", 512 * 1024);  // 4 MiB
    hir::LoopBody body;
    body.refs.push_back(workloads::direct(a, 2));
    body.extraFpOps = 2;
    workloads::phase(prog, workloads::addLoop(prog, "stream",
                                              256 * 1024, body),
                     4);
    return prog;
}

hir::Program
indirectCase()
{
    hir::Program prog;
    prog.name = "indirect";
    int data = workloads::fpStream(prog, "data", 256 * 1024);
    int idx = workloads::indexArray(prog, "idx", 128 * 1024,
                                    256 * 1024);
    hir::LoopBody body;
    body.refs.push_back(workloads::indirect(data, idx));
    body.extraFpOps = 2;
    workloads::phase(prog, workloads::addLoop(prog, "gather",
                                              128 * 1024, body),
                     4);
    return prog;
}

hir::Program
chaseCase()
{
    hir::Program prog;
    prog.name = "chase";
    int list = workloads::linkedList(prog, "list", 24'000, 128, 0.05);
    hir::LoopBody body;
    body.chases.push_back({list, 8});
    body.extraIntOps = 2;
    workloads::phase(prog, workloads::addLoop(prog, "walk", 23'900,
                                              body),
                     6);
    return prog;
}

hir::Program
opaqueCase()
{
    hir::Program prog;
    prog.name = "opaque";
    int data = workloads::intStream(prog, "data", 512 * 1024);
    int fpidx = workloads::fpIndexArray(prog, "fpidx", 128 * 1024,
                                        512 * 1024);
    hir::LoopBody body;
    body.refs.push_back(workloads::fpConverted(data, fpidx));
    body.extraIntOps = 2;
    workloads::phase(prog, workloads::addLoop(prog, "convert",
                                              128 * 1024, body),
                     4);
    return prog;
}

void
runCase(const char *label, const hir::Program &prog)
{
    RunConfig base;
    base.compile.softwarePipelining = false;
    base.compile.reserveAdoreRegs = true;
    RunConfig rp = base;
    rp.adore = true;
    rp.adoreConfig = Experiment::defaultAdoreConfig();

    RunMetrics b = Experiment::run(prog, base);
    RunMetrics o = Experiment::run(prog, rp);
    const AdoreStats &st = o.adoreStats;

    std::printf("%-10s speedup %6.1f%%  prefetches d/i/p = %d/%d/%d"
                "  unknown-skipped %d\n",
                label, Experiment::speedup(b.cycles, o.cycles) * 100.0,
                st.directPrefetches, st.indirectPrefetches,
                st.pointerPrefetches, st.loadsSkippedUnknown);
}

} // namespace

int
main()
{
    std::printf("ADORE pattern playground (paper Fig. 5 / Fig. 6)\n\n");
    runCase("direct", directCase());
    runCase("indirect", indirectCase());
    runCase("chase", chaseCase());
    runCase("opaque", opaqueCase());
    std::printf("\n'opaque' is the fp->int conversion case: ADORE finds"
                " the load but cannot\ncompute a stride, so no prefetch"
                " is inserted (the vpr/lucas failure mode).\n");
    return 0;
}
