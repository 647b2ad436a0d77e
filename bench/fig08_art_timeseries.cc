/**
 * @file
 * Fig. 8: 179.art — CPI and DEAR-miss-rate time series with and without
 * runtime prefetching (O2 binary).
 *
 * Paper result: two clear phases (the second starting about a quarter
 * of the way in); after the phase detector fires, both CPI and DEAR
 * loads-per-1000-instructions drop by roughly half, and the optimized
 * curves are shorter because the run finishes sooner.
 */

#include <algorithm>

#include "bench_common.hh"

using namespace adore;
using namespace adore::bench;

namespace
{

/**
 * Bucket a series onto an absolute cycle grid shared by both runs, so
 * the optimized curve visibly ends earlier (as in the paper).
 */
std::vector<double>
values(const adore::TimeSeries &series, adore::Cycle span,
       std::size_t buckets)
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

} // namespace

int
main()
{
    printHeader("Fig. 8 — Runtime Prefetching for 179.art (time series)");

    RunConfig base_cfg;
    base_cfg.compile = restrictedOptions(OptLevel::O2);
    base_cfg.seriesInterval = 200'000;

    RunConfig rp_cfg = base_cfg;
    rp_cfg.adore = true;
    rp_cfg.adoreConfig = Experiment::defaultAdoreConfig();

    hir::Program prog = workloads::make("art");
    RunMetrics base = Experiment::run(prog, base_cfg);
    RunMetrics rp = Experiment::run(prog, rp_cfg);
    Cycle span = std::max(base.cycles, rp.cycles);

    LineChart cpi("Fig 8(a): 179.art CPI over execution time", "CPI");
    cpi.addSeries("no runtime prefetching", values(base.cpiSeries, span, 72));
    cpi.addSeries("with runtime prefetching", values(rp.cpiSeries, span, 72));
    std::printf("%s\n", cpi.render(14).c_str());

    LineChart dear(
        "Fig 8(b): 179.art DEAR_CACHE_LAT8 / 1000 instructions",
        "misses/1000 insn");
    dear.addSeries("no runtime prefetching", values(base.dearSeries, span, 72));
    dear.addSeries("with runtime prefetching", values(rp.dearSeries, span, 72));
    std::printf("%s\n", dear.render(14).c_str());

    std::printf("run length: %llu -> %llu cycles (%.1f%% speedup)\n",
                static_cast<unsigned long long>(base.cycles),
                static_cast<unsigned long long>(rp.cycles),
                Experiment::speedup(base.cycles, rp.cycles) * 100.0);
    return 0;
}
