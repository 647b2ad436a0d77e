/**
 * @file
 * adore_chaos: chaos soak driver (DESIGN.md §10).
 *
 *   adore_chaos                          default sweep: full registry,
 *                                        5 seeds, moderate fault rates
 *   adore_chaos --smoke                  CI smoke: 3 workloads x 5 seeds
 *   adore_chaos --soak                   acceptance soak: full registry
 *                                        x 20 seeds
 *   adore_chaos --workloads mcf,art      restrict the workload set
 *   adore_chaos --seeds 8                seeds 1..8
 *   adore_chaos --margin 1.15            chaotic-CPI margin vs baseline
 *   adore_chaos --max-cycles 20000000    per-run cycle budget
 *   adore_chaos --jobs N                 thread-pool width
 *   adore_chaos --exec-tier TIER         execution tier for every run:
 *                                        "interpreter" or "direct"
 *                                        (default: the CpuConfig default)
 *   adore_chaos --hwpf                   hardware-prefetcher zoo on both
 *                                        runs of every pair (the CPI
 *                                        margin then checks hw+ADORE
 *                                        against an hw-only baseline)
 *
 * Each (workload, seed) pair runs twice — a no-ADORE baseline and an
 * ADORE+guardrails run — under the same deterministic fault schedule.
 * Prints the sweep table followed by one machine-readable JSON summary
 * line (naming workload/seed/arm for every violation), and exits
 * nonzero when any invariant (metrics self-consistency, CPI margin)
 * is violated.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/chaos.hh"

using namespace adore;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--smoke | --soak] [--workloads a,b,c] "
                 "[--seeds N] [--margin X] [--max-cycles N] [--jobs N] "
                 "[--exec-tier interpreter|direct] [--hwpf]\n",
                 argv0);
    return 2;
}

std::vector<std::string>
splitCsv(const std::string &arg)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < arg.size()) {
        std::size_t comma = arg.find(',', pos);
        if (comma == std::string::npos)
            comma = arg.size();
        if (comma > pos)
            out.push_back(arg.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

std::vector<std::uint64_t>
seedRange(std::uint64_t n)
{
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t s = 1; s <= n; ++s)
        seeds.push_back(s);
    return seeds;
}

} // namespace

int
main(int argc, char **argv)
{
    ChaosSpec spec;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(usage(argv[0]));
            }
            return argv[++i];
        };
        if (arg == "--smoke") {
            spec.workloads = {"mcf", "art", "equake"};
            spec.seeds = seedRange(5);
        } else if (arg == "--soak") {
            spec.workloads.clear();  // full registry
            spec.seeds = seedRange(20);
        } else if (arg == "--workloads") {
            spec.workloads = splitCsv(value("--workloads"));
        } else if (arg == "--seeds") {
            spec.seeds = seedRange(
                std::strtoull(value("--seeds"), nullptr, 10));
        } else if (arg == "--margin") {
            spec.cpiMargin = std::strtod(value("--margin"), nullptr);
        } else if (arg == "--max-cycles") {
            spec.maxCycles =
                std::strtoull(value("--max-cycles"), nullptr, 10);
        } else if (arg == "--jobs") {
            spec.jobs = static_cast<unsigned>(
                std::strtoul(value("--jobs"), nullptr, 10));
        } else if (arg == "--hwpf") {
            spec.hwPrefetch = true;
        } else if (arg == "--exec-tier") {
            std::string tier = value("--exec-tier");
            if (tier == "interpreter") {
                spec.execTier = ExecTier::Interpreter;
            } else if (tier == "direct" || tier == "direct_threaded") {
                spec.execTier = ExecTier::DirectThreaded;
            } else {
                std::fprintf(stderr, "unknown exec tier '%s'\n",
                             tier.c_str());
                return usage(argv[0]);
            }
        } else {
            return usage(argv[0]);
        }
    }
    if (spec.seeds.empty()) {
        std::fprintf(stderr, "no seeds\n");
        return usage(argv[0]);
    }

    std::printf("exec tier: %s\n", execTierName(spec.execTier));
    ChaosReport report = Experiment::runChaos(spec);
    std::fputs(report.table().c_str(), stdout);
    std::printf("%s\n", report.json("adore_chaos").c_str());
    return report.ok() ? 0 : 1;
}
