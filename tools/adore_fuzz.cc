/**
 * @file
 * adore_fuzz: property-based differential fuzzer driver (DESIGN.md §14).
 *
 *   adore_fuzz --smoke                CI smoke: 50 generated programs
 *                                     through the full arm matrix
 *   adore_fuzz --soak                 acceptance soak: 200 programs
 *   adore_fuzz --programs N           explicit program count
 *   adore_fuzz --first-seed N         first generator seed (default 1)
 *   adore_fuzz --max-cycles N         per-run watchdog budget
 *   adore_fuzz --margin X             chaos-pair CPI margin
 *   adore_fuzz --no-chaos             drop the chaos arm pair
 *   adore_fuzz --jobs N               thread-pool width
 *   adore_fuzz --replay FILE          run the arm matrix over a corpus
 *                                     kernel written by --shrink
 *   adore_fuzz --shrink SEED          demo the minimizer: inject a
 *                                     synthetic invariant violation
 *                                     (program contains an indirect
 *                                     reference), shrink to a minimal
 *                                     reproducer, and write it plus a
 *                                     JSON failure summary to --corpus
 *   adore_fuzz --corpus DIR           corpus directory (default corpus)
 *
 * Always prints the human-readable summary followed by one
 * machine-readable JSON line; exits nonzero when any invariant was
 * violated (the JSON names program/seed/arm for each violation).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/fuzz.hh"
#include "workloads/generator.hh"

using namespace adore;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--smoke | --soak] [--programs N] "
                 "[--first-seed N] [--max-cycles N] [--margin X] "
                 "[--no-chaos] [--jobs N] [--replay FILE] "
                 "[--shrink SEED] [--corpus DIR]\n",
                 argv0);
    return 2;
}

/** The --shrink demo's synthetic invariant: trips whenever the program
 *  contains an indirect (index-array) reference.  Structural, so the
 *  shrinker's oracle is deterministic and cheap to re-verify. */
std::string
injectedIndirectFailure(const hir::Program &prog)
{
    for (const hir::Loop &loop : prog.loops)
        for (const hir::ArrayRef &ref : loop.body.refs)
            if (ref.indexArray >= 0 && !ref.viaFpConversion)
                return "injected: program contains an indirect "
                       "reference";
    return "";
}

int
replay(const std::string &path, FuzzSpec spec)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
        return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    hir::Program prog;
    std::string err;
    if (!workloads::parseProgram(text.str(), prog, err)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
        return 2;
    }
    FuzzReport report =
        Fuzzer::runProgram(prog, spec.firstSeed, spec);
    std::fputs(report.table().c_str(), stdout);
    std::printf("%s\n", report.json("adore_fuzz").c_str());
    return report.ok() ? 0 : 1;
}

int
shrinkDemo(std::uint64_t seed, const std::string &corpus_dir,
           FuzzSpec spec)
{
    workloads::GeneratorConfig gen = spec.gen;
    gen.seed = seed;
    hir::Program prog = workloads::generate(gen);

    // The injected predicate is the shrink oracle; the configuration
    // arms are skipped while minimizing (each candidate step re-runs
    // the oracle) and run once over the final reproducer below.
    FuzzSpec oracle = spec;
    oracle.runArms = false;
    oracle.injectFailure = injectedIndirectFailure;
    if (injectedIndirectFailure(prog).empty()) {
        std::fprintf(stderr,
                     "seed %llu generates no indirect reference; pick "
                     "another seed\n",
                     static_cast<unsigned long long>(seed));
        return 2;
    }

    int steps = 0;
    hir::Program minimal = Fuzzer::shrink(prog, seed, oracle, &steps);
    std::printf("shrink: %zu loops / %zu arrays / %zu lists  ->  "
                "%zu loops / %zu arrays / %zu lists in %d steps\n",
                prog.loops.size(), prog.arrays.size(),
                prog.lists.size(), minimal.loops.size(),
                minimal.arrays.size(), minimal.lists.size(), steps);

    // Re-verify the reproducer once through the real arm matrix (plus
    // the injected oracle, so the summary names the failure).
    FuzzSpec verify = spec;
    verify.injectFailure = injectedIndirectFailure;
    FuzzReport report = Fuzzer::runProgram(minimal, seed, verify);
    std::fputs(report.table().c_str(), stdout);

    std::string kernelPath =
        corpus_dir + "/" + minimal.name + ".kernel";
    std::string jsonPath = corpus_dir + "/" + minimal.name + ".json";
    std::ofstream kernel(kernelPath);
    std::ofstream json(jsonPath);
    if (!kernel || !json) {
        std::fprintf(stderr,
                     "cannot write corpus files under '%s' (does the "
                     "directory exist?)\n",
                     corpus_dir.c_str());
        return 2;
    }
    kernel << workloads::renderProgram(minimal);
    json << report.json("adore_fuzz") << "\n";
    std::printf("reproducer: %s\nsummary:    %s\n", kernelPath.c_str(),
                jsonPath.c_str());
    std::printf("%s\n", report.json("adore_fuzz").c_str());

    // The demo *expects* the injected violation to survive; anything
    // else would mean the shrinker lost the failure.
    return report.ok() ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FuzzSpec spec;
    std::string replayPath;
    std::string corpusDir = "corpus";
    bool doShrink = false;
    std::uint64_t shrinkSeed = 0;

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
            spec.programs = 50;
        } else if (arg == "--soak") {
            spec.programs = 200;
        } else if (arg == "--programs") {
            spec.programs = static_cast<int>(
                std::strtol(value("--programs"), nullptr, 10));
        } else if (arg == "--first-seed") {
            spec.firstSeed =
                std::strtoull(value("--first-seed"), nullptr, 10);
        } else if (arg == "--max-cycles") {
            spec.maxCycles =
                std::strtoull(value("--max-cycles"), nullptr, 10);
        } else if (arg == "--margin") {
            spec.cpiMargin = std::strtod(value("--margin"), nullptr);
        } else if (arg == "--no-chaos") {
            spec.withChaos = false;
        } else if (arg == "--jobs") {
            spec.jobs = static_cast<unsigned>(
                std::strtoul(value("--jobs"), nullptr, 10));
        } else if (arg == "--replay") {
            replayPath = value("--replay");
        } else if (arg == "--shrink") {
            doShrink = true;
            shrinkSeed =
                std::strtoull(value("--shrink"), nullptr, 10);
        } else if (arg == "--corpus") {
            corpusDir = value("--corpus");
        } else {
            return usage(argv[0]);
        }
    }
    if (spec.programs <= 0) {
        std::fprintf(stderr, "no programs\n");
        return usage(argv[0]);
    }

    if (!replayPath.empty())
        return replay(replayPath, spec);
    if (doShrink)
        return shrinkDemo(shrinkSeed, corpusDir, spec);

    FuzzReport report = Fuzzer::run(spec);
    std::fputs(report.table().c_str(), stdout);
    std::printf("%s\n", report.json("adore_fuzz").c_str());
    return report.ok() ? 0 : 1;
}
