#include "harness/fuzz.hh"

#include <cstdio>
#include <utility>

#include "harness/invariants.hh"
#include "support/logging.hh"

namespace adore
{

FuzzSpec::FuzzSpec() : faults(defaultChaosFaults()) {}

namespace
{

template <typename... Args>
std::string
fmt(const char *format, Args... args)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), format, args...);
    return buf;
}

/**
 * One configuration arm of the differential matrix.  identityWith
 * names the arm this one must be bit-identical to (the toggles the
 * piecewise tests already prove on the hand kernels); marginBaseline
 * names the arm the guardrail CPI margin compares against.
 */
struct ArmDef
{
    const char *name;
    RunConfig cfg;
    int identityWith = -1;
    bool compareAdore = false;  ///< include ADORE stats in the diff
    int marginBaseline = -1;
    bool requireAdore = false;  ///< run must report adore+guardrails
};

std::vector<ArmDef>
buildArms(const FuzzSpec &spec, std::uint64_t seed)
{
    RunConfig base;
    base.compile = restrictedOptions(OptLevel::O2);
    base.maxCycles = spec.maxCycles;
    base.quietCycleLimit = true;  // the hang watchdog on every path

    std::vector<ArmDef> arms;

    // 0: the reference interpreter run every identity chain roots at.
    ArmDef interp{"interp", base};
    interp.cfg.machine.cpu.execTier = ExecTier::Interpreter;
    arms.push_back(interp);

    // 1: fastPath off — promised identical (test_toggle_sweep).
    ArmDef nofast{"interp_nofast", interp.cfg};
    nofast.cfg.machine.hier.fastPath = false;
    nofast.identityWith = 0;
    arms.push_back(nofast);

    // 2: direct-threaded tier — promised identical (test_toggle_sweep).
    ArmDef direct{"direct", base};
    direct.cfg.machine.cpu.execTier = ExecTier::DirectThreaded;
    direct.identityWith = 0;
    arms.push_back(direct);

    // 3: ADORE on the interpreter tier.
    ArmDef sync{"adore_sync", interp.cfg};
    sync.cfg.adore = true;
    sync.cfg.adoreConfig = Experiment::defaultAdoreConfig();
    sync.cfg.adoreConfig.tracePoolCapacityBundles =
        spec.poolCapacityBundles;
    arms.push_back(sync);

    // 4: ADORE on the direct tier — tier toggle holds under ADORE too.
    ArmDef adoreDirect{"adore_direct", sync.cfg};
    adoreDirect.cfg.machine.cpu.execTier = ExecTier::DirectThreaded;
    adoreDirect.identityWith = 3;
    adoreDirect.compareAdore = true;
    arms.push_back(adoreDirect);

    // 5: hardware-prefetcher zoo at its static defaults (consistency
    // only: no identity is promised for an active engine).
    ArmDef hwpf{"hwpf", base};
    hwpf.cfg.machine.cpu.execTier = ExecTier::DirectThreaded;
    hwpf.cfg.machine.hier.hwPrefetch.enabled = true;
    arms.push_back(hwpf);

    if (spec.withChaos) {
        // 6/7: the chaos pair — one shared fault schedule, baseline
        // without ADORE vs guardrailed ADORE, CPI margin between them.
        ArmDef chaosBase{"chaos_base", base};
        chaosBase.cfg.faults = spec.faults;
        chaosBase.cfg.faults.seed = seed;
        arms.push_back(chaosBase);

        ArmDef chaosAdore{"chaos_adore", chaosBase.cfg};
        chaosAdore.cfg.adore = true;
        chaosAdore.cfg.adoreConfig = Experiment::defaultAdoreConfig();
        chaosAdore.cfg.adoreConfig.guardrails.enabled = true;
        chaosAdore.cfg.adoreConfig.tracePoolCapacityBundles =
            spec.poolCapacityBundles;
        chaosAdore.marginBaseline =
            static_cast<int>(arms.size()) - 1;
        chaosAdore.requireAdore = true;
        arms.push_back(chaosAdore);
    }
    return arms;
}

/** Check every invariant for one program's finished arm runs. */
void
evaluateProgram(FuzzReport &report, const FuzzSpec &spec,
                const hir::Program &prog, std::uint64_t seed,
                const std::vector<ArmDef> &arms,
                const RunMetrics *results)
{
    FuzzProgramResult pr;
    pr.name = prog.name;
    pr.seed = seed;
    pr.runs = static_cast<int>(arms.size());

    auto violate = [&](const std::string &arm, std::string what) {
        report.violations.push_back(
            {prog.name, seed, arm, std::move(what)});
    };

    for (std::size_t ai = 0; ai < arms.size(); ++ai) {
        const ArmDef &arm = arms[ai];
        const RunMetrics &m = results[ai];
        if (!m.halted)
            ++pr.cutoffs;

        std::vector<std::string> problems;
        invariants::checkSelfConsistent(m, "", problems);
        for (std::string &what : problems)
            violate(arm.name, std::move(what));

        if (arm.requireAdore) {
            if (!m.adoreUsed)
                violate(arm.name, "ADORE was not attached");
            if (!m.guardrailsUsed)
                violate(arm.name, "guardrails were not enabled");
        }

        if (arm.identityWith >= 0) {
            const ArmDef &peer =
                arms[static_cast<std::size_t>(arm.identityWith)];
            const RunMetrics &pm =
                results[static_cast<std::size_t>(arm.identityWith)];
            std::string pairName =
                fmt("%s vs %s", arm.name, peer.name);
            if (m.halted && pm.halted) {
                std::vector<std::string> diffs;
                invariants::diffIdentity(pm, m, arm.compareAdore,
                                         diffs);
                for (std::string &what : diffs)
                    violate(pairName, std::move(what));
            } else if (m.halted != pm.halted) {
                // One side finished inside the budget and the other
                // did not: the toggle leaked into simulated time.
                violate(pairName,
                        "only one side halted within the budget");
            }
            // Both cut off: identity is unobservable (the budget may
            // land mid-divergence-free prefix) — counted as cutoffs.
        }

        if (arm.marginBaseline >= 0) {
            const RunMetrics &bm =
                results[static_cast<std::size_t>(arm.marginBaseline)];
            CpiMarginVerdict v =
                checkCpiMargin(bm.cpi, m.cpi, spec.cpiMargin);
            if (v.applicable && !v.ok) {
                violate(fmt("%s vs %s", arm.name,
                            arms[static_cast<std::size_t>(
                                     arm.marginBaseline)]
                                .name),
                        fmt("cpi margin exceeded: %.3f > %.3f * %.2f",
                            m.cpi, bm.cpi, spec.cpiMargin));
            }
        }
    }

    if (spec.injectFailure) {
        std::string what = spec.injectFailure(prog);
        if (!what.empty())
            violate("injected", std::move(what));
    }

    report.runsTotal += pr.runs;
    report.cutoffsTotal += pr.cutoffs;
    report.programs.push_back(std::move(pr));
}

} // namespace

FuzzReport
Fuzzer::run(const FuzzSpec &spec)
{
    std::vector<hir::Program> programs;
    programs.reserve(static_cast<std::size_t>(spec.programs));
    std::vector<std::uint64_t> seeds;
    for (int i = 0; i < spec.programs; ++i) {
        workloads::GeneratorConfig gen = spec.gen;
        gen.seed = spec.firstSeed + static_cast<std::uint64_t>(i);
        programs.push_back(workloads::generate(gen));
        seeds.push_back(gen.seed);
    }

    FuzzReport report;
    std::vector<std::vector<ArmDef>> armSets;
    armSets.reserve(programs.size());
    std::vector<RunSpec> runSpecs;
    for (std::size_t pi = 0; pi < programs.size(); ++pi) {
        armSets.push_back(spec.runArms
                              ? buildArms(spec, seeds[pi])
                              : std::vector<ArmDef>{});
        for (const ArmDef &arm : armSets.back())
            runSpecs.push_back({&programs[pi], arm.cfg});
    }

    std::vector<RunMetrics> results =
        Experiment::runMany(runSpecs, spec.jobs);

    std::size_t idx = 0;
    for (std::size_t pi = 0; pi < programs.size(); ++pi) {
        evaluateProgram(report, spec, programs[pi], seeds[pi],
                        armSets[pi], results.data() + idx);
        idx += armSets[pi].size();
    }
    return report;
}

FuzzReport
Fuzzer::runProgram(const hir::Program &prog, std::uint64_t seed,
                   const FuzzSpec &spec)
{
    FuzzReport report;
    std::vector<ArmDef> arms =
        spec.runArms ? buildArms(spec, seed) : std::vector<ArmDef>{};
    std::vector<RunSpec> runSpecs;
    for (const ArmDef &arm : arms)
        runSpecs.push_back({&prog, arm.cfg});
    std::vector<RunMetrics> results =
        Experiment::runMany(runSpecs, spec.jobs);
    evaluateProgram(report, spec, prog, seed, arms, results.data());
    return report;
}

hir::Program
Fuzzer::shrink(const hir::Program &prog, std::uint64_t seed,
               const FuzzSpec &spec, int *steps_out)
{
    if (steps_out)
        *steps_out = 0;
    if (Fuzzer::runProgram(prog, seed, spec).ok())
        return prog;  // nothing to minimize

    hir::Program current = workloads::dropUnreachable(prog);
    if (Fuzzer::runProgram(current, seed, spec).ok())
        current = prog;  // canonicalization alone removed the failure

    int steps = 0;
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (hir::Program &cand : workloads::shrinkSteps(current)) {
            if (!Fuzzer::runProgram(cand, seed, spec).ok()) {
                current = std::move(cand);
                ++steps;
                progressed = true;
                break;
            }
        }
    }
    if (steps_out)
        *steps_out = steps;
    return current;
}

std::string
FuzzReport::table() const
{
    std::string out;
    out += fmt("%zu programs, %d runs, %d budget cutoffs\n",
               programs.size(), runsTotal, cutoffsTotal);
    if (violations.empty()) {
        out += "all invariants held\n";
    } else {
        out += fmt("%zu violations:\n", violations.size());
        for (const ChaosViolation &v : violations) {
            out += fmt("  %s seed=%llu [%s]: %s\n", v.workload.c_str(),
                       static_cast<unsigned long long>(v.seed),
                       v.arm.c_str(), v.what.c_str());
        }
    }
    return out;
}

std::string
FuzzReport::json(const std::string &tool) const
{
    std::string out =
        fmt("{\"tool\":\"%s\",\"programs\":%zu,\"runs\":%d,"
            "\"cutoffs\":%d,\"ok\":%s,\"violations\":[",
            tool.c_str(), programs.size(), runsTotal, cutoffsTotal,
            ok() ? "true" : "false");
    for (std::size_t i = 0; i < violations.size(); ++i) {
        if (i)
            out += ",";
        out += violationJson(violations[i]);
    }
    out += "]}";
    return out;
}

} // namespace adore
