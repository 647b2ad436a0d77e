#include "harness/chaos.hh"

#include <cmath>
#include <cstdio>

#include "harness/invariants.hh"
#include "workloads/workloads.hh"

namespace adore
{

fault::FaultConfig
defaultChaosFaults()
{
    fault::FaultConfig f;
    f.dropBatchRate = 0.05;
    f.dupBatchRate = 0.03;
    f.dearAliasRate = 0.05;
    f.counterJitterRate = 0.10;
    f.btbCorruptRate = 0.05;
    f.patchFailRate = 0.10;
    f.optimizerStallRate = 0.20;
    f.memJitterRate = 0.05;
    f.busSqueezeRate = 0.05;
    return f;
}

ChaosSpec::ChaosSpec() : faults(defaultChaosFaults()) {}

namespace
{

/** snprintf into a std::string (all lines are short and bounded). */
template <typename... Args>
std::string
fmt(const char *format, Args... args)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), format, args...);
    return buf;
}

void
require(ChaosReport &report, const ChaosRunResult &r, const char *arm,
        bool ok, const std::string &what)
{
    if (!ok)
        report.violations.push_back({r.workload, r.seed, arm, what});
}

/** Invariant 2 (shared with the fuzz harness): one run's metrics must
 *  be internally consistent. */
void
checkSelfConsistent(ChaosReport &report, const ChaosRunResult &r,
                    const RunMetrics &m, const char *which)
{
    std::vector<std::string> problems;
    invariants::checkSelfConsistent(m, "", problems);
    for (std::string &what : problems)
        report.violations.push_back(
            {r.workload, r.seed, which, std::move(what)});
}

/** Minimal JSON string escaping (quotes, backslashes, control bytes). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += fmt("\\u%04x", c);
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

std::string
violationJson(const ChaosViolation &v)
{
    return fmt("{\"workload\":\"%s\",\"seed\":%llu,\"arm\":\"%s\","
               "\"what\":\"%s\"}",
               jsonEscape(v.workload).c_str(),
               static_cast<unsigned long long>(v.seed),
               jsonEscape(v.arm).c_str(), jsonEscape(v.what).c_str());
}

ChaosReport
Experiment::runChaos(const ChaosSpec &spec)
{
    std::vector<std::string> names = spec.workloads;
    if (names.empty()) {
        for (const workloads::WorkloadInfo &w : workloads::allWorkloads())
            names.push_back(w.name);
    }

    // Programs are shared read-only across the sweep.
    std::vector<hir::Program> programs;
    programs.reserve(names.size());
    for (const std::string &name : names)
        programs.push_back(workloads::make(name));

    // Two specs per (workload, seed): baseline then chaotic.
    std::vector<RunSpec> runSpecs;
    for (std::size_t wi = 0; wi < names.size(); ++wi) {
        for (std::uint64_t seed : spec.seeds) {
            RunConfig base;
            base.compile = restrictedOptions(OptLevel::O2);
            base.maxCycles = spec.maxCycles;
            base.quietCycleLimit = true;  // bounded by budget on purpose
            base.machine.cpu.execTier = spec.execTier;
            base.machine.hier.hwPrefetch.enabled = spec.hwPrefetch;
            base.faults = spec.faults;
            base.faults.seed = seed;

            RunConfig chaotic = base;
            chaotic.adore = true;
            chaotic.adoreConfig = defaultAdoreConfig();
            chaotic.adoreConfig.guardrails.enabled = true;
            chaotic.adoreConfig.tracePoolCapacityBundles =
                spec.poolCapacityBundles;

            runSpecs.push_back({&programs[wi], base});
            runSpecs.push_back({&programs[wi], chaotic});
        }
    }

    std::vector<RunMetrics> results = runMany(runSpecs, spec.jobs);

    ChaosReport report;
    std::size_t idx = 0;
    for (std::size_t wi = 0; wi < names.size(); ++wi) {
        for (std::uint64_t seed : spec.seeds) {
            ChaosRunResult r;
            r.workload = names[wi];
            r.seed = seed;
            r.baseline = results[idx++];
            r.chaotic = results[idx++];

            checkSelfConsistent(report, r, r.baseline, "baseline");
            checkSelfConsistent(report, r, r.chaotic, "chaotic");
            require(report, r, "chaotic", r.chaotic.adoreUsed,
                    "ADORE was not attached");
            require(report, r, "chaotic", r.chaotic.guardrailsUsed,
                    "guardrails were not enabled");
            CpiMarginVerdict margin = checkCpiMargin(
                r.baseline.cpi, r.chaotic.cpi, spec.cpiMargin);
            if (margin.applicable) {
                require(report, r, "pair", margin.ok,
                        fmt("cpi margin exceeded: %.3f > %.3f * %.2f",
                            r.chaotic.cpi, r.baseline.cpi,
                            spec.cpiMargin));
            }

            report.runs.push_back(std::move(r));
        }
    }

    // Sweep-level: with the stall channel armed, the watchdog must have
    // fired somewhere — a schedule that never trips it isn't exercising
    // the cancellation path at all.
    if (spec.faults.optimizerStallRate > 0.0 && !report.runs.empty()) {
        std::uint64_t fires = 0;
        for (const ChaosRunResult &r : report.runs)
            fires += r.chaotic.guardrailStats.watchdogFires;
        if (fires == 0) {
            report.violations.push_back(
                {"<sweep>", 0, "<sweep>",
                 "optimizer stalls injected but the watchdog never "
                 "fired"});
        }
    }
    return report;
}

std::string
ChaosReport::table() const
{
    std::string out;
    out += "workload       seed  base-cpi  chaos-cpi  ratio  faults  "
           "reverts  throttle  rejects  watchdog\n";
    for (const ChaosRunResult &r : runs) {
        const GuardrailStats &g = r.chaotic.guardrailStats;
        out += fmt(
            "%-13s %5llu  %8.3f  %9.3f  %5.3f  %6llu  %7llu  %8llu  "
            "%7llu  %8llu\n",
            r.workload.c_str(),
            static_cast<unsigned long long>(r.seed), r.baseline.cpi,
            r.chaotic.cpi, r.cpiRatio(),
            static_cast<unsigned long long>(r.chaotic.faultStats.total()),
            static_cast<unsigned long long>(g.stagedReverts +
                                            g.fullReverts),
            static_cast<unsigned long long>(g.prefetchDamped +
                                            g.prefetchDisabled),
            static_cast<unsigned long long>(g.poolExhaustedRejects +
                                            g.patchFailures),
            static_cast<unsigned long long>(g.watchdogFires));
    }
    if (violations.empty()) {
        out += fmt("\n%zu runs, all invariants held\n", runs.size());
    } else {
        out += fmt("\n%zu runs, %zu violations:\n", runs.size(),
                   violations.size());
        for (const ChaosViolation &v : violations) {
            out += fmt("  %s seed=%llu [%s]: %s\n", v.workload.c_str(),
                       static_cast<unsigned long long>(v.seed),
                       v.arm.c_str(), v.what.c_str());
        }
    }
    return out;
}

std::string
ChaosReport::json(const std::string &tool) const
{
    std::string out = fmt("{\"tool\":\"%s\",\"runs\":%zu,\"ok\":%s,"
                          "\"violations\":[",
                          tool.c_str(), runs.size(),
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
