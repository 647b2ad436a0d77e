/**
 * @file
 * Chaos soak driver (DESIGN.md §10): sweep the workload registry under
 * seeded fault schedules and assert the runtime's survival invariants.
 *
 * For every (workload, seed) pair two runs execute:
 *
 *  - *baseline*: no ADORE, but the same fault plan — the memory-system
 *    channels (latency jitter, bus squeeze) degrade this run exactly as
 *    they degrade the chaotic run, so the CPI margin compares ADORE's
 *    behaviour under faults against a fairly-degraded machine rather
 *    than a pristine one (the PMU and patching channels never fire
 *    without a sampler/optimizer attached);
 *  - *chaotic*: ADORE attached with guardrails enabled under the full
 *    fault schedule.
 *
 * Invariants checked per pair (violations are collected, not fatal):
 *
 *  1. no crashes — any panic aborts the process, so merely completing
 *     the sweep proves this; each run must also retire instructions;
 *  2. metrics self-consistent — CPI is exactly cycles/retired, revert
 *     stats never exceed patch stats, prefetch stats are internally
 *     ordered, and guardrail counters agree with runtime counters;
 *  3. CPI margin — chaotic CPI <= baseline CPI * cpiMargin: the
 *     guardrails must keep a faulted optimizer from regressing the
 *     program materially below the no-ADORE baseline.
 *
 * Determinism: FaultPlan draws from per-channel streams seeded only by
 * ChaosSpec seeds and the optimizer runs inside the simulation's poll
 * hook, so rerunning a spec reproduces identical metrics and
 * decision-event streams.
 */

#ifndef ADORE_HARNESS_CHAOS_HH
#define ADORE_HARNESS_CHAOS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace adore
{

struct ChaosSpec
{
    /** Workload names to sweep; empty = the full registry. */
    std::vector<std::string> workloads;
    /** Fault seeds; each seed is one complete fault schedule. */
    std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};
    /**
     * Fault-rate template; the per-run seed overrides faults.seed.
     * Defaults to moderate rates on every channel (defaultChaosFaults).
     */
    fault::FaultConfig faults;
    /** Chaotic-run cycle budget (baseline uses the same budget). */
    Cycle maxCycles = 20'000'000ULL;
    /** Chaotic CPI must stay within this ratio of the baseline CPI. */
    double cpiMargin = 1.15;
    /** Trace-pool bound (bundles) so exhaustion is exercised. */
    std::size_t poolCapacityBundles = 768;
    /** Thread-pool width for the sweep (0 = ADORE_JOBS default). */
    unsigned jobs = 0;
    /** Execution tier for both runs of every pair (adore_chaos
     *  --exec-tier), so soaks cover the superblock tier and the pure
     *  interpreter alike. */
    ExecTier execTier = CpuConfig().execTier;
    /** Enable the hardware-prefetcher zoo on *both* runs of every pair
     *  (adore_chaos --hwpf): the CPI margin then compares hw+ADORE
     *  against an hw-only baseline, with guardrailed ADORE and the
     *  static zoo sharing one bus under the fault schedule. */
    bool hwPrefetch = false;

    ChaosSpec();
};

/** Moderate rates on every fault channel (seed left at 0). */
fault::FaultConfig defaultChaosFaults();

/** One (workload, seed) pair's outcome. */
struct ChaosRunResult
{
    std::string workload;
    std::uint64_t seed = 0;
    RunMetrics baseline;  ///< no ADORE, same memory-fault schedule
    RunMetrics chaotic;   ///< ADORE + guardrails under the full schedule

    double
    cpiRatio() const
    {
        return baseline.cpi > 0.0 ? chaotic.cpi / baseline.cpi : 0.0;
    }
};

/** One violated invariant. */
struct ChaosViolation
{
    std::string workload;
    std::uint64_t seed = 0;
    /** Which run (configuration arm) of the pair tripped it:
     *  "baseline", "chaotic", "pair" (cross-run checks like the CPI
     *  margin), or "<sweep>" for sweep-level invariants. */
    std::string arm;
    std::string what;
};

/** One violation as a JSON object ({"workload":..,"seed":..,"arm":..,
 *  "what":..}) — shared by adore_chaos and adore_fuzz failure output. */
std::string violationJson(const ChaosViolation &v);

struct ChaosReport
{
    std::vector<ChaosRunResult> runs;
    std::vector<ChaosViolation> violations;

    bool ok() const { return violations.empty(); }

    /** Human-readable sweep table + violation list. */
    std::string table() const;

    /**
     * Machine-readable summary for CI and scripts (printed by
     * adore_chaos on every exit): {"tool":<tool>,"runs":N,
     * "violations":[{workload,seed,arm,what}...]}.
     */
    std::string json(const std::string &tool) const;
};

} // namespace adore

#endif // ADORE_HARNESS_CHAOS_HH
