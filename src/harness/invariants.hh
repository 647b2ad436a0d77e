/**
 * @file
 * Run-metric invariants shared by the chaos soak (harness/chaos.cc) and
 * the property-based fuzz harness (harness/fuzz.cc).
 *
 * Both harnesses make the same three kinds of claims about finished
 * simulations:
 *
 *  - *self-consistency*: one run's metric set must be internally
 *    coherent (CPI is exactly cycles/retired, cache counters nest,
 *    revert counters stay below patch counters, ...);
 *  - *bit-identity*: two runs differing only in a toggle that promises
 *    identity (fastPath, execution tier) must agree on every simulated
 *    counter;
 *  - *CPI margin*: a guarded ADORE run under faults must stay within a
 *    margin of the unoptimized baseline's CPI.
 *
 * Checks append one-line diagnostics instead of asserting, so callers
 * can collect violations across a sweep and report them together.
 */

#ifndef ADORE_HARNESS_INVARIANTS_HH
#define ADORE_HARNESS_INVARIANTS_HH

#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace adore::invariants
{

/** Verdict of the after-the-fact CPI-margin gate. */
struct CpiMarginVerdict
{
    bool applicable = false;  ///< the baseline CPI was measurable
    bool ok = true;
};

/**
 * The invariant the guardrail exists to uphold, evaluated post-run: a
 * guarded run's CPI must stay within @p margin times the unoptimized
 * baseline's.  An unmeasurable baseline (no retired instructions)
 * makes the check inapplicable rather than vacuously passing.
 */
CpiMarginVerdict checkCpiMargin(double baseline_cpi, double guarded_cpi,
                                double margin);

/**
 * Append a "<prefix><problem>" line to @p out for every internal
 * inconsistency in @p m: CPI not cycles/retired, zero retired
 * instructions, cache hits+misses above accesses, revert/patch stat
 * ordering, and (when faults are injected) more patch failures than
 * injected.
 */
void checkSelfConsistent(const RunMetrics &m, const std::string &prefix,
                         std::vector<std::string> &out);

/**
 * Call `f(label, get, runtime)` for every counter block of RunMetrics,
 * where `get(m)` returns that block of a (const or mutable) RunMetrics
 * @c m and @c runtime marks the blocks only the ADORE runtime fills.
 * diffIdentity walks this table; tests use it to reach every field.
 */
template <typename F>
void
forEachStatBlock(F &&f)
{
    f("mem", [](auto &m) -> auto & { return m.memStats; }, false);
    f("l1i", [](auto &m) -> auto & { return m.l1iStats; }, false);
    f("l1d", [](auto &m) -> auto & { return m.l1dStats; }, false);
    f("l2", [](auto &m) -> auto & { return m.l2Stats; }, false);
    f("l3", [](auto &m) -> auto & { return m.l3Stats; }, false);
    f("fault", [](auto &m) -> auto & { return m.faultStats; }, false);
    f("hwpf.stride", [](auto &m) -> auto & { return m.hwpfStats.stride; },
      false);
    f("hwpf.vldp", [](auto &m) -> auto & { return m.hwpfStats.vldp; },
      false);
    f("hwpf.pointer", [](auto &m) -> auto & { return m.hwpfStats.pointer; },
      false);
    f("tier", [](auto &m) -> auto & { return m.superblockStats; }, false);
    f("adore", [](auto &m) -> auto & { return m.adoreStats; }, true);
    f("pmu", [](auto &m) -> auto & { return m.samplerStats; }, true);
}

/**
 * Append a "<field>: <a> != <b>" line to @p out for every simulated
 * counter on which @p a and @p b differ: halt state, cycles, retired,
 * DEAR misses, region-generation bumps, whether faults were on, and
 * every Sim field of every counter block, named "<block>.<member>"
 * (e.g. "l1d.misses").  Host fields are never compared.  The runtime's
 * blocks (ADORE, PMU sampler, and whether the guardrail was on) are
 * compared only with @p compare_adore set, for pairs where both runs
 * attach the runtime.
 */
void diffIdentity(const RunMetrics &a, const RunMetrics &b,
                  bool compare_adore, std::vector<std::string> &out);

} // namespace adore::invariants

#endif // ADORE_HARNESS_INVARIANTS_HH
