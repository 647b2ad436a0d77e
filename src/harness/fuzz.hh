/**
 * @file
 * Differential invariant fuzzer (DESIGN.md §14).
 *
 * Each program from the property-based generator
 * (src/workloads/generator.hh) runs through a matrix of configuration
 * *arms* — interpreter vs direct-threaded tier, fastPath on/off, ADORE
 * on both tiers, the hardware-prefetcher zoo, and an optional chaos
 * pair sharing one fault schedule — and the harness checks every
 * invariant the codebase claims piecewise on the 17 hand-written
 * kernels:
 *
 *  - *no crash / no hang*: every run carries quietCycleLimit with a
 *    bounded cycle budget, so a non-terminating program is cut off and
 *    counted (a panic still aborts — completing the sweep is the
 *    crash-freedom proof);
 *  - *bit-identity*: arms whose toggle promises identity (fastPath,
 *    exec tier) must agree on every simulated counter — skipped for a
 *    pair only when either side was cut off by the budget, since a
 *    cutoff is not a completed program;
 *  - *metric self-consistency*: every arm, via harness/invariants.hh;
 *  - *guardrail CPI margin*: the chaos pair must satisfy
 *    checkCpiMargin (runtime/guardrails.hh) like the chaos soak does.
 *
 * When a program trips an invariant, Fuzzer::shrink greedily walks
 * workloads::shrinkSteps, keeping any reduction that still fails and
 * re-verifying every step, until no smaller failing program exists;
 * adore_fuzz writes the result as a corpus kernel
 * (corpus/<name>.kernel, the renderProgram format) next to a JSON
 * failure summary so the failure replays from the file alone.
 */

#ifndef ADORE_HARNESS_FUZZ_HH
#define ADORE_HARNESS_FUZZ_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/chaos.hh"
#include "harness/experiment.hh"
#include "workloads/generator.hh"

namespace adore
{

struct FuzzSpec
{
    /** Programs are generated from seeds firstSeed..firstSeed+count-1. */
    std::uint64_t firstSeed = 1;
    int programs = 50;
    /** Generator shape knobs; the per-program seed overrides gen.seed. */
    workloads::GeneratorConfig gen;
    /** Per-run watchdog budget (every arm runs with quietCycleLimit). */
    Cycle maxCycles = 30'000'000ULL;
    /** Include the chaos arm pair (shared fault schedule + CPI margin). */
    bool withChaos = true;
    /** Chaos-pair fault template; the program seed seeds the schedule. */
    fault::FaultConfig faults;
    /** Chaos-pair CPI margin.  Wider than the chaos soak's: generated
     *  programs include shapes (tiny hot loops, pure pointer chases)
     *  where a single unlucky revert costs relatively more than on the
     *  hand-tuned kernels. */
    double cpiMargin = 1.5;
    /** Trace-pool bound for ADORE arms, so exhaustion is exercised. */
    std::size_t poolCapacityBundles = 768;
    /** Thread-pool width (0 = ADORE_JOBS default). */
    unsigned jobs = 0;
    /** Run the configuration arms (disable only for shrinker tests
     *  that rely solely on injectFailure). */
    bool runArms = true;
    /**
     * Fault-injection hook for shrinker tests and the --shrink demo: a
     * non-empty return is recorded as a synthetic violation (arm
     * "injected") for that program.  Deterministic predicates only —
     * the shrinker re-evaluates it on every candidate reduction.
     */
    std::function<std::string(const hir::Program &)> injectFailure;

    FuzzSpec();
};

struct FuzzProgramResult
{
    std::string name;        ///< gen_<seed> (or the replayed kernel name)
    std::uint64_t seed = 0;
    int runs = 0;
    int cutoffs = 0;         ///< runs cut off by the cycle budget
};

struct FuzzReport
{
    std::vector<FuzzProgramResult> programs;
    /** Violations reuse the chaos shape: workload = program name,
     *  seed = generator seed, arm = arm (or pair) that tripped. */
    std::vector<ChaosViolation> violations;
    int runsTotal = 0;
    int cutoffsTotal = 0;

    bool ok() const { return violations.empty(); }

    /** Human-readable sweep summary + violation list. */
    std::string table() const;
    /** Machine-readable summary ({"tool":...,"programs":N,...}). */
    std::string json(const std::string &tool) const;
};

class Fuzzer
{
  public:
    /** Generate spec.programs programs and run the full arm matrix
     *  over all of them (one ThreadPool fan-out). */
    static FuzzReport run(const FuzzSpec &spec);

    /** Run the arm matrix over one explicit program (replay path and
     *  the shrinker's re-verification step).  @p seed labels results
     *  and seeds the chaos-pair fault schedule. */
    static FuzzReport runProgram(const hir::Program &prog,
                                 std::uint64_t seed,
                                 const FuzzSpec &spec);

    /**
     * Greedy failure minimization: starting from a program whose
     * runProgram report has violations, repeatedly take the first
     * single-step reduction (workloads::shrinkSteps order: structural
     * drops before size halvings) that still fails, until none does.
     * @p steps_out (optional) receives the number of accepted
     * reductions.  Returns @p prog unchanged if it never failed.
     */
    static hir::Program shrink(const hir::Program &prog,
                               std::uint64_t seed, const FuzzSpec &spec,
                               int *steps_out = nullptr);
};

} // namespace adore

#endif // ADORE_HARNESS_FUZZ_HH
