/**
 * @file
 * Experiment harness: compiles an HIR workload at a given configuration,
 * runs it on a fresh Machine with or without the ADORE runtime attached,
 * and returns the metrics the paper's tables and figures are built from
 * (cycles, CPI, DEAR miss rates, ADORE statistics, compile reports, and
 * optional CPI / DEAR time series for the Fig. 8/9 curves).
 */

#ifndef ADORE_HARNESS_EXPERIMENT_HH
#define ADORE_HARNESS_EXPERIMENT_HH

#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "compiler/compiler.hh"
#include "cpu/exec_tier.hh"
#include "fault/fault_plan.hh"
#include "harness/machine.hh"
#include "observe/metrics_registry.hh"
#include "runtime/adore.hh"
#include "support/stats.hh"

namespace adore
{

struct ChaosSpec;
struct ChaosReport;

struct RunConfig
{
    CompileOptions compile{};
    bool adore = false;             ///< attach the dynamic optimizer
    AdoreConfig adoreConfig{};
    MachineConfig machine{};
    Cycle maxCycles = 4'000'000'000ULL;
    /** Suppress the warning when maxCycles is reached before Halt —
     *  for sweeps (chaos smoke) that bound runs by budget on purpose. */
    bool quietCycleLimit = false;
    /** When nonzero, sample CPI / DEAR-per-1000-insn series at this
     *  cycle interval (Figs. 8 and 9). */
    Cycle seriesInterval = 0;
    /**
     * Chaos fault schedule (DESIGN.md §10).  When any channel rate is
     * nonzero, run() builds a deterministic FaultPlan from the seed and
     * wires it into the sampler, the runtime's patching path, and the
     * memory hierarchy.  All-zero rates (the default) construct no plan
     * and leave every path bit-identical to a fault-free build.
     */
    fault::FaultConfig faults{};
    /**
     * Cooperative cancellation (DESIGN.md §15).  When set, run()
     * registers a periodic hook at @ref cancelCheckPeriod that forwards
     * the flag to Cpu::requestStop(), so an external owner (the adored
     * deadline monitor, a SIGTERM path) can abandon a simulation with
     * bounded latency.  A cancelled run returns with halted == false
     * and RunMetrics::stopRequested set; its metrics are partial and
     * must not be compared against completed runs.  Registering the
     * hook perturbs superblock event-exit cadence (tier.dispatches), so
     * bit-identity claims only hold between runs that agree on whether
     * a cancel hook is present — the daemon and its one-shot reference
     * runs both register one.
     */
    const std::atomic<bool> *cancelFlag = nullptr;
    Cycle cancelCheckPeriod = 65'536;
    /**
     * Test-only failure injection: when set, called once after compile
     * and machine setup, before the first simulated cycle.  A throwing
     * failpoint propagates to the caller exactly like a real harness
     * bug, which is what the crash-isolation paths (runManyChecked, the
     * daemon's worker try/catch) are tested against.
     */
    std::function<void()> testFailpoint;
};

struct RunMetrics
{
    bool halted = false;
    /** run() returned early because RunConfig::cancelFlag was raised. */
    bool stopRequested = false;
    Cycle cycles = 0;
    std::uint64_t retired = 0;
    std::uint64_t dearMisses = 0;
    double cpi = 0.0;
    double dearPer1000 = 0.0;  ///< DEAR-qualifying misses / 1000 insns
    CompileReport compileReport;
    bool adoreUsed = false;
    AdoreStats adoreStats;
    SamplerStats samplerStats;      ///< PMU delivery/drop accounting
    ExecTier execTier = ExecTier::Interpreter;  ///< tier the run used
    SuperblockStats superblockStats;  ///< tier cache lifecycle counters
    /** Total CodeImage region-generation bumps over the run (all
     *  sources: compile-time appends, pool writes, patch/revert). */
    std::uint64_t regionGenBumps = 0;
    bool faultsUsed = false;        ///< a FaultPlan was constructed
    fault::FaultStats faultStats;   ///< per-channel injection counts
    bool guardrailsUsed = false;    ///< guardrails were enabled
    GuardrailStats guardrailStats;
    bool hwPrefetchUsed = false;    ///< hw-prefetch engine constructed
    HwPrefetchStats hwpfStats;      ///< per-prefetcher counters
    HierarchyStats memStats;
    CacheStats l1iStats;
    CacheStats l1dStats;
    CacheStats l2Stats;
    CacheStats l3Stats;
    TimeSeries cpiSeries;
    TimeSeries dearSeries;

    /** Wall-clock seconds at the paper's 900 MHz test machine. */
    double
    secondsAt900MHz() const
    {
        return static_cast<double>(cycles) / 900e6;
    }
};

/** One independent simulation for Experiment::runMany. */
struct RunSpec
{
    const hir::Program *prog = nullptr;
    RunConfig cfg{};
};

/**
 * One job's outcome from Experiment::runManyChecked: either a metric
 * set (ok) or a structured failure (error carries the exception text),
 * so one throwing job never voids its batch-mates' results.
 */
struct RunOutcome
{
    bool ok = false;
    RunMetrics metrics{};
    std::string error;
};

class Experiment
{
  public:
    /** Compile and run @p prog under @p cfg on a fresh machine. */
    static RunMetrics run(const hir::Program &prog, const RunConfig &cfg);

    /**
     * Run every spec on a fresh machine, fanning out across a thread
     * pool (ADORE_JOBS workers by default, or @p jobs when nonzero).
     * Every simulation is fully self-contained, so results are
     * bit-identical to calling run() in a serial loop, and results[i]
     * always corresponds to specs[i] regardless of completion order.
     *
     * A worker exception (a throwing workload, a null program) no
     * longer aborts the batch: every other spec still runs to
     * completion, and runMany then throws one std::runtime_error
     * aggregating each failed spec's index, name, and reason.  Callers
     * that want the per-job results even in the presence of failures
     * use runManyChecked.
     */
    static std::vector<RunMetrics> runMany(const std::vector<RunSpec> &specs,
                                           unsigned jobs = 0);

    /**
     * Exception-isolating runMany: every spec runs regardless of what
     * its batch-mates do, and outcomes[i] reports spec i's metrics or
     * its failure (never both).  This is the primitive the serving
     * daemon's crash isolation is built on.
     *
     * Specs start largest program data first (dataBytes(), ties in
     * index order) as far as @ref inFlightDataBytes lets them: a spec
     * that would push the runs in flight past it waits, and a smaller
     * one that fits starts first.  The budget fixes the peak memory of
     * a batch instead of leaving it to which large runs the workers
     * happen to overlap.
     */
    static std::vector<RunOutcome>
    runManyChecked(const std::vector<RunSpec> &specs, unsigned jobs = 0);

    /**
     * Ceiling on the summed dataBytes() of the specs runMany keeps in
     * flight at once.  It holds any two registry workloads except two
     * of swim (36 MiB) and applu (53 MiB), which never overlap.
     */
    static constexpr std::uint64_t inFlightDataBytes = std::uint64_t{64}
                                                       << 20;

    /** Bytes of simulated data @p prog declares: arrays and lists. */
    static std::uint64_t dataBytes(const hir::Program &prog);

    /**
     * Training run for profile-guided static prefetching (Table 1):
     * collect DEAR events over a full run of @p prog compiled with
     * @p train_opts, sort delinquent loads by total latency, keep loads
     * covering @p coverage of total latency, and return the set of
     * source loops containing at least one of them.
     */
    static MissProfile collectProfile(const hir::Program &prog,
                                      const CompileOptions &train_opts,
                                      double coverage = 0.9);

    /** Relative speedup of @p opt over @p base: base/opt - 1. */
    static double
    speedup(Cycle base_cycles, Cycle opt_cycles)
    {
        return opt_cycles
                   ? static_cast<double>(base_cycles) /
                             static_cast<double>(opt_cycles) -
                         1.0
                   : 0.0;
    }

    /**
     * Register every counter of @p metrics in @p registry under the
     * dotted namespace of DESIGN.md §9 ("run.cycles", "l1d.miss_rate",
     * "adore.traces_patched", ...) — the uniform query surface the
     * --json report mode and adore_report are built on.
     */
    static void collectMetrics(observe::MetricsRegistry &registry,
                               const RunMetrics &metrics);

    /** The full metric set of @p metrics as a flat JSON object. */
    static std::string metricsJson(const RunMetrics &metrics);

    /**
     * Chaos soak (harness/chaos.hh): run every workload × fault seed of
     * @p spec twice (no-ADORE baseline and guardrailed chaotic run) and
     * check the survival invariants.  Defined in chaos.cc.
     */
    static ChaosReport runChaos(const ChaosSpec &spec);

    /** Default ADORE configuration matched to the scaled machine. */
    static AdoreConfig defaultAdoreConfig();
};

} // namespace adore

#endif // ADORE_HARNESS_EXPERIMENT_HH
