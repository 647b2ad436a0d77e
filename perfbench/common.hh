/**
 * @file
 * Shared plumbing of the repository benchmark: host clocks, the
 * in-memory span tracer, the metric list a workload fills, and the
 * options every workload receives.
 *
 * The benchmark measures the simulator from outside: it times calls
 * into the public functions of each layer (workloads, compiler,
 * harness, observe, serve) and reads the deterministic counters the
 * harness already returns in RunMetrics.  Nothing here changes how the
 * simulator runs.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace perfbench
{

/** Host wall clock (steady), seconds since an arbitrary epoch. */
double wallS();
/** CPU seconds of the whole process / of the calling thread. */
double processCpuS();
double threadCpuS();
/** Peak resident set of the process so far, MiB. */
double peakRssMb();

/** Median and linear-interpolated percentile (p in [0, 100]). */
double median(std::vector<double> v);
/** Smallest element; 0 when empty. */
double fastest(const std::vector<double> &v);
double percentile(std::vector<double> v, double p);

/**
 * In-memory span recorder.  Disabled tracers record nothing and cost
 * one branch per span; spans are written out once, when the benchmark
 * ends (Chrome trace-event JSON, loadable in ui.perfetto.dev).
 */
class Tracer
{
  public:
    struct Span
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0;  ///< 0 = root
        std::string name;
        std::string key;           ///< job id / scenario, may be empty
        double start = 0.0;
        double end = 0.0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Open a span; returns its id (0 when disabled). */
    std::uint64_t begin(const std::string &name, std::uint64_t parent = 0,
                        const std::string &key = "");
    void end(std::uint64_t id);

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &t, const std::string &name, std::uint64_t parent = 0,
              const std::string &key = "")
            : t_(t), id_(t.begin(name, parent, key))
        {
        }
        ~Scope() { t_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        std::uint64_t id() const { return id_; }

      private:
        Tracer &t_;
        std::uint64_t id_;
    };

    std::vector<Span> spans() const;

    /** Write every span as Chrome trace-event JSON. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint64_t nextId_ = 1;
};

/** One named number with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run returns to main(). */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    /** Human-readable lines printed before the result (sample counts,
     *  caveats, mismatch diagnostics). */
    std::vector<std::string> notes;

    void
    e2e(const std::string &name, double value, const std::string &unit)
    {
        endToEnd.push_back({name, value, unit});
    }
    void
    layer(const std::string &name, double value, const std::string &unit)
    {
        perLayer.push_back({name, value, unit});
    }
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    /** Checkout root: holds EXPERIMENTS.md. */
    std::string root = ".";
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string traceOut;
    /** Self-test sizing: a few jobs per workload. */
    bool small = false;
    /** Self-test only: corrupt one identity twin so ok_share < 1. */
    bool plantMismatch = false;
};

/** The paper's restricted compile at @p level (report.cc's rule). */
adore::CompileOptions restrictedOptions(adore::OptLevel level,
                                        std::uint64_t dataSeed);

/** Programs built by the shared set-up, with its host times. */
struct ProgramSet
{
    std::vector<adore::hir::Program> progs;
    double makeS = 0.0;     ///< workloads::make, all programs
    double compileS = 0.0;  ///< Compiler::compile, all programs x levels
};

/**
 * The set-up every workload starts with: build the named registry
 * programs (one `workloads::make` span each) and compile each once per
 * level at restricted options on a scratch machine (one
 * `compiler::compile` span each), which warms the allocator before the
 * timed loop and exposes the compile time Experiment::run hides.
 */
ProgramSet buildPrograms(const std::vector<std::string> &names,
                         const std::vector<adore::OptLevel> &levels,
                         std::uint64_t dataSeed, Tracer &tracer);

/** One replayed run and its host cost. */
struct TimedRun
{
    adore::RunMetrics m;
    double cpuS = 0.0;   ///< process CPU
    double wallS = 0.0;
};

/** A run to replay: program, configuration, span key. */
struct Replay
{
    const adore::hir::Program *prog = nullptr;
    adore::RunConfig cfg;
    std::string key;
};

/**
 * Run every replay kReplayRounds times on this thread (one
 * `Experiment::run` span each) and keep each one's smallest CPU and
 * wall time: host noise only ever adds time, and a replay is too short
 * for one timing to be steady.  The rounds go over the whole list in
 * turn, so the repeats of one replay lie seconds apart and rarely share
 * a burst of host noise.  @return one result per replay, in order.
 */
std::vector<TimedRun> replayFastest(const std::vector<Replay> &replays,
                                    Tracer &tracer);

constexpr int kReplayRounds = 2;

/**
 * Set-up repetitions; setup_s is the fastest.  Set-up lasts 0.15-0.5 s,
 * and host noise arrives as bursts that only ever add time, so the
 * fastest of several is far steadier from run to run than their median.
 */
constexpr int kSetupReps = 7;

/**
 * The `paper (≈)` column of the committed fig07a block of
 * EXPERIMENTS.md, as (workload, percent) pairs.  Entries that do not
 * parse as a number ("?") are skipped.
 */
std::vector<std::pair<std::string, double>>
paperFig07a(const std::string &experimentsText);

/**
 * The `measured` column of a fig07a block, same shape as paperFig07a.
 */
std::vector<std::pair<std::string, double>>
measuredFig07a(const std::string &experimentsText);

/**
 * The cpu.* and harness.sim_mips.* layer metrics, summed over runs in
 * both tiers: per-workload interpreter ÷ direct CPU, the direct tier's
 * superblock counters, and each workload's direct-tier sim-MIPS.
 */
class TierLedger
{
  public:
    /** Record one run; @p mips marks the run harness.sim_mips reads
     *  (the direct-tier baseline). */
    void add(const std::string &workload, const adore::RunMetrics &m,
             double cpuS, double wallSeconds, bool mips);
    void emit(Outcome &out) const;

  private:
    struct PerWorkload
    {
        std::string name;
        double interpCpu = 0.0;
        double directCpu = 0.0;
        double mips = 0.0;
    };
    std::vector<PerWorkload> rows_;
    adore::SuperblockStats sb_;
};

/** Printed next to adore_speedup_geomean and paper_gap_pp. */
constexpr const char *kFidelityNote =
    "paper_gap_pp compares with the `paper (\u2248)` column of fig07a, "
    "approximate readings of a figure; the simulated machine is not "
    "validated against hardware";

/** Mean |measured − paper| in percentage points over shared names. */
double paperGapPp(const std::vector<std::pair<std::string, double>> &gainPct,
                  const std::vector<std::pair<std::string, double>> &paper);

/** Geometric mean of (1 + gain%/100). */
double
geomeanSpeedup(const std::vector<std::pair<std::string, double>> &gainPct);

/** The workloads, one entry point each. */
Outcome runRegistryTiers(const Options &opt, Tracer &tracer);
Outcome runExperimentsRegen(const Options &opt, Tracer &tracer);
Outcome runServeMix(const Options &opt, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
