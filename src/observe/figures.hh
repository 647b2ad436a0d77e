/**
 * @file
 * The figure catalogue (DESIGN.md §9): one entry per table or figure of
 * the paper's evaluation, plus the studies beyond it.
 *
 * An entry is a name, a title, the registry *arms* it reads and a
 * renderer.  An arm is one of a closed set of run configurations
 * (restricted O2/O3 with and without ADORE, O2 monitor-only, original
 * O2, O2 with the hardware-prefetcher zoo with and without ADORE), so
 * two entries that read the same (workload, arm) pair read the same
 * simulation.  Entries whose runs are not arms — Table 1's
 * train-then-recompile pipeline, the Fig. 8/9 time series, the ablation
 * sweeps — build their own jobs.
 *
 * FigurePlan takes the union of the requested entries' pairs, runs each
 * pair once together with every bespoke job through a single
 * Experiment::runMany, and renders every entry from the shared results.
 * `adore_report --figure NAME|all` prints entries; the entries that own
 * an EXPERIMENTS.md generated block are what regenerateExperiments()
 * writes.
 */

#ifndef ADORE_OBSERVE_FIGURES_HH
#define ADORE_OBSERVE_FIGURES_HH

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"

namespace adore::report
{

/** The closed set of shared run configurations. */
enum class Arm : std::uint8_t
{
    O2Base,      ///< restricted O2, no runtime
    O2Adore,     ///< restricted O2 + ADORE
    O3Base,      ///< restricted O3, no runtime
    O3Adore,     ///< restricted O3 + ADORE
    O2Monitor,   ///< restricted O2 + ADORE without prefetch insertion
    O2Original,  ///< original O2: SWP on, no registers reserved
    O2Hw,        ///< restricted O2 + hardware-prefetcher zoo
    O2HwAdore,   ///< zoo and ADORE sharing the bus budget
};

/** The RunConfig of @p arm. */
RunConfig armConfig(Arm arm);

/** One (program name, arm) simulation of a plan. */
using ArmRun = std::pair<std::string, Arm>;

class FigurePlan;

struct Figure
{
    std::string name;   ///< `adore_report --figure` name, EXPERIMENTS.md tag
    std::string title;  ///< banner line
    /** The renderer's output is an EXPERIMENTS.md generated block. */
    bool block = false;
    /** Arms read for every registry workload. */
    std::vector<Arm> arms;
    /**
     * Bespoke jobs (may be empty): requests arms of single programs
     * through @p plan and appends its own simulations to @p jobs.
     */
    std::function<void(FigurePlan &plan, std::vector<RunSpec> &jobs)> jobs;
    /** @p jobs holds the bespoke results, in the order they were added. */
    std::function<std::string(const FigurePlan &plan,
                              const std::vector<RunMetrics> &jobs)>
        render;
};

/** Every entry, in EXPERIMENTS.md order. */
const std::vector<Figure> &figureCatalogue();

/** @return the entry named @p name, or nullptr. */
const Figure *findFigure(const std::string &name);

/** The banner `adore_report --figure` prints above an entry. */
std::string banner(const std::string &title);

/** printf into a std::string (one short line). */
std::string fmt(const char *format, ...);

/** "+58.0%" / "−1.1%" (U+2212, matching EXPERIMENTS.md typography). */
std::string signedPct(double speedup);

/**
 * The simulations a set of entries needs, and after run() their
 * results.  Planning builds programs and job lists only; nothing is
 * simulated before run().
 */
class FigurePlan
{
  public:
    explicit FigurePlan(std::vector<const Figure *> figures);

    FigurePlan(const FigurePlan &) = delete;
    FigurePlan &operator=(const FigurePlan &) = delete;

    /** The registry workload @p name or a program added by own(). */
    const hir::Program &program(const std::string &name);
    /** Keep an ad-hoc program alive for the plan; program() and need()
     *  then find it by name like a registry workload. */
    void own(hir::Program prog);
    /** Request @p arm for program @p name; each pair runs once. */
    void need(const std::string &name, Arm arm);
    /**
     * A training profile of @p prog under @p train, collected before the
     * simulations run (Table 1).  The pointer stays valid for the
     * plan's lifetime.
     */
    const MissProfile *trainingProfile(const hir::Program &prog,
                                       const CompileOptions &train);

    /** Distinct (program, arm) pairs, in first-request order. */
    const std::vector<ArmRun> &armRuns() const { return armRuns_; }
    /** Bespoke jobs of every entry. */
    std::size_t jobCount() const;

    /**
     * Collect the training profiles, run every pair and job through one
     * Experiment::runMany, and render each entry.
     * @return the rendered entries, in constructor order.
     */
    std::vector<std::string> run();

    /** A finished arm run; panics on a pair the plan does not hold. */
    const RunMetrics &arm(const std::string &name, Arm arm) const;

  private:
    struct Training
    {
        const hir::Program *prog;
        CompileOptions train;
        MissProfile profile;
    };

    std::vector<const Figure *> figures_;
    std::vector<std::vector<RunSpec>> jobs_;  ///< per entry
    std::map<std::string, hir::Program> programs_;
    std::deque<Training> training_;
    std::vector<ArmRun> armRuns_;
    std::map<ArmRun, std::size_t> armIndex_;
    std::vector<RunMetrics> armResults_;
};

} // namespace adore::report

#endif // ADORE_OBSERVE_FIGURES_HH
