/**
 * @file
 * Scenario reports and EXPERIMENTS.md regeneration (DESIGN.md §9).
 *
 * A *scenario* is one workload under one paper configuration, named
 * `<workload>_<o2|o3>` (e.g. `mcf_o2`): the workload compiled with the
 * paper's restricted options at that level, run once as a baseline and
 * once with the ADORE runtime attached and a full decision trace
 * recording.  runScenario() produces both runs plus the event stream;
 * markdownReport() renders them as the per-benchmark report the
 * `adore_report` tool prints.
 *
 * regenerateExperiments() rewrites the generated blocks of
 * EXPERIMENTS.md (delimited by `<!-- BEGIN GENERATED: <tag> -->` /
 * `<!-- END GENERATED: <tag> -->` markers) from fresh measurements; each
 * tag names the figure-catalogue entry (figures.hh) that renders it.
 * Simulations are deterministic — bit-identical across hosts and thread
 * counts — so `adore_report --regen-experiments --check` is a stable
 * docs-drift gate in CI.
 */

#ifndef ADORE_OBSERVE_REPORT_HH
#define ADORE_OBSERVE_REPORT_HH

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "observe/event_trace.hh"

namespace adore::report
{

struct ScenarioSpec
{
    std::string workload;  ///< registered workload name ("mcf", ...)
    OptLevel level = OptLevel::O2;
};

/** Parse `<workload>_<o2|o3>`. @return false on an unknown name. */
bool parseScenario(const std::string &name, ScenarioSpec &spec);

/** Every valid scenario name, in Fig. 7 workload order (o2 then o3). */
std::vector<std::string> allScenarioNames();

struct ScenarioResult
{
    std::string name;
    ScenarioSpec spec;
    RunMetrics baseline;   ///< restricted compile, no optimizer
    RunMetrics optimized;  ///< same compile + ADORE attached
    /** Full decision stream of the optimized run, oldest first. */
    std::vector<observe::Event> events;
    std::uint64_t eventsDropped = 0;
};

/**
 * Run @p name's baseline and optimized simulations (the pair Fig. 7
 * compares) with decision tracing on the optimized run.
 * Panics on an unknown scenario name — callers validate with
 * parseScenario() first for a friendly error.
 */
ScenarioResult runScenario(const std::string &name);

/** The per-benchmark markdown report for @p result. */
std::string markdownReport(const ScenarioResult &result);

/** One `<!-- BEGIN/END GENERATED: <tag> -->` marker pair. */
struct GeneratedBlock
{
    std::string tag;            ///< the catalogue entry that renders it
    std::size_t bodyBegin = 0;  ///< offset just past the BEGIN marker
    std::size_t bodyEnd = 0;    ///< offset of the END marker line
};

/**
 * The generated blocks of @p text, in document order.  A marker is a
 * line that starts with `<!-- BEGIN GENERATED: ` or
 * `<!-- END GENERATED: `.  Every BEGIN must be followed by the END of
 * the same tag before the next marker, no tag may appear twice, and
 * every tag must name a catalogue entry that renders a block
 * (figures.hh).  Throws std::runtime_error naming the line and tag of
 * the first violation.
 */
std::vector<GeneratedBlock> generatedBlocks(const std::string &text);

/**
 * Recompute every generated block of @p text (the current
 * EXPERIMENTS.md contents) from fresh simulations and return the
 * updated document; text outside the blocks is left untouched.  The
 * markers are validated by generatedBlocks() before anything is
 * simulated, so a malformed document throws std::runtime_error.
 */
std::string regenerateExperiments(const std::string &text);

/** Read a whole file. @return false when the file cannot be opened. */
bool readFile(const std::string &path, std::string &out);

} // namespace adore::report

#endif // ADORE_OBSERVE_REPORT_HH
