/**
 * @file
 * adore_report: per-benchmark observability reports and EXPERIMENTS.md
 * regeneration (DESIGN.md §9).
 *
 *   adore_report mcf_o2                 markdown report on stdout
 *   adore_report mcf_o2 --out R.md      ... to a file
 *   adore_report mcf_o2 --json          baseline/optimized metrics JSON
 *   adore_report mcf_o2 --prom          Prometheus text exposition of
 *                                       both arms (run="baseline" /
 *                                       run="optimized" labels)
 *   adore_report mcf_o2 --trace T.json  chrome://tracing / Perfetto
 *                                       trace of the optimizer decisions
 *   adore_report mcf_o2 --log           raw decision log
 *   adore_report --list                 every scenario name
 *   adore_report --figure NAME|all      print one catalogue entry (a
 *                                       paper table or figure) or all
 *                                       of them; an unknown NAME lists
 *                                       the valid ones
 *   adore_report --regen-experiments [--check] [--file EXPERIMENTS.md]
 *                                       rewrite (or verify) the
 *                                       generated measured tables
 *
 * A scenario is `<workload>_<o2|o3>`: the workload compiled with the
 * paper's restricted options at that level, run as a baseline and with
 * ADORE attached.  Simulations are deterministic, so --check is a
 * stable docs-drift gate (ci.sh runs it).
 */

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "cpu/cpu.hh"
#include "observe/exporters.hh"
#include "observe/figures.hh"
#include "observe/report.hh"

using namespace adore;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <scenario> [--json] [--prom] [--log] "
                 "[--trace FILE] [--out FILE]\n"
                 "       %s --list\n"
                 "       %s --figure NAME|all\n"
                 "       %s --regen-experiments [--check] [--file PATH]\n"
                 "scenarios are <workload>_<o2|o3>, e.g. mcf_o2 "
                 "(see --list)\n",
                 argv0, argv0, argv0, argv0);
    return 2;
}

int
listScenarios()
{
    // Tier note goes to stderr: stdout stays a parseable name list.
    std::fprintf(stderr, "execution tier: %s\n",
                 execTierName(CpuConfig().execTier));
    for (const std::string &name : report::allScenarioNames())
        std::printf("%s\n", name.c_str());
    return 0;
}

/** Print catalogue entry @p name, or every entry for "all". */
int
printFigures(const std::string &name)
{
    bool all = name == "all";
    std::vector<const report::Figure *> figures;
    for (const report::Figure &fig : report::figureCatalogue())
        if (all || fig.name == name)
            figures.push_back(&fig);
    if (figures.empty()) {
        std::fprintf(stderr, "unknown figure '%s'; valid names:",
                     name.c_str());
        for (const report::Figure &fig : report::figureCatalogue())
            std::fprintf(stderr, " %s", fig.name.c_str());
        std::fprintf(stderr, " all\n");
        return 2;
    }
    report::FigurePlan plan(figures);
    std::vector<std::string> rendered = plan.run();
    for (std::size_t i = 0; i < figures.size(); ++i) {
        // A generated block prints alone exactly as EXPERIMENTS.md
        // holds it; in the full listing its banner separates it.
        if (all || !figures[i]->block)
            std::fputs(report::banner(figures[i]->title).c_str(), stdout);
        std::fputs(rendered[i].c_str(), stdout);
    }
    return 0;
}

int
regenExperiments(const std::string &path, bool check)
{
    std::string current;
    if (!report::readFile(path, current)) {
        std::fprintf(stderr, "adore_report: cannot read %s\n",
                     path.c_str());
        return 1;
    }
    std::string updated;
    try {
        updated = report::regenerateExperiments(current);
    } catch (const std::runtime_error &e) {
        std::fprintf(stderr, "adore_report: %s: %s\n", path.c_str(),
                     e.what());
        return 1;
    }
    if (check) {
        if (updated != current) {
            std::fprintf(stderr,
                         "adore_report: %s is out of date with the "
                         "measured results.\n"
                         "Run `adore_report --regen-experiments --file "
                         "%s` and commit the result.\n",
                         path.c_str(), path.c_str());
            return 1;
        }
        std::printf("%s: generated tables are up to date\n",
                    path.c_str());
        return 0;
    }
    if (updated == current) {
        std::printf("%s: already up to date\n", path.c_str());
        return 0;
    }
    if (!observe::writeFile(path, updated)) {
        std::fprintf(stderr, "adore_report: cannot write %s\n",
                     path.c_str());
        return 1;
    }
    std::printf("%s: regenerated\n", path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scenario;
    std::string out_path;
    std::string trace_path;
    std::string experiments_path = "EXPERIMENTS.md";
    std::string figure;
    bool json = false;
    bool prom = false;
    bool log = false;
    bool regen = false;
    bool check = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs an argument\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--list")
            return listScenarios();
        else if (arg == "--json")
            json = true;
        else if (arg == "--prom")
            prom = true;
        else if (arg == "--log")
            log = true;
        else if (arg == "--trace")
            trace_path = next();
        else if (arg == "--out")
            out_path = next();
        else if (arg == "--figure")
            figure = next();
        else if (arg == "--regen-experiments")
            regen = true;
        else if (arg == "--check")
            check = true;
        else if (arg == "--file")
            experiments_path = next();
        else if (arg == "--help" || arg == "-h")
            return usage(argv[0]);
        else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage(argv[0]);
        } else if (scenario.empty()) {
            scenario = arg;
        } else {
            return usage(argv[0]);
        }
    }

    if (regen)
        return regenExperiments(experiments_path, check);
    if (!figure.empty())
        return scenario.empty() ? printFigures(figure) : usage(argv[0]);
    if (scenario.empty())
        return usage(argv[0]);

    report::ScenarioSpec spec;
    if (!report::parseScenario(scenario, spec)) {
        std::fprintf(stderr,
                     "unknown scenario '%s' (try `%s --list`)\n",
                     scenario.c_str(), argv[0]);
        return 2;
    }

    report::ScenarioResult result = report::runScenario(scenario);

    if (!trace_path.empty()) {
        std::string trace_json =
            observe::chromeTraceJson(result.events, scenario);
        if (!observe::writeFile(trace_path, trace_json)) {
            std::fprintf(stderr, "cannot write %s\n",
                         trace_path.c_str());
            return 1;
        }
        std::fprintf(stderr,
                     "wrote %s (load it at ui.perfetto.dev or "
                     "chrome://tracing)\n",
                     trace_path.c_str());
    }

    std::string output;
    if (prom) {
        observe::MetricsRegistry baseline, optimized;
        Experiment::collectMetrics(baseline, result.baseline);
        Experiment::collectMetrics(optimized, result.optimized);
        std::string common = "scenario=\"" + scenario + "\"";
        output = observe::prometheusText(
            {{common + ",run=\"baseline\"", &baseline},
             {common + ",run=\"optimized\"", &optimized}});
    } else if (json) {
        output = "{\n\"baseline\": " +
                 Experiment::metricsJson(result.baseline) +
                 ",\n\"optimized\": " +
                 Experiment::metricsJson(result.optimized) + "\n}\n";
    } else if (log) {
        output = observe::renderDecisionLog(result.events,
                                            result.eventsDropped);
    } else {
        output = report::markdownReport(result);
    }

    if (out_path.empty()) {
        std::fputs(output.c_str(), stdout);
    } else if (!observe::writeFile(out_path, output)) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    return 0;
}
