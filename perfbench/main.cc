/**
 * @file
 * perfbench: the repository benchmark's program.
 *
 *   perfbench --workload <registry_tiers|experiments_regen|serve_mix>
 *             --seed N --seconds S --trace 0|1 --root DIR
 *             [--trace-out FILE]
 *   perfbench --selftest --root DIR
 *
 * Prints a host fingerprint, every metric with its unit, and, as the
 * last line, one JSON object {correct, attempted, failed, metrics}:
 * the end-to-end metrics when untraced, the per-layer metrics when
 * traced.  perfbench/run.py builds this binary and runs it.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "common.hh"
#include "observe/report.hh"
#include "serve/json.hh"
#include "support/logging.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SOURCE_ID
#define PERFBENCH_SOURCE_ID "unknown"
#endif

namespace
{

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

using MetricNames = std::vector<std::pair<std::string, std::string>>;

/**
 * The (name, unit) lists of BENCHMARK.json at @p root: its end_to_end
 * and per_layer arrays.  @return false when the file is missing or
 * malformed.
 */
bool
benchmarkNames(const std::string &root, MetricNames &endToEnd,
               MetricNames &perLayer)
{
    namespace json = adore::serve::json;
    std::string text;
    json::Value doc;
    std::string err;
    if (!adore::report::readFile(root + "/BENCHMARK.json", text) ||
        !json::parse(text, doc, err))
        return false;
    for (auto [key, out] : {std::pair{"end_to_end", &endToEnd},
                            {"per_layer", &perLayer}}) {
        const json::Value *list = doc.find(key);
        if (!list || !list->isArray())
            return false;
        for (const json::Value &m : list->items())
            out->emplace_back(m.str("name"), m.str("unit"));
    }
    return !endToEnd.empty();
}

/**
 * Order @p got by @p names.  A per-layer metric a workload does not
 * exercise reads 0 (fillMissing); any other mismatch — an unknown
 * name, a duplicate, a wrong unit, or a missing end-to-end metric — is
 * reported in @p errors.
 */
std::vector<Metric>
canonical(const std::vector<Metric> &got, const MetricNames &names,
          bool fillMissing, std::vector<std::string> &errors)
{
    std::map<std::string, const Metric *> byName;
    for (const Metric &m : got) {
        if (!byName.emplace(m.name, &m).second)
            errors.push_back("duplicate metric " + m.name);
    }
    std::vector<Metric> out;
    std::set<std::string> known;
    for (const auto &[name, unit] : names) {
        known.insert(name);
        auto it = byName.find(name);
        if (it == byName.end()) {
            if (!fillMissing)
                errors.push_back("missing metric " + name);
            out.push_back({name, 0.0, unit});
            continue;
        }
        if (it->second->unit != unit)
            errors.push_back("unit of " + name + " is " +
                             it->second->unit + ", expected " + unit);
        if (!std::isfinite(it->second->value))
            errors.push_back("metric " + name + " is not finite");
        out.push_back(*it->second);
    }
    for (const Metric &m : got)
        if (!known.count(m.name))
            errors.push_back("unknown metric " + m.name);
    return out;
}

std::string
readFirst(const char *path, const char *key)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                std::string v = line.substr(colon + 1);
                v.erase(0, v.find_first_not_of(" \t"));
                return v;
            }
        }
    }
    return "unknown";
}

void
printFingerprint()
{
    bool optimized =
#ifdef __OPTIMIZE__
        true;
#else
        false;
#endif
    std::printf("host: nproc=%ld cpu=\"%s\"\n", sysconf(_SC_NPROCESSORS_ONLN),
                readFirst("/proc/cpuinfo", "model name").c_str());
    std::printf("build: compiler=\"%s\" type=%s optimized=%s source=%s\n",
                __VERSION__, PERFBENCH_BUILD_TYPE, optimized ? "yes" : "no",
                PERFBENCH_SOURCE_ID);
    if (!optimized)
        std::printf("WARNING: built without optimisation; host timings are "
                    "not comparable\n");
}

Outcome
runWorkload(const Options &opt, perfbench::Tracer &tracer, bool &known)
{
    known = true;
    if (opt.workload == "registry_tiers")
        return perfbench::runRegistryTiers(opt, tracer);
    if (opt.workload == "experiments_regen")
        return perfbench::runExperimentsRegen(opt, tracer);
    if (opt.workload == "serve_mix")
        return perfbench::runServeMix(opt, tracer);
    known = false;
    return {};
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s:\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

std::string
resultJson(const Outcome &o, bool correct, const std::vector<Metric> &ms)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(o.attempted);
    s += ", \"failed\": " + std::to_string(o.failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", ms[i].value);
        s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    s += "}}";
    return s;
}

/** Fast self-test: every workload on a few jobs, names and units
 *  checked, and a planted identity mismatch must lower ok_share. */
int
selftest(const Options &base, const MetricNames &endToEnd,
         const MetricNames &perLayer)
{
    int failures = 0;
    auto check = [&](bool cond, const std::string &what) {
        std::printf("%s %s\n", cond ? "ok  " : "FAIL", what.c_str());
        if (!cond)
            ++failures;
    };
    for (const char *wl :
         {"registry_tiers", "experiments_regen", "serve_mix"}) {
        // A traced run also makes the untraced pass, so it yields both
        // metric sets.
        {
            const bool trace = true;
            Options opt = base;
            opt.workload = wl;
            opt.small = true;
            opt.seconds = 0.0;
            opt.trace = trace;
            perfbench::Tracer tracer(trace);
            bool known = false;
            Outcome o = runWorkload(opt, tracer, known);
            std::vector<std::string> errors;
            canonical(o.endToEnd, endToEnd, false, errors);
            canonical(o.perLayer, perLayer, true, errors);
            std::string tag = wl;
            check(errors.empty(),
                  tag + ": every metric once, with its unit" +
                      (errors.empty() ? "" : " (" + errors.front() + ")"));
            check(o.attempted > 0 && o.failed == 0,
                  tag + ": all " + std::to_string(o.attempted) +
                      " jobs correct");
            check(!tracer.spans().empty(), tag + ": spans recorded");
        }
    }
    Options planted = base;
    planted.workload = "registry_tiers";
    planted.small = true;
    planted.seconds = 0.0;
    planted.plantMismatch = true;
    perfbench::Tracer tracer(false);
    Outcome o = perfbench::runRegistryTiers(planted, tracer);
    double ok = 1.0;
    for (const Metric &m : o.endToEnd)
        if (m.name == "ok_share")
            ok = m.value;
    check(ok < 1.0, "planted identity mismatch lowers ok_share to " +
                        std::to_string(ok));
    std::printf("selftest: %s\n", failures ? "FAILED" : "passed");
    return failures ? 1 : 0;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 --root DIR [--trace-out FILE]\n"
                 "       %s --selftest --root DIR\n",
                 argv0, argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool self = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            opt.seed = std::stoull(value());
        else if (a == "--seconds")
            opt.seconds = std::stod(value());
        else if (a == "--trace")
            opt.trace = value() != "0";
        else if (a == "--root")
            opt.root = value();
        else if (a == "--trace-out")
            opt.traceOut = value();
        else if (a == "--selftest")
            self = true;
        else
            return usage(argv[0]);
    }
    adore::setVerbose(false);
    MetricNames endToEnd, perLayer;
    if (!benchmarkNames(opt.root, endToEnd, perLayer)) {
        std::fprintf(stderr, "perfbench: cannot read %s/BENCHMARK.json\n",
                     opt.root.c_str());
        return 1;
    }
    printFingerprint();
    if (self)
        return selftest(opt, endToEnd, perLayer);

    perfbench::Tracer tracer(opt.trace);
    bool known = false;
    Outcome o = runWorkload(opt, tracer, known);
    if (!known)
        return usage(argv[0]);

    std::vector<std::string> errors;
    std::vector<Metric> e2e = canonical(o.endToEnd, endToEnd, false, errors);
    std::vector<Metric> layers;
    if (opt.trace)
        layers = canonical(o.perLayer, perLayer, true, errors);
    for (const std::string &e : errors)
        std::fprintf(stderr, "perfbench: %s\n", e.c_str());
    if (!errors.empty())
        return 1;

    std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    for (const std::string &n : o.notes)
        std::printf("note: %s\n", n.c_str());
    printMetrics("end-to-end", e2e);
    // Host totals vary with the host's load; they are printed on every
    // run but gated by no bound (see perfbench/README.md).  A traced run
    // prints them among the per-layer metrics.
    if (!opt.trace) {
        std::vector<Metric> host;
        for (const Metric &m : o.perLayer)
            if (m.name.rfind("host.", 0) == 0)
                host.push_back(m);
        printMetrics("host", host);
    } else {
        printMetrics("per-layer", layers);
        if (!opt.traceOut.empty()) {
            if (!tracer.write(opt.traceOut)) {
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             opt.traceOut.c_str());
                return 1;
            }
            std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                        opt.traceOut.c_str());
        }
    }
    bool correct = o.attempted > 0 && o.failed == 0;
    std::printf("%s\n",
                resultJson(o, correct, opt.trace ? layers : e2e).c_str());
    std::fflush(stdout);
    return 0;
}
