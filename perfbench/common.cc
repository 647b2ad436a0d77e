#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "compiler/compiler.hh"
#include "harness/machine.hh"
#include "program/data_layout.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

namespace
{

double
clockS(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** Cells of the fig07a block's table rows: {name, paper, measured}. */
std::vector<std::vector<std::string>>
fig07aRows(const std::string &text)
{
    std::vector<std::vector<std::string>> rows;
    const std::string begin = "<!-- BEGIN GENERATED: fig07a -->";
    const std::string end = "<!-- END GENERATED: fig07a -->";
    std::size_t b = text.find(begin);
    std::size_t e = text.find(end);
    if (b == std::string::npos || e == std::string::npos || e < b)
        return rows;
    std::istringstream in(text.substr(b, e - b));
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("| ", 0) != 0 || line.find("---") != std::string::npos)
            continue;
        std::vector<std::string> cells;
        std::size_t pos = 1;
        while (pos < line.size()) {
            std::size_t bar = line.find('|', pos);
            if (bar == std::string::npos)
                break;
            std::string cell = line.substr(pos, bar - pos);
            cell.erase(0, cell.find_first_not_of(' '));
            cell.erase(cell.find_last_not_of(' ') + 1);
            cells.push_back(cell);
            pos = bar + 1;
        }
        if (cells.size() >= 3 && cells[0] != "benchmark")
            rows.push_back(cells);
    }
    return rows;
}

/** "+57%", "~+40%", "−3.8%", "**+58.0%**" → percent; false on "?". */
bool
parsePct(std::string cell, double &out)
{
    std::string s;
    const std::string minus = "\xe2\x88\x92";  // U+2212
    for (std::size_t i = 0; i < cell.size(); ++i) {
        if (cell.compare(i, minus.size(), minus) == 0) {
            s += '-';
            i += minus.size() - 1;
        } else if (cell[i] == '-' || cell[i] == '+' || cell[i] == '.' ||
                   (cell[i] >= '0' && cell[i] <= '9')) {
            s += cell[i];
        }
    }
    if (s.empty() || s.find_first_of("0123456789") == std::string::npos)
        return false;
    out = std::strtod(s.c_str(), nullptr);
    return true;
}

std::vector<std::pair<std::string, double>>
fig07aColumn(const std::string &text, std::size_t column)
{
    std::vector<std::pair<std::string, double>> out;
    for (const auto &row : fig07aRows(text)) {
        double v = 0.0;
        if (parsePct(row[column], v))
            out.emplace_back(row[0], v);
    }
    return out;
}

} // namespace

double
wallS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuS()
{
    return clockS(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuS()
{
    return clockS(CLOCK_THREAD_CPUTIME_ID);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
fastest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t
Tracer::begin(const std::string &name, std::uint64_t parent,
              const std::string &key)
{
    if (!enabled_)
        return 0;
    Span s;
    s.parent = parent;
    s.name = name;
    s.key = key;
    s.start = wallS();
    std::lock_guard<std::mutex> lock(mutex_);
    s.id = nextId_++;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
Tracer::end(std::uint64_t id)
{
    if (!enabled_ || id == 0)
        return;
    double t = wallS();
    std::lock_guard<std::mutex> lock(mutex_);
    // Ids are dense and assigned in push order.
    spans_[id - 1].end = t;
}

std::vector<Tracer::Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
Tracer::write(const std::string &path) const
{
    std::vector<Span> all = spans();
    std::ofstream out(path);
    if (!out)
        return false;
    double origin = all.empty() ? 0.0 : all.front().start;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                      "\"ts\": %.3f, \"dur\": %.3f",
                      (s.start - origin) * 1e6, (s.end - s.start) * 1e6);
        out << "  {\"name\": \"" << jsonEscape(s.name) << "\", " << buf
            << ", \"args\": {\"id\": " << s.id
            << ", \"parent\": " << s.parent << ", \"key\": \""
            << jsonEscape(s.key) << "\"}}" << (i + 1 < all.size() ? "," : "")
            << "\n";
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

adore::CompileOptions
restrictedOptions(adore::OptLevel level, std::uint64_t dataSeed)
{
    adore::CompileOptions opts;
    opts.level = level;
    opts.softwarePipelining = false;
    opts.reserveAdoreRegs = true;
    opts.dataSeed = dataSeed;
    return opts;
}

ProgramSet
buildPrograms(const std::vector<std::string> &names,
              const std::vector<adore::OptLevel> &levels,
              std::uint64_t dataSeed, Tracer &tracer)
{
    ProgramSet set;
    double t0 = wallS();
    for (const std::string &name : names) {
        Tracer::Scope span(tracer, "workloads::make", 0, name);
        set.progs.push_back(adore::workloads::make(name));
    }
    set.makeS = wallS() - t0;
    for (const adore::hir::Program &prog : set.progs) {
        for (adore::OptLevel level : levels) {
            adore::MachineConfig mc;
            adore::Machine machine(mc);
            adore::DataLayout data(machine.memory());
            adore::Compiler compiler(mc.hier);
            double c0 = wallS();
            {
                Tracer::Scope span(tracer, "compiler::compile", 0,
                                   prog.name);
                compiler.compile(prog, restrictedOptions(level, dataSeed),
                                 machine.code(), data);
            }
            set.compileS += wallS() - c0;
        }
    }
    return set;
}

std::vector<TimedRun>
replayFastest(const std::vector<Replay> &replays, Tracer &tracer)
{
    std::vector<TimedRun> best(replays.size());
    for (int round = 0; round < kReplayRounds; ++round) {
        for (std::size_t i = 0; i < replays.size(); ++i) {
            double w0 = wallS();
            double c0 = processCpuS();
            {
                Tracer::Scope span(tracer, "Experiment::run", 0,
                                   replays[i].key);
                best[i].m = adore::Experiment::run(*replays[i].prog,
                                                   replays[i].cfg);
            }
            double cpu = processCpuS() - c0;
            double wall = wallS() - w0;
            if (round == 0 || cpu < best[i].cpuS)
                best[i].cpuS = cpu;
            if (round == 0 || wall < best[i].wallS)
                best[i].wallS = wall;
        }
    }
    return best;
}

void
TierLedger::add(const std::string &workload, const adore::RunMetrics &m,
                double cpuS, double wall, bool mips)
{
    if (rows_.empty() || rows_.back().name != workload)
        rows_.push_back({workload});
    PerWorkload &row = rows_.back();
    if (m.execTier == adore::ExecTier::Interpreter) {
        row.interpCpu += cpuS;
        return;
    }
    row.directCpu += cpuS;
    if (mips)
        row.mips = static_cast<double>(m.retired) / wall / 1e6;
    const adore::SuperblockStats &s = m.superblockStats;
    sb_.built += s.built;
    sb_.replaced += s.replaced;
    sb_.dispatches += s.dispatches;
    sb_.chained += s.chained;
    sb_.demoted += s.demoted;
}

void
TierLedger::emit(Outcome &out) const
{
    for (const PerWorkload &row : rows_) {
        out.layer("cpu.tier_speedup." + row.name,
                  row.interpCpu / row.directCpu, "x");
        out.layer("harness.sim_mips." + row.name, row.mips, "MIPS");
    }
    out.layer("cpu.sb_builds_per_dispatch",
              sb_.dispatches ? static_cast<double>(sb_.built) /
                                   static_cast<double>(sb_.dispatches)
                             : 0.0,
              "ratio");
    out.layer("cpu.sb_built", static_cast<double>(sb_.built), "count");
    out.layer("cpu.sb_replaced", static_cast<double>(sb_.replaced), "count");
    out.layer("cpu.sb_dispatches", static_cast<double>(sb_.dispatches),
              "count");
    out.layer("cpu.sb_chained", static_cast<double>(sb_.chained), "count");
    out.layer("cpu.sb_demoted", static_cast<double>(sb_.demoted), "count");
}

std::vector<std::pair<std::string, double>>
paperFig07a(const std::string &experimentsText)
{
    return fig07aColumn(experimentsText, 1);
}

std::vector<std::pair<std::string, double>>
measuredFig07a(const std::string &experimentsText)
{
    return fig07aColumn(experimentsText, 2);
}

double
paperGapPp(const std::vector<std::pair<std::string, double>> &gainPct,
           const std::vector<std::pair<std::string, double>> &paper)
{
    double sum = 0.0;
    int n = 0;
    for (const auto &[name, pct] : gainPct) {
        for (const auto &[pname, ppct] : paper) {
            if (pname == name) {
                sum += std::fabs(pct - ppct);
                ++n;
            }
        }
    }
    return n ? sum / n : 0.0;
}

double
geomeanSpeedup(const std::vector<std::pair<std::string, double>> &gainPct)
{
    if (gainPct.empty())
        return 0.0;
    double logSum = 0.0;
    for (const auto &entry : gainPct)
        logSum += std::log(1.0 + entry.second / 100.0);
    return std::exp(logSum / static_cast<double>(gainPct.size()));
}

} // namespace perfbench
