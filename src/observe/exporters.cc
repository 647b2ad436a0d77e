#include "observe/exporters.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

namespace adore::observe
{

namespace
{

template <typename... Args>
std::string
fmt(const char *format, Args... args)
{
    char buf[320];
    std::snprintf(buf, sizeof(buf), format, args...);
    return buf;
}

std::string
hexAddr(std::uint64_t addr)
{
    return fmt("\"0x%" PRIx64 "\"", addr);
}

/** Per-payload "args" object for the chrome trace. */
struct ArgsVisitor
{
    std::string operator()(const SamplingBatchEvent &e) const
    {
        return fmt("{\"window\": %" PRIu64 ", \"samples\": %u}",
                   e.windowIndex, e.samples);
    }
    std::string operator()(const PhaseChangeEvent &e) const
    {
        return fmt("{\"phase\": %" PRIu64 "}", e.phaseId);
    }
    std::string operator()(const StablePhaseEvent &e) const
    {
        return fmt("{\"phase\": %" PRIu64
                   ", \"cpi\": %.3f, \"dpi\": %.5f, \"pc_center\": ",
                   e.phaseId, e.cpi, e.dpi) +
               hexAddr(e.pcCenter) +
               fmt(", \"high_miss_rate\": %s}",
                   e.highMissRate ? "true" : "false");
    }
    std::string operator()(const PhaseSkippedEvent &e) const
    {
        return fmt("{\"reason\": \"%s\", \"cpi\": %.3f, "
                   "\"cpi_before\": %.3f}",
                   e.reason, e.cpi, e.cpiBefore);
    }
    std::string operator()(const TraceSelectedEvent &e) const
    {
        return std::string("{\"start\": ") + hexAddr(e.startAddr) +
               fmt(", \"bundles\": %u, \"loop\": %s, \"head_refs\": "
                   "%" PRIu64 "}",
                   e.bundles, e.isLoop ? "true" : "false", e.refCount);
    }
    std::string operator()(const SliceClassifiedEvent &e) const
    {
        return fmt("{\"bundle\": %d, \"slot\": %d, \"pattern\": "
                   "\"%s\", \"stride\": %lld}",
                   e.bundle, e.slot, e.pattern,
                   static_cast<long long>(e.strideBytes));
    }
    std::string operator()(const DelinquentLoadEvent &e) const
    {
        return std::string("{\"pc\": ") + hexAddr(e.pc) +
               fmt(", \"pattern\": \"%s\", \"avg_latency\": %u, "
                   "\"samples\": %" PRIu64 ", \"stride\": %lld}",
                   e.pattern, e.avgLatency, e.samples,
                   static_cast<long long>(e.strideBytes));
    }
    std::string operator()(const PrefetchInsertedEvent &e) const
    {
        return fmt("{\"kind\": \"%s\", \"load_pc\": ", e.kind) +
               hexAddr(e.loadPc) +
               fmt(", \"distance_iters\": %u, \"bundle\": %d, "
                   "\"filled_free_slot\": %s}",
                   e.distanceIters, e.bundle,
                   e.filledFreeSlot ? "true" : "false");
    }
    std::string operator()(const TracePatchedEvent &e) const
    {
        return std::string("{\"orig\": ") + hexAddr(e.origAddr) +
               ", \"pool\": " + hexAddr(e.poolAddr) +
               fmt(", \"body_bundles\": %u, \"init_bundles\": %u}",
                   e.bodyBundles, e.initBundles);
    }
    std::string operator()(const TraceRevertedEvent &e) const
    {
        return std::string("{\"orig\": ") + hexAddr(e.origAddr) + "}";
    }
    std::string operator()(const GuardrailEvent &e) const
    {
        return std::string("{\"action\": \"") + e.action +
               "\", \"addr\": " + hexAddr(e.addr) +
               fmt(", \"value\": %" PRIu64 "}", e.value);
    }
    std::string operator()(const FaultInjectedEvent &e) const
    {
        return std::string("{\"channel\": \"") + e.channel +
               "\", \"arg\": " + hexAddr(e.arg) + "}";
    }
};

} // namespace

std::string
renderDecisionLog(const std::vector<Event> &events, std::uint64_t dropped)
{
    std::string out;
    for (const Event &event : events) {
        out += renderEventLine(event);
        out += '\n';
    }
    if (dropped > 0) {
        out += fmt("(%" PRIu64
                   " older events dropped by ring wraparound)\n",
                   dropped);
    }
    return out;
}

std::string
renderDecisionLog(const EventTrace &trace)
{
    return renderDecisionLog(trace.snapshot(), trace.dropped());
}

std::string
chromeTraceJson(const std::vector<Event> &events,
                const std::string &process_name)
{
    constexpr int pid = 1;
    constexpr int phaseTid = 1;
    constexpr int decisionTid = 2;

    std::string out = "{\"traceEvents\": [\n";

    out += fmt("  {\"name\": \"process_name\", \"ph\": \"M\", "
               "\"pid\": %d, \"args\": {\"name\": \"%s\"}},\n",
               pid, process_name.c_str());
    out += fmt("  {\"name\": \"thread_name\", \"ph\": \"M\", "
               "\"pid\": %d, \"tid\": %d, "
               "\"args\": {\"name\": \"phases\"}},\n",
               pid, phaseTid);
    out += fmt("  {\"name\": \"thread_name\", \"ph\": \"M\", "
               "\"pid\": %d, \"tid\": %d, "
               "\"args\": {\"name\": \"decisions\"}}",
               pid, decisionTid);

    // Stable phases become complete ("X") slices lasting until the
    // matching PhaseChange (or the last event when still open).
    std::uint64_t last_cycle = events.empty() ? 0 : events.back().cycle;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Event &event = events[i];
        if (const auto *sp =
                std::get_if<StablePhaseEvent>(&event.payload)) {
            std::uint64_t end = last_cycle;
            for (std::size_t j = i + 1; j < events.size(); ++j) {
                const auto *pc =
                    std::get_if<PhaseChangeEvent>(&events[j].payload);
                if (pc && pc->phaseId == sp->phaseId) {
                    end = events[j].cycle;
                    break;
                }
            }
            out += fmt(",\n  {\"name\": \"phase #%" PRIu64
                       "\", \"ph\": \"X\", \"ts\": %" PRIu64
                       ", \"dur\": %" PRIu64
                       ", \"pid\": %d, \"tid\": %d, \"args\": ",
                       sp->phaseId, event.cycle,
                       end > event.cycle ? end - event.cycle : 1, pid,
                       phaseTid);
            out += ArgsVisitor{}(*sp) + "}";
        }
        out += fmt(",\n  {\"name\": \"%s\", \"ph\": \"i\", "
                   "\"s\": \"t\", \"ts\": %" PRIu64
                   ", \"pid\": %d, \"tid\": %d, \"args\": ",
                   eventKindName(event), event.cycle, pid, decisionTid);
        out += std::visit(ArgsVisitor{}, event.payload) + "}";
    }

    out += "\n], \"displayTimeUnit\": \"ns\"}\n";
    return out;
}

std::string
chromeTraceJson(const EventTrace &trace, const std::string &process_name)
{
    return chromeTraceJson(trace.snapshot(), process_name);
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::size_t written =
        std::fwrite(content.data(), 1, content.size(), f);
    bool ok = written == content.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

std::string
prometheusName(const std::string &dotted, const std::string &prefix)
{
    std::string out = prefix;
    if (!out.empty())
        out += '_';
    for (char c : dotted) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    if (!out.empty() && out[0] >= '0' && out[0] <= '9')
        out.insert(out.begin(), '_');
    return out;
}

namespace
{

/** Sample-value formatting shared with MetricsRegistry::toJson:
 *  integral counters print without a fractional part. */
std::string
promValue(double value)
{
    char buf[64];
    if (std::floor(value) == value && std::fabs(value) < 1e15)
        std::snprintf(buf, sizeof(buf), "%.0f", value);
    else
        std::snprintf(buf, sizeof(buf), "%.6g", value);
    return buf;
}

/** # HELP text: backslash and newline are the format's only escapes. */
std::string
promHelpEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

} // namespace

std::string
prometheusText(const std::vector<PrometheusArm> &arms,
               const std::string &prefix)
{
    // Union of metric names across arms, sorted, with the first
    // non-empty description winning the HELP line.
    std::vector<std::string> names;
    std::map<std::string, std::string> help;
    for (const PrometheusArm &arm : arms) {
        if (!arm.registry)
            continue;
        for (const MetricsRegistry::Metric &m : arm.registry->snapshot()) {
            auto [it, inserted] = help.try_emplace(m.name, m.description);
            if (inserted)
                names.push_back(m.name);
            else if (it->second.empty())
                it->second = m.description;
        }
    }
    std::sort(names.begin(), names.end());

    std::string out;
    for (const std::string &name : names) {
        std::string prom = prometheusName(name, prefix);
        const std::string &desc = help[name];
        if (!desc.empty())
            out += "# HELP " + prom + " " + promHelpEscape(desc) + "\n";
        out += "# TYPE " + prom + " gauge\n";
        for (const PrometheusArm &arm : arms) {
            if (!arm.registry)
                continue;
            std::optional<double> v = arm.registry->value(name);
            if (!v)
                continue;
            out += prom;
            if (!arm.labels.empty())
                out += "{" + arm.labels + "}";
            out += " " + promValue(*v) + "\n";
        }
    }
    return out;
}

std::string
prometheusText(const MetricsRegistry &registry, const std::string &prefix,
               const std::string &labels)
{
    return prometheusText({{labels, &registry}}, prefix);
}

} // namespace adore::observe
