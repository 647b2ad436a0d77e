#include "harness/invariants.hh"

#include <cinttypes>
#include <cstdio>

namespace adore::invariants
{

namespace
{

template <typename... Args>
std::string
fmt(const char *format, Args... args)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), format, args...);
    return buf;
}

struct Checker
{
    const std::string &prefix;
    std::vector<std::string> &out;

    void
    require(bool ok, const std::string &what)
    {
        if (!ok)
            out.push_back(prefix + what);
    }
};

struct Differ
{
    std::vector<std::string> &out;

    void
    field(const std::string &name, std::uint64_t a, std::uint64_t b)
    {
        if (a != b)
            out.push_back(fmt("%s: %" PRIu64 " != %" PRIu64, name.c_str(),
                              a, b));
    }
};

template <typename S>
void
diffStats(Differ &d, const std::string &block, const S &a, const S &b)
{
    S::forEachField([&](const StatField &f, auto member) {
        if (f.cls == StatClass::Sim)
            d.field(block + "." + f.member,
                    static_cast<std::uint64_t>(a.*member),
                    static_cast<std::uint64_t>(b.*member));
    });
}

} // namespace

CpiMarginVerdict
checkCpiMargin(double baseline_cpi, double guarded_cpi, double margin)
{
    CpiMarginVerdict v;
    if (baseline_cpi <= 0.0)
        return v;  // inapplicable: nothing retired in the baseline
    v.applicable = true;
    v.ok = guarded_cpi <= baseline_cpi * margin;
    return v;
}

void
checkSelfConsistent(const RunMetrics &m, const std::string &prefix,
                    std::vector<std::string> &out)
{
    Checker c{prefix, out};
    c.require(m.retired > 0, "no instructions retired");
    if (m.retired > 0) {
        double cpi = static_cast<double>(m.cycles) /
                     static_cast<double>(m.retired);
        c.require(m.cpi == cpi, "cpi is not cycles/retired");
    }
    // Issued / dropped / useless are disjoint outcomes of a prefetch
    // request, so no subset relation holds between them; the cache
    // counters do have one.
    const CacheStats *levels[] = {&m.l1iStats, &m.l1dStats, &m.l2Stats,
                                  &m.l3Stats};
    for (const CacheStats *s : levels) {
        c.require(s->hits + s->misses <= s->accesses,
                  "cache hits+misses exceed accesses");
    }
    const AdoreStats &a = m.adoreStats;
    c.require(a.tracesUnpatched <= a.tracesPatched,
              "more traces unpatched than patched");
    c.require(a.phasesReverted <= a.phasesOptimized,
              "more batches reverted than optimized");
    // A phase can generate prefetches whose commit then fails (patch
    // fault / pool exhaustion), so phasesPrefetched is bounded by the
    // phases that entered the optimizer, not by phasesOptimized.
    c.require(a.phasesOptimized <= a.phasesDetected,
              "more phases optimized than detected");
    c.require(a.phasesPrefetched <= a.phasesDetected,
              "more phases prefetched than detected");
    if (m.faultsUsed) {
        c.require(m.faultStats.patchesFailed >= a.tracesPatchFailed,
                  "runtime saw more patch failures than injected");
    }
}

void
diffIdentity(const RunMetrics &a, const RunMetrics &b, bool compare_adore,
             std::vector<std::string> &out)
{
    Differ d{out};
    d.field("halted", a.halted, b.halted);
    d.field("cycles", a.cycles, b.cycles);
    d.field("retired", a.retired, b.retired);
    d.field("dearMisses", a.dearMisses, b.dearMisses);
    d.field("regionGenBumps", a.regionGenBumps, b.regionGenBumps);
    d.field("faultsUsed", a.faultsUsed, b.faultsUsed);
    if (compare_adore)
        d.field("guardrailsUsed", a.guardrailsUsed, b.guardrailsUsed);
    forEachStatBlock([&](const char *block, auto get, bool runtime) {
        if (compare_adore || !runtime)
            diffStats(d, block, get(a), get(b));
    });
}

} // namespace adore::invariants
