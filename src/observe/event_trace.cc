#include "observe/event_trace.hh"

#include <cinttypes>
#include <cstdio>

#include "support/logging.hh"

namespace adore::observe
{

namespace
{

/** snprintf into a std::string (all lines are short and bounded). */
template <typename... Args>
std::string
fmt(const char *format, Args... args)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), format, args...);
    return buf;
}

struct KindNameVisitor
{
    const char *operator()(const SamplingBatchEvent &) const
    {
        return "SamplingBatch";
    }
    const char *operator()(const PhaseChangeEvent &) const
    {
        return "PhaseChange";
    }
    const char *operator()(const StablePhaseEvent &) const
    {
        return "StablePhase";
    }
    const char *operator()(const PhaseSkippedEvent &) const
    {
        return "PhaseSkipped";
    }
    const char *operator()(const TraceSelectedEvent &) const
    {
        return "TraceSelected";
    }
    const char *operator()(const SliceClassifiedEvent &) const
    {
        return "SliceClassified";
    }
    const char *operator()(const DelinquentLoadEvent &) const
    {
        return "DelinquentLoad";
    }
    const char *operator()(const PrefetchInsertedEvent &) const
    {
        return "PrefetchInserted";
    }
    const char *operator()(const TracePatchedEvent &) const
    {
        return "TracePatched";
    }
    const char *operator()(const TraceRevertedEvent &) const
    {
        return "TraceReverted";
    }
    const char *operator()(const GuardrailEvent &) const
    {
        return "Guardrail";
    }
    const char *operator()(const FaultInjectedEvent &) const
    {
        return "FaultInjected";
    }
};

struct LineVisitor
{
    std::string operator()(const SamplingBatchEvent &e) const
    {
        return fmt("sampling batch #%" PRIu64 ": %u samples",
                   e.windowIndex, e.samples);
    }
    std::string operator()(const PhaseChangeEvent &e) const
    {
        return fmt("phase change: phase #%" PRIu64 " ended", e.phaseId);
    }
    std::string operator()(const StablePhaseEvent &e) const
    {
        return fmt("stable phase #%" PRIu64
                   ": cpi=%.2f dpi=%.5f pc_center=0x%" PRIx64 "%s",
                   e.phaseId, e.cpi, e.dpi, e.pcCenter,
                   e.highMissRate ? " (high miss rate)" : "");
    }
    std::string operator()(const PhaseSkippedEvent &e) const
    {
        if (e.cpiBefore > 0.0) {
            return fmt("phase skipped (%s): cpi=%.2f vs before=%.2f",
                       e.reason, e.cpi, e.cpiBefore);
        }
        return fmt("phase skipped (%s): cpi=%.2f", e.reason, e.cpi);
    }
    std::string operator()(const TraceSelectedEvent &e) const
    {
        return fmt("trace selected @0x%" PRIx64
                   ": %u bundles%s, %" PRIu64 " head refs",
                   e.startAddr, e.bundles, e.isLoop ? " (loop)" : "",
                   e.refCount);
    }
    std::string operator()(const SliceClassifiedEvent &e) const
    {
        return fmt("slice classified [%d.%d]: pattern=%s stride=%lld",
                   e.bundle, e.slot, e.pattern,
                   static_cast<long long>(e.strideBytes));
    }
    std::string operator()(const DelinquentLoadEvent &e) const
    {
        return fmt("delinquent load pc=0x%" PRIx64
                   ": pattern=%s avg_lat=%u samples=%" PRIu64
                   " stride=%lld",
                   e.pc, e.pattern, e.avgLatency, e.samples,
                   static_cast<long long>(e.strideBytes));
    }
    std::string operator()(const PrefetchInsertedEvent &e) const
    {
        return fmt("prefetch inserted (%s) for load 0x%" PRIx64
                   ": distance=%u iters, bundle %d (%s)",
                   e.kind, e.loadPc, e.distanceIters, e.bundle,
                   e.filledFreeSlot ? "free slot" : "new bundle");
    }
    std::string operator()(const TracePatchedEvent &e) const
    {
        return fmt("trace patched: 0x%" PRIx64 " -> pool 0x%" PRIx64
                   " (%u body + %u init bundles)",
                   e.origAddr, e.poolAddr, e.bodyBundles, e.initBundles);
    }
    std::string operator()(const TraceRevertedEvent &e) const
    {
        return fmt("trace reverted: 0x%" PRIx64 " unpatched", e.origAddr);
    }
    std::string operator()(const GuardrailEvent &e) const
    {
        if (e.addr) {
            return fmt("guardrail %s: addr=0x%" PRIx64 " value=%" PRIu64,
                       e.action, e.addr, e.value);
        }
        return fmt("guardrail %s: value=%" PRIu64, e.action, e.value);
    }
    std::string operator()(const FaultInjectedEvent &e) const
    {
        return fmt("fault injected (%s): arg=0x%" PRIx64, e.channel,
                   e.arg);
    }
};

} // namespace

const char *
eventKindName(const Event &event)
{
    return std::visit(KindNameVisitor{}, event.payload);
}

std::string
renderEventLine(const Event &event)
{
    return fmt("cycle %" PRIu64 ": ", event.cycle) +
           std::visit(LineVisitor{}, event.payload);
}

EventTrace::EventTrace(std::size_t capacity)
    : ring_(capacity ? capacity : 1)
{
}

void
EventTrace::enable(bool on)
{
#ifdef ADORE_OBSERVE_DISABLED
    (void)on;
#else
    enabled_ = on;
#endif
}

void
EventTrace::record(std::uint64_t cycle, EventPayload payload)
{
    Event &slot = ring_[head_];
    slot.cycle = cycle;
    slot.payload = std::move(payload);
    head_ = (head_ + 1) % ring_.size();
    if (retained_ < ring_.size())
        ++retained_;
    else
        ++overwritten_;
    ++totalEmitted_;
    if (echo_)
        inform("%s", renderEventLine(slot).c_str());
}

std::vector<Event>
EventTrace::snapshot() const
{
    std::vector<Event> out;
    out.reserve(retained_);
    // Oldest retained event sits at head_ once the ring has wrapped.
    std::size_t start =
        retained_ == ring_.size() ? head_ : head_ - retained_;
    for (std::size_t i = 0; i < retained_; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

void
EventTrace::clear()
{
    head_ = 0;
    retained_ = 0;
}

} // namespace adore::observe
