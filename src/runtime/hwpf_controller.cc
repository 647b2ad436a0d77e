#include "runtime/hwpf_controller.hh"

#include <algorithm>

namespace adore
{

HwPrefetchController::HwPrefetchController(
    CacheHierarchy &caches, const HwPrefetchControllerConfig &config)
    : caches_(caches), config_(config)
{
    if (const HwPrefetchEngine *engine = caches_.hwPrefetch())
        desired_ = engine->tuning();
}

void
HwPrefetchController::emit(Cycle now, const char *action,
                           const char *prefetcher, std::uint64_t degree)
{
    if (events_) {
        events_->emitAt(now, observe::HwPrefetchRetuneEvent{
                                 action, prefetcher, degree});
    }
}

void
HwPrefetchController::tuneOne(Cycle now, const char *name,
                              const HwPrefetcherStats &cur,
                              const HwPrefetcherStats &prev, bool &on,
                              std::uint32_t &degree)
{
    if (!on)
        return;  // stays off until the next phase retune
    std::uint64_t issued = cur.issued - prev.issued;
    std::uint64_t dropped = cur.dropped - prev.dropped;
    std::uint64_t useless = cur.useless - prev.useless;
    std::uint64_t events = issued + dropped;
    if (events < config_.minEvents)
        return;  // too few events this poll to trust the rates
    double dropRate = static_cast<double>(dropped) /
                      static_cast<double>(events);
    double uselessRate = issued ? static_cast<double>(useless) /
                                      static_cast<double>(issued)
                                : 0.0;

    if (uselessRate >= config_.disableUselessRate) {
        // Poor accuracy: most issues were already resident — the
        // prefetcher is burning bus slots for lines the demand stream
        // (or another prefetcher) already brought.
        on = false;
        ++stats_.prefetcherDisables;
        emit(now, "disable", name, 0);
        return;
    }
    if (dropRate >= config_.disableDropRate && degree <= 1) {
        on = false;
        ++stats_.prefetcherDisables;
        emit(now, "disable", name, 0);
        return;
    }
    if (dropRate >= config_.degreeDownDropRate && degree > 1) {
        --degree;
        ++stats_.degreeDowns;
        emit(now, "degree-down", name, degree);
        return;
    }
    std::uint32_t maxDegree = caches_.hwPrefetch()->config().maxDegree;
    if (dropRate <= config_.growDropRate &&
        uselessRate <= config_.growUselessRate && degree < maxDegree) {
        ++degree;
        ++stats_.degreeUps;
        emit(now, "degree-up", name, degree);
    }
}

void
HwPrefetchController::poll(Cycle now)
{
    HwPrefetchEngine *engine = caches_.hwPrefetch();
    if (!engine)
        return;
    ++stats_.polls;
    const HwPrefetchStats cur = engine->stats();

    if (phaseChanged_) {
        // New phase, new access patterns: every prefetcher restarts
        // from its configured choice and degree and re-earns (or
        // re-loses) its budget against the new phase's counters.
        phaseChanged_ = false;
        const HwPrefetchConfig &c = engine->config();
        desired_.strideOn = c.stride;
        desired_.vldpOn = c.vldp;
        desired_.pointerOn = c.pointer;
        desired_.strideDegree = c.strideDegree;
        desired_.vldpDegree = c.vldpDegree;
        desired_.pointerDegree = c.pointerDegree;
        ++stats_.phaseRetunes;
        emit(now, "phase-retune", "all", 0);
    } else {
        tuneOne(now, "stride", cur.stride, last_.stride,
                desired_.strideOn, desired_.strideDegree);
        tuneOne(now, "vldp", cur.vldp, last_.vldp, desired_.vldpOn,
                desired_.vldpDegree);
        tuneOne(now, "pointer", cur.pointer, last_.pointer,
                desired_.pointerOn, desired_.pointerDegree);
    }

    // The guardrail arbitration rung always wins: it is the referee of
    // the hw-vs-lfetch bus fight, and the controller only tunes within
    // whatever budget the rung leaves.
    Guardrails::Throttle cap = guardrails_ ? guardrails_->hwThrottle()
                                           : Guardrails::Throttle::Normal;
    HwPrefetchEngine::Tuning applied = desired_;
    if (cap == Guardrails::Throttle::Damped) {
        applied.strideDegree = std::min(applied.strideDegree, 1u);
        applied.vldpDegree = std::min(applied.vldpDegree, 1u);
        applied.pointerDegree = std::min(applied.pointerDegree, 1u);
    } else if (cap == Guardrails::Throttle::Disabled) {
        applied.strideOn = false;
        applied.vldpOn = false;
        applied.pointerOn = false;
    }
    if (cap != lastCap_) {
        if (cap != Guardrails::Throttle::Normal) {
            ++stats_.guardrailCaps;
            emit(now, "guardrail-cap", "all",
                 cap == Guardrails::Throttle::Damped ? 1 : 0);
        }
        lastCap_ = cap;
    }

    engine->setTuning(applied);
    last_ = cur;
}

} // namespace adore
