#include "runtime/guardrails.hh"

#include <algorithm>

namespace adore
{

Guardrails::Guardrails(const GuardrailConfig &config) : config_(config)
{
    thrashWindow_.assign(std::max<std::uint32_t>(config_.thrashWindowPolls,
                                                 1),
                         0);
}

void
Guardrails::emit(const char *action, std::uint64_t addr, std::uint64_t value)
{
    if (events_)
        events_->emit(observe::GuardrailEvent{action, addr, value});
}

void
Guardrails::beginPoll()
{
    ++pollIndex_;
    phaseChangesThisPoll_ = 0;
    memCalmThisPoll_ = true;
}

void
Guardrails::notePhaseChange()
{
    ++phaseChangesThisPoll_;
}

void
Guardrails::noteMemPressure(std::uint64_t issued_delta,
                            std::uint64_t dropped_delta)
{
    std::uint64_t events = issued_delta + dropped_delta;
    if (events < config_.prefetchMinEvents)
        return;  // too few prefetch events to trust the rate
    double rate = static_cast<double>(dropped_delta) /
                  static_cast<double>(events);
    if (rate < config_.prefetchDampDropRate)
        return;  // calm poll
    memCalmThisPoll_ = false;

    if (rate >= config_.prefetchDisableDropRate) {
        if (throttle_ != Throttle::Disabled) {
            throttle_ = Throttle::Disabled;
            ++stats_.prefetchDisabled;
            throttleCalmPolls_ = 0;
            emit("prefetch-disabled", 0,
                 static_cast<std::uint64_t>(rate * 100.0));
        }
    } else {
        if (throttle_ == Throttle::Normal) {
            throttle_ = Throttle::Damped;
            ++stats_.prefetchDamped;
            throttleCalmPolls_ = 0;
            emit("prefetch-damped", 0,
                 static_cast<std::uint64_t>(rate * 100.0));
        }
    }
}

void
Guardrails::noteTraceReverted(Addr head)
{
    std::uint32_t count = ++revertCount_[head];
    if (count >= config_.reoptMaxReverts) {
        permanentBlacklist_.insert(head);
        blockedUntil_.erase(head);
        ++stats_.headsBlacklisted;
        emit("reopt-blacklist", head, count);
        return;
    }
    std::uint64_t backoff = config_.reoptBackoffInitialPolls;
    for (std::uint32_t i = 1; i < count; ++i)
        backoff *= 2;
    backoff = std::min<std::uint64_t>(backoff, config_.reoptBackoffMaxPolls);
    blockedUntil_[head] = pollIndex_ + backoff;
    emit("reopt-blocked", head, backoff);
}

void
Guardrails::noteStagedRevert(Addr head)
{
    ++stats_.stagedReverts;
    emit("staged-revert", head, 1);
}

void
Guardrails::noteFullRevert(Addr head, std::uint64_t traces)
{
    ++stats_.fullReverts;
    emit("full-revert", head, traces);
}

void
Guardrails::notePoolExhausted(Addr head)
{
    ++stats_.poolExhaustedRejects;
    emit("pool-exhausted", head, stats_.poolExhaustedRejects);
}

void
Guardrails::notePatchFailed(Addr head)
{
    ++stats_.patchFailures;
    emit("patch-failed", head, stats_.patchFailures);
}

void
Guardrails::noteWatchdogFire(Addr head, std::uint64_t stall_cycles)
{
    ++stats_.watchdogFires;
    if (throttle_ == Throttle::Normal) {
        throttle_ = Throttle::Damped;
        ++stats_.prefetchDamped;
    } else if (throttle_ == Throttle::Damped) {
        throttle_ = Throttle::Disabled;
        ++stats_.prefetchDisabled;
    }
    throttleCalmPolls_ = 0;
    emit("watchdog-cancel", head, stall_cycles);
}

bool
Guardrails::allowOptimize(Addr head)
{
    if (permanentBlacklist_.count(head)) {
        ++stats_.reoptBlocked;
        return false;
    }
    auto it = blockedUntil_.find(head);
    if (it != blockedUntil_.end()) {
        // A backoff of N recorded at poll P blocks polls P+1 .. P+N.
        if (pollIndex_ <= it->second) {
            ++stats_.reoptBlocked;
            return false;
        }
        blockedUntil_.erase(it);  // backoff expired
    }
    return true;
}

void
Guardrails::endPoll()
{
    // --- sampling backoff: slide the thrash window forward ---
    thrashWindow_[thrashHead_] = phaseChangesThisPoll_;
    thrashHead_ = (thrashHead_ + 1) % thrashWindow_.size();
    std::uint64_t windowSum = 0;
    for (std::uint32_t c : thrashWindow_)
        windowSum += c;

    if (windowSum >= config_.thrashPhaseChanges &&
        samplingMult_ < config_.samplingBackoffMax) {
        samplingMult_ *= 2;
        ++stats_.samplingBackoffs;
        calmPolls_ = 0;
        // Restart the measurement: the slower rate needs a fresh window
        // before it can be judged.
        std::fill(thrashWindow_.begin(), thrashWindow_.end(), 0);
        emit("sampling-backoff", 0, samplingMult_);
    } else if (phaseChangesThisPoll_ == 0) {
        ++calmPolls_;
        if (samplingMult_ > 1 && calmPolls_ >= config_.samplingRestorePolls) {
            samplingMult_ /= 2;
            ++stats_.samplingRestores;
            calmPolls_ = 0;
            emit("sampling-restore", 0, samplingMult_);
        }
    } else {
        calmPolls_ = 0;
    }

    // --- prefetch-throttle recovery ---
    if (throttle_ != Throttle::Normal) {
        if (memCalmThisPoll_) {
            ++throttleCalmPolls_;
            if (throttleCalmPolls_ >= config_.throttleRecoverPolls) {
                throttle_ = throttle_ == Throttle::Disabled
                                ? Throttle::Damped
                                : Throttle::Normal;
                ++stats_.prefetchRestored;
                throttleCalmPolls_ = 0;
                emit("prefetch-restored", 0,
                     throttle_ == Throttle::Normal ? 0 : 1);
            }
        } else {
            throttleCalmPolls_ = 0;
        }
    }
}

int
Guardrails::prefetchLoadCap(int configured) const
{
    switch (throttle_) {
      case Throttle::Normal:
        return configured;
      case Throttle::Damped:
        return std::min(configured, 1);
      case Throttle::Disabled:
        return 0;
    }
    return configured;
}

const char *
throttleName(Guardrails::Throttle t)
{
    switch (t) {
      case Guardrails::Throttle::Normal:
        return "normal";
      case Guardrails::Throttle::Damped:
        return "damped";
      case Guardrails::Throttle::Disabled:
        return "disabled";
    }
    return "?";
}

CpiMarginVerdict
checkCpiMargin(double baseline_cpi, double guarded_cpi, double margin)
{
    CpiMarginVerdict v;
    if (baseline_cpi <= 0.0)
        return v;  // inapplicable: nothing retired in the baseline
    v.applicable = true;
    v.ratio = guarded_cpi / baseline_cpi;
    v.ok = guarded_cpi <= baseline_cpi * margin;
    return v;
}

} // namespace adore
