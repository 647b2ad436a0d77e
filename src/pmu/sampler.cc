#include "pmu/sampler.hh"

#include <utility>

namespace adore
{

void
Sampler::setOverflowHandler(OverflowHandler handler)
{
    handler_ = std::move(handler);
}

Cycle
Sampler::takeSample(const Sample &sample)
{
    if (!enabled_)
        return 0;

    ssb_.push_back(sample);
    Sample &recorded = ssb_.back();
    recorded.index = stats_.samplesTaken;
    ++stats_.samplesTaken;
    nextSampleAt_ = sample.cycles + config_.interval;

    // Chaos channels: perturb the recorded n-tuple, never the live PMU
    // state — the fault model is an unreliable *sampling* path, not an
    // unreliable machine.
    if (faults_) {
        if (recorded.dear.valid)
            faults_->aliasDear(recorded.dear.missAddr);
        faults_->jitterCounters(recorded.cycles,
                                recorded.dcacheMissCount,
                                recorded.retiredCount);
        std::uint32_t a = 0;
        std::uint32_t b = 0;
        if (faults_->corruptBtbPath(
                static_cast<std::uint32_t>(recorded.btb.size()), a, b)) {
            std::swap(recorded.btb[a].target, recorded.btb[b].target);
        }
    }

    Cycle overhead = config_.interruptCycles;

    if (ssb_.size() >= config_.ssbSamples) {
        ++stats_.overflows;
        overhead += static_cast<Cycle>(config_.copyCyclesPerSample) *
                    ssb_.size();
        // Chaos channels: a dropped batch never reaches the UEB (the
        // overflow "signal" was lost); a duplicated batch is delivered
        // twice (the handler re-ran on a stale buffer).
        if (faults_ && faults_->dropBatch()) {
            ++stats_.droppedFault;
        } else if (!handler_) {
            ++stats_.droppedNoHandler;
        } else {
            deliver();
            if (faults_ && faults_->duplicateBatch())
                deliver();
        }
        ssb_.clear();
    }
    return overhead;
}

void
Sampler::deliver()
{
    handler_(ssb_);
    ++stats_.batchesDelivered;
}

std::vector<Sample>
UserEventBuffer::flatten() const
{
    std::vector<Sample> out;
    for (const auto &w : windows_)
        out.insert(out.end(), w.begin(), w.end());
    return out;
}

} // namespace adore
