#include "mem/hierarchy.hh"

namespace adore
{

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config)
    : config_(config),
      l1i_(config.l1i),
      l1d_(config.l1d),
      l2_(config.l2),
      l3_(config.l3)
{
    if (config.hwPrefetch.enabled) {
        // Hardware prefetches fill L2/L3, so the engine thinks in L2
        // lines (128 B) — like lfetch.nt1, never into L1D.
        hwpf_ = std::make_unique<HwPrefetchEngine>(config.hwPrefetch,
                                                   config.l2.lineBytes);
    }
}

void
CacheHierarchy::clearStats()
{
    stats_ = HierarchyStats();
    l1i_.clearStats();
    l1d_.clearStats();
    l2_.clearStats();
    l3_.clearStats();
    if (hwpf_)
        hwpf_->clearStats();
}

void
CacheHierarchy::flushAll()
{
    l1i_.flush();
    l1d_.flush();
    l2_.flush();
    l3_.flush();
    busFreeAt_ = 0;
    ++generation_;
    if (hwpf_)
        hwpf_->resetState();
}

void
CacheHierarchy::hwpfObserveDemand(Addr pc, Addr addr, Cycle now)
{
    hwpf_->observeDemand(pc, addr);
    issueHwCandidates(now);
}

void
CacheHierarchy::observeLoadedValue(Addr pc, Addr ea, std::uint64_t value,
                                   std::uint32_t latency, Cycle now)
{
    if (!hwpf_)
        return;
    hwpf_->observeLoadedValue(pc, ea, value, latency);
    issueHwCandidates(now);
}

void
CacheHierarchy::issueHwCandidates(Cycle now)
{
    std::size_t n = hwpf_->candidateCount();
    for (std::size_t i = 0; i < n; ++i) {
        const HwPrefetchEngine::Candidate &c = hwpf_->candidate(i);
        // Same throttle budget as software prefetch(): hardware and
        // ADORE lfetches contend for prefetchQueueDepth and the bus,
        // but drops are charged to the per-prefetcher hw counters, not
        // to the software prefetchesDropped.
        if (busFreeAt_ >
            now + static_cast<Cycle>(config_.prefetchQueueDepth) *
                      config_.busOccupancy) {
            hwpf_->noteDropped(c.source);
            continue;
        }
        if (l2_.probe(c.addr).hit) {
            hwpf_->noteUseless(c.source);
            continue;
        }
        hwpf_->noteIssued(c.source);
        resolveBelowL2(c.addr, now, true);
    }
    hwpf_->clearCandidates();
}

} // namespace adore
