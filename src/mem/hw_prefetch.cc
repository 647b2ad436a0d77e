#include "mem/hw_prefetch.hh"

#include <algorithm>

namespace adore
{

namespace
{

std::uint32_t
log2u(std::uint32_t v)
{
    std::uint32_t shift = 0;
    while ((1u << shift) < v)
        ++shift;
    return shift;
}

/** Page granularity the VLDP history is keyed on. */
constexpr std::uint32_t kPageShift = 12;

} // namespace

HwPrefetchEngine::HwPrefetchEngine(const HwPrefetchConfig &config,
                                   std::uint32_t line_bytes)
    : config_(config),
      lineShift_(log2u(line_bytes)),
      lineBytes_(line_bytes)
{
    rpt_.assign(config.strideTableEntries, StrideEntry());
    dhb_.assign(config.vldpPages, DhbEntry());
    for (auto &table : dpt_)
        table.assign(config.vldpTableEntries, DptEntry());
    recentLines_.fill(~Addr{0});
}

void
HwPrefetchEngine::resetState()
{
    std::fill(rpt_.begin(), rpt_.end(), StrideEntry());
    std::fill(dhb_.begin(), dhb_.end(), DhbEntry());
    for (auto &table : dpt_)
        std::fill(table.begin(), table.end(), DptEntry());
    recentLines_.fill(~Addr{0});
    minAddr_ = ~Addr{0};
    maxAddr_ = 0;
    candidateCount_ = 0;
}

void
HwPrefetchEngine::emitCandidate(Addr addr, Source source)
{
    if (candidateCount_ >= kMaxCandidates)
        return;
    Addr line = addr >> lineShift_;
    Addr &slot = recentLines_[static_cast<std::size_t>(line) &
                              (recentLines_.size() - 1)];
    if (slot == line)
        return;  // just predicted; don't inflate the useless rate
    slot = line;
    ++statsOf(source).predictions;
    candidates_[candidateCount_++] = {line << lineShift_, source};
}

void
HwPrefetchEngine::observeDemand(Addr pc, Addr addr)
{
    minAddr_ = std::min(minAddr_, addr);
    maxAddr_ = std::max(maxAddr_, addr);
    if (config_.stride)
        trainStride(pc, addr);
    if (config_.vldp)
        trainVldp(addr);
}

// --------------------------------------------------------------------
// PC-indexed stride prefetcher (reference prediction table)
// --------------------------------------------------------------------

void
HwPrefetchEngine::trainStride(Addr pc, Addr addr)
{
    StrideEntry &e = rpt_[static_cast<std::size_t>(pc ^ (pc >> 7)) &
                          (rpt_.size() - 1)];
    if (e.pcTag != pc) {
        // Allocate (steal) the entry; no stride known yet.
        e = {pc, addr, 0, StrideState::Init};
        ++stats_.stride.trained;
        return;
    }
    std::int64_t delta = static_cast<std::int64_t>(addr) -
                         static_cast<std::int64_t>(e.lastAddr);
    if (delta == 0)
        return;  // same-line repeat (in-flight hit); keep learned state
    ++stats_.stride.trained;

    bool correct = delta == e.stride;
    switch (e.state) {
      case StrideState::Init:
        if (correct) {
            e.state = StrideState::Steady;
        } else {
            e.stride = delta;
            e.state = StrideState::Transient;
        }
        break;
      case StrideState::Transient:
        if (correct) {
            e.state = StrideState::Steady;
        } else {
            e.stride = delta;
            e.state = StrideState::NoPred;
        }
        break;
      case StrideState::Steady:
        if (!correct)
            e.state = StrideState::Init;  // stride kept; re-confirm
        break;
      case StrideState::NoPred:
        if (correct) {
            e.state = StrideState::Transient;
        } else {
            e.stride = delta;
        }
        break;
    }
    e.lastAddr = addr;

    if (e.state == StrideState::Steady && e.stride != 0) {
        for (std::uint32_t k = 1; k <= config_.strideDegree; ++k) {
            Addr target = static_cast<Addr>(
                static_cast<std::int64_t>(addr) +
                e.stride * static_cast<std::int64_t>(k));
            emitCandidate(target, Source::Stride);
        }
    }
}

HwPrefetchEngine::StrideState
HwPrefetchEngine::strideStateOf(Addr pc) const
{
    const StrideEntry &e = rpt_[static_cast<std::size_t>(pc ^ (pc >> 7)) &
                                (rpt_.size() - 1)];
    return e.pcTag == pc ? e.state : StrideState::Init;
}

// --------------------------------------------------------------------
// Variable Length Delta Prefetcher
// --------------------------------------------------------------------

std::uint64_t
HwPrefetchEngine::hashDeltaSeq(const std::int16_t *deltas,
                               std::uint32_t len) const
{
    // FNV-1a over the delta sequence, salted with the length so a
    // 1-delta key never collides with the prefix of a 2-delta key.
    std::uint64_t h = 1469598103934665603ULL ^ len;
    for (std::uint32_t i = 0; i < len; ++i) {
        h ^= static_cast<std::uint16_t>(deltas[i]);
        h *= 1099511628211ULL;
    }
    return h;
}

HwPrefetchEngine::DptEntry &
HwPrefetchEngine::dptSlot(std::uint32_t len, std::uint64_t key)
{
    std::vector<DptEntry> &table = dpt_[len - 1];
    return table[static_cast<std::size_t>(key) & (table.size() - 1)];
}

void
HwPrefetchEngine::trainVldp(Addr addr)
{
    std::int64_t line =
        static_cast<std::int64_t>(addr >> lineShift_);
    Addr page = addr >> kPageShift;
    DhbEntry &d = dhb_[static_cast<std::size_t>(page ^ (page >> 5)) &
                       (dhb_.size() - 1)];
    if (d.pageTag != page) {
        d = DhbEntry();
        d.pageTag = page;
        d.lastLine = line;
        ++stats_.vldp.trained;
        return;
    }
    std::int64_t delta64 = line - d.lastLine;
    if (delta64 == 0)
        return;  // same-line repeat (in-flight hit)
    if (delta64 > 32767 || delta64 < -32768)
        return;  // beyond the page-local delta range the tables hold
    std::int16_t delta = static_cast<std::int16_t>(delta64);
    ++stats_.vldp.trained;

    // Update the DPTs: the delta that followed each history prefix.
    std::uint32_t hist = std::min<std::uint32_t>(d.numDeltas, 3);
    for (std::uint32_t len = 1; len <= hist; ++len) {
        std::uint64_t key = hashDeltaSeq(d.deltas.data(), len);
        DptEntry &entry = dptSlot(len, key);
        if (entry.key == key) {
            if (entry.delta == delta) {
                entry.confidence = static_cast<std::uint8_t>(
                    std::min<std::uint32_t>(entry.confidence + 1, 3));
            } else if (entry.confidence > 0) {
                --entry.confidence;
            } else {
                entry.delta = delta;
                entry.confidence = 1;
            }
        } else if (entry.confidence == 0) {
            entry = {key, delta, 1};
        } else {
            --entry.confidence;
        }
    }

    // Push the new delta (newest first) and advance the page cursor.
    for (std::size_t i = d.deltas.size() - 1; i > 0; --i)
        d.deltas[i] = d.deltas[i - 1];
    d.deltas[0] = delta;
    d.numDeltas = static_cast<std::uint8_t>(
        std::min<std::size_t>(d.numDeltas + 1, d.deltas.size()));
    d.lastLine = line;

    // Predict: longest matching delta sequence first, then walk the
    // chain degree deep using the speculative history.
    std::array<std::int16_t, 4> h = d.deltas;
    std::uint32_t hlen = std::min<std::uint32_t>(d.numDeltas, 3);
    std::int64_t pred_line = line;
    for (std::uint32_t depth = 0; depth < config_.vldpDegree; ++depth) {
        bool found = false;
        std::int16_t pd = 0;
        for (std::uint32_t len = hlen; len >= 1; --len) {
            std::uint64_t key = hashDeltaSeq(h.data(), len);
            const DptEntry &entry = dptSlot(len, key);
            if (entry.key == key &&
                entry.confidence >= config_.vldpConfidence) {
                pd = entry.delta;
                found = true;
                break;
            }
        }
        if (!found || pd == 0)
            break;
        pred_line += pd;
        if (pred_line < 0)
            break;
        emitCandidate(static_cast<Addr>(pred_line) << lineShift_,
                      Source::Vldp);
        for (std::size_t i = h.size() - 1; i > 0; --i)
            h[i] = h[i - 1];
        h[0] = pd;
        hlen = std::min<std::uint32_t>(hlen + 1, 3);
    }
}

// --------------------------------------------------------------------
// Pointer-chase prefetcher (next line of loaded value)
// --------------------------------------------------------------------

void
HwPrefetchEngine::observeLoadedValue(Addr pc, Addr ea,
                                     std::uint64_t value,
                                     std::uint32_t latency)
{
    (void)pc;
    if (!config_.pointer || latency < config_.pointerTriggerLatency)
        return;
    // Plausibility: 8-byte aligned, inside the envelope of observed
    // demand addresses, and not the line we just loaded from.
    if ((value & 7) != 0)
        return;
    if (value < minAddr_ || value > maxAddr_)
        return;
    if ((value >> lineShift_) == (ea >> lineShift_))
        return;
    ++stats_.pointer.trained;
    for (std::uint32_t k = 0; k < config_.pointerDegree; ++k) {
        emitCandidate(static_cast<Addr>(value) +
                          static_cast<Addr>(k) * lineBytes_,
                      Source::Pointer);
    }
}

const char *
hwPrefetchSourceName(HwPrefetchEngine::Source s)
{
    switch (s) {
      case HwPrefetchEngine::Source::Stride:
        return "stride";
      case HwPrefetchEngine::Source::Vldp:
        return "vldp";
      case HwPrefetchEngine::Source::Pointer:
        return "pointer";
    }
    return "?";
}

} // namespace adore
