/**
 * @file
 * Runtime-adaptive hardware-prefetcher controller (DESIGN.md §13).
 *
 * In the spirit of the POWER7 runtime-guided reconfiguration work: a
 * software agent polls the hardware prefetchers' accuracy/coverage
 * counters at the ADORE poll cadence and retunes prefetcher choice and
 * depth per detected phase.  The decision table, per prefetcher with
 * enough events this poll:
 *
 *   | observation (per poll)                       | action          |
 *   |----------------------------------------------|-----------------|
 *   | useless rate >= disableUselessRate           | turn off        |
 *   | drop rate >= disableDropRate and degree == 1 | turn off        |
 *   | drop rate >= degreeDownDropRate, degree > 1  | degree - 1      |
 *   | drop <= growDropRate, useless <= growUseless | degree + 1      |
 *   | phase change since the last poll             | reset to config |
 *
 * A phase change resets every prefetcher to its configured initial
 * state — a new phase means new access patterns, and a prefetcher that
 * lost its budget in the old phase deserves a fresh audition (this is
 * the per-phase "exploration" step; the per-poll rows above are the
 * "exploitation" steps that converge within the phase).
 *
 * On top of its own decisions the controller honors the guardrail
 * arbitration rung (Guardrails::hwThrottle): Damped caps every degree
 * at 1, Disabled turns all prefetchers off.  The guardrail thus always
 * wins fights with the optimizer's lfetches, regardless of how
 * profitable the controller believes its prefetchers to be.
 *
 * poll() runs in a Cpu periodic hook and is the only mutator of the
 * engine's tuning; the runtime's poll reports phase changes through
 * notePhaseChange(), which the next controller poll consumes.
 */

#ifndef ADORE_RUNTIME_HWPF_CONTROLLER_HH
#define ADORE_RUNTIME_HWPF_CONTROLLER_HH

#include <cstdint>

#include "mem/hierarchy.hh"
#include "observe/event_trace.hh"
#include "runtime/guardrails.hh"
#include "support/stat_fields.hh"

namespace adore
{

struct HwPrefetchControllerConfig
{
    /** Drop rate that costs a prefetcher one degree step. */
    double degreeDownDropRate = 0.25;
    /** Drop rate that turns a degree-1 prefetcher off entirely. */
    double disableDropRate = 0.50;
    /** Useless rate (issued but already resident) that turns it off. */
    double disableUselessRate = 0.60;
    /** Drop rate under which a well-aimed prefetcher may grow. */
    double growDropRate = 0.10;
    /** Useless-rate ceiling for growing. */
    double growUselessRate = 0.25;
    /** Minimum issue+drop events per poll before rates are trusted. */
    std::uint64_t minEvents = 16;
};

/** HwPrefetchControllerStats fields, X(type, member, metric,
 *  description, class) (support/stat_fields.hh); exported as
 *  "hwpf.<metric>". */
#define ADORE_HWPF_CONTROLLER_STATS(X)                                 \
    X(std::uint64_t, polls, "controller_polls",                        \
      "adaptive-controller polls", Sim)                                \
    X(std::uint64_t, phaseRetunes, "phase_retunes",                    \
      "controller resets on phase change", Sim)                        \
    X(std::uint64_t, degreeUps, "degree_ups",                          \
      "controller degree increases", Sim)                              \
    X(std::uint64_t, degreeDowns, "degree_downs",                      \
      "controller degree decreases", Sim)                              \
    X(std::uint64_t, prefetcherDisables, "disables",                   \
      "prefetchers turned off by the controller", Sim)                 \
    X(std::uint64_t, guardrailCaps, "guardrail_caps",                  \
      "polls newly capped by the guardrail rung", Sim)

struct HwPrefetchControllerStats
{
    ADORE_STAT_FIELDS(HwPrefetchControllerStats,
                      ADORE_HWPF_CONTROLLER_STATS)
};

class HwPrefetchController
{
  public:
    explicit HwPrefetchController(CacheHierarchy &caches,
                                  const HwPrefetchControllerConfig &config =
                                      HwPrefetchControllerConfig());

    /** Attach the guardrails whose hw rung caps the tuning (may be
     *  null: no cap).  Not owned. */
    void setGuardrails(const Guardrails *g) { guardrails_ = g; }

    void setEventTrace(observe::EventTrace *events) { events_ = events; }

    /**
     * One controller poll: react to a phase change, then walk the
     * decision table over the per-prefetcher counter deltas since the
     * previous poll, then apply the guardrail cap.
     */
    void poll(Cycle now);

    /** A phase change was detected (consumed by the next poll()). */
    void notePhaseChange() { phaseChanged_ = true; }

    const HwPrefetchControllerStats &stats() const { return stats_; }
    const HwPrefetchControllerConfig &config() const { return config_; }

  private:
    void emit(Cycle now, const char *action, const char *prefetcher,
              std::uint64_t degree);

    /** Decision-table walk for one prefetcher's poll deltas. */
    void tuneOne(Cycle now, const char *name,
                 const HwPrefetcherStats &cur,
                 const HwPrefetcherStats &prev, bool &on,
                 std::uint32_t &degree);

    CacheHierarchy &caches_;
    HwPrefetchControllerConfig config_;
    HwPrefetchControllerStats stats_;
    const Guardrails *guardrails_ = nullptr;
    observe::EventTrace *events_ = nullptr;

    bool phaseChanged_ = false;

    /** The controller's desired tuning before the guardrail cap. */
    HwPrefetchEngine::Tuning desired_;
    /** Counter snapshot at the previous poll (for deltas). */
    HwPrefetchStats last_;
    /** Guardrail rung applied last poll (to count rung changes once). */
    Guardrails::Throttle lastCap_ = Guardrails::Throttle::Normal;
};

} // namespace adore

#endif // ADORE_RUNTIME_HWPF_CONTROLLER_HH
