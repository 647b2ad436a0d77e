/**
 * @file
 * One declaration per stats counter (DESIGN.md §9).
 *
 * Every counter struct of a run (CacheStats, AdoreStats, SamplerStats,
 * ...) lists its fields once, as an X-macro of entries
 *
 *     X(type, member, metric, description, class)
 *
 * where @c metric is the exported name's suffix (the exporter supplies
 * the prefix, e.g. "l1d." or "hwpf.stride_") or @c nullptr for a field
 * that is not exported, and @c class is @c Sim for a counter of the
 * simulated machine or @c Host for one that counts host work (the
 * superblock cache, the optimizer-service queues).  The struct body is
 * then just ADORE_STAT_FIELDS(Struct, LIST): it declares the members,
 * zero-initialised, and a static forEachField() visitor.  The metric
 * export (Experiment::collectMetrics) and the bit-identity diff
 * (invariants::diffIdentity) are both generated from the visitor, so a
 * new counter is one list line: it is exported and, when Sim, compared
 * by every identity gate without further edits.
 */

#ifndef ADORE_SUPPORT_STAT_FIELDS_HH
#define ADORE_SUPPORT_STAT_FIELDS_HH

#include <cstdint>

namespace adore
{

/** Whether a counter measures the simulated machine or host work.
 *  Only Sim counters are held to the toggle bit-identity contract. */
enum class StatClass : std::uint8_t
{
    Sim,
    Host,
};

/** The declared facts of one counter field. */
struct StatField
{
    const char *member;       ///< C++ member name
    const char *metric;       ///< exported name suffix, or nullptr
    const char *description;
    StatClass cls;
};

} // namespace adore

#define ADORE_STAT_MEMBER(type, member, metric, desc, cls) type member = 0;

#define ADORE_STAT_VISIT(type, member, metric, desc, cls)              \
    f(::adore::StatField{#member, metric, desc, ::adore::StatClass::cls}, \
      &Self::member);

/**
 * Declare the fields of @p LIST as members of @p Struct, plus
 * `static void forEachField(F f)`, which calls
 * `f(const StatField &, type Struct::*member)` once per field in
 * declaration order.
 */
#define ADORE_STAT_FIELDS(Struct, LIST)                                \
    LIST(ADORE_STAT_MEMBER)                                            \
    template <typename F>                                              \
    static void                                                        \
    forEachField(F &&f)                                                \
    {                                                                  \
        using Self = Struct;                                           \
        LIST(ADORE_STAT_VISIT)                                         \
    }

#endif // ADORE_SUPPORT_STAT_FIELDS_HH
