/**
 * @file
 * The toggle bit-identity sweep (DESIGN.md §12, "Correctness
 * contract").
 *
 * Two host-side toggles promise not to change simulated results: the
 * execution tier (interpreter vs direct-threaded superblocks) and the
 * memory hierarchy's fastPath shortcuts.  Every case runs one
 * registry workload twice, differing only in one toggle, and asserts
 * an empty invariants::diffIdentity — every Sim counter of every stats
 * block, generated from the field lists — and an identical rendered
 * decision-event stream, element by element.  TierToggle cases also
 * gate the direct tier's work counters (expectTierDidItsWork below),
 * and the two plain Tier variants hold them to committed per-workload
 * bands (expectWorkInBand).
 *
 * The sweep is one variant table × the workload registry.  A variant
 * is registered as "All/<suite>.<name>/<workload>", under the suite of
 * the toggle it flips (TierToggle, FastPathToggle), so `ctest -R`
 * selects cases by suite name.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/chaos.hh"
#include "harness/experiment.hh"
#include "harness/invariants.hh"
#include "observe/event_trace.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace adore;

/** The host-side toggle a variant flips between its two runs. */
enum class Toggle
{
    Tier,      ///< Interpreter vs DirectThreaded
    FastPath,  ///< HierarchyConfig::fastPath on vs off
};

/**
 * Committed direct-tier work for one workload: run()-level block
 * dispatches, chained block-to-block transitions and inline loop trips.
 * Like the block counts, these are a pure function of (program,
 * config), so they repeat on every host.  A change that moves them on
 * purpose re-measures the tables below and says why in CHANGES.md.
 */
struct TierWork
{
    const char *workload;
    std::uint64_t dispatches;
    std::uint64_t chained;
    std::uint64_t loopTrips;
};

/** NoAdoreBitIdentical's direct-tier run. */
constexpr TierWork kNoAdoreWork[] = {
    {"bzip2", 6, 0, 90'746},
    {"gzip", 8, 0, 147'459},
    {"mcf", 1, 0, 16'902},
    {"vpr", 1, 0, 17'359},
    {"parser", 10, 0, 72'108},
    {"gap", 154'212, 2, 73'706},
    {"vortex", 3, 191'374, 49'134},
    {"gcc", 3'755, 0, 240'317},
    {"ammp", 2, 0, 46'185},
    {"art", 1, 0, 37'772},
    {"applu", 17, 0, 32'968},
    {"equake", 1, 0, 24'796},
    {"facerec", 2, 0, 52'145},
    {"fma3d", 2, 0, 52'145},
    {"lucas", 1, 0, 16'315},
    {"mesa", 1, 0, 51'475},
    {"swim", 1, 0, 9'722},
};

/** AdoreSyncBitIdentical's direct-tier run. */
constexpr TierWork kAdoreWork[] = {
    {"bzip2", 790, 568, 89'708},
    {"gzip", 499, 388, 146'968},
    {"mcf", 776, 699, 22'661},
    {"vpr", 784, 681, 17'121},
    {"parser", 799, 484, 78'571},
    {"gap", 150'330, 120, 73'510},
    {"vortex", 791, 70'592, 165'297},
    {"gcc", 4'435, 0, 231'660},
    {"ammp", 792, 665, 60'895},
    {"art", 778, 691, 46'234},
    {"applu", 800, 556, 33'610},
    {"equake", 777, 672, 39'103},
    {"facerec", 773, 698, 55'168},
    {"fma3d", 773, 696, 55'163},
    {"lucas", 778, 678, 15'931},
    {"mesa", 794, 701, 65'959},
    {"swim", 781, 690, 9'633},
};

struct Variant
{
    const char *suite;
    const char *name;
    Toggle toggle;
    bool adore = false;
    bool chaos = false;  ///< full fault schedule + guardrails
    bool hwpf = false;   ///< hardware-prefetcher zoo, static defaults
    /** Committed direct-tier work per workload (Tier variants only). */
    std::span<const TierWork> work = {};
};

const Variant kVariants[] = {
    {"TierToggle", "NoAdoreBitIdentical", Toggle::Tier, false, false, false,
     kNoAdoreWork},
    {"TierToggle", "AdoreSyncBitIdentical", Toggle::Tier, true, false, false,
     kAdoreWork},
    {"TierToggle", "AdoreSyncBitIdenticalUnderChaos", Toggle::Tier, true,
     true},
    {"TierToggle", "HwpfNoAdoreBitIdentical", Toggle::Tier, false, false,
     true},
    {"TierToggle", "HwpfAdoreBitIdenticalUnderChaos", Toggle::Tier, true,
     true, true},
    {"FastPathToggle", "BitIdenticalMetricsBaseline", Toggle::FastPath},
    {"FastPathToggle", "BitIdenticalMetricsAdore", Toggle::FastPath, true},
};

const Variant &
variantNamed(const std::string &name)
{
    for (const Variant &v : kVariants)
        if (name == v.name)
            return v;
    throw std::invalid_argument("no variant " + name);
}

/** @p v's configuration, with its toggle off (@p flipped false) or on. */
RunConfig
configFor(const Variant &v, bool flipped)
{
    RunConfig cfg;
    cfg.compile = restrictedOptions(OptLevel::O2);
    cfg.machine.hier.hwPrefetch.enabled = v.hwpf;
    // Long enough for ADORE to sample, optimize, and run in-pool code
    // on every workload; short enough to keep the sweep fast.
    cfg.maxCycles = 3'000'000ULL;
    cfg.quietCycleLimit = true;
    cfg.adore = v.adore;
    if (v.adore)
        cfg.adoreConfig = Experiment::defaultAdoreConfig();
    if (v.chaos) {
        cfg.faults = defaultChaosFaults();
        cfg.faults.seed = 7;
        cfg.adoreConfig.guardrails.enabled = true;
        cfg.adoreConfig.tracePoolCapacityBundles = 768;
    }
    switch (v.toggle) {
      case Toggle::Tier:
        cfg.machine.cpu.execTier =
            flipped ? ExecTier::DirectThreaded : ExecTier::Interpreter;
        break;
      case Toggle::FastPath:
        cfg.machine.hier.fastPath = !flipped;
        break;
    }
    return cfg;
}

struct ToggleRun
{
    RunMetrics metrics;
    std::vector<std::string> events;
};

ToggleRun
runWith(const hir::Program &prog, RunConfig cfg)
{
    observe::EventTrace trace(16384);
    trace.enable();
    cfg.adoreConfig.events = &trace;

    ToggleRun out;
    out.metrics = Experiment::run(prog, cfg);
    for (const observe::Event &e : trace.snapshot())
        out.events.push_back(observe::renderEventLine(e));
    return out;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &l : lines)
        out += l + "\n";
    return out;
}

class ToggleCase : public ::testing::Test
{
  public:
    ToggleCase(const Variant &variant, std::string workload)
        : variant_(variant), workload_(std::move(workload))
    {
    }

    void
    TestBody() override
    {
        hir::Program prog = workloads::make(workload_);
        ToggleRun a = runWith(prog, configFor(variant_, false));
        ToggleRun b = runWith(prog, configFor(variant_, true));

        std::vector<std::string> diffs;
        invariants::diffIdentity(a.metrics, b.metrics, true, diffs);
        EXPECT_TRUE(diffs.empty()) << joinLines(diffs);
        if (variant_.toggle == Toggle::Tier)
            expectTierDidItsWork(b.metrics.superblockStats);
        if (!variant_.work.empty())
            expectWorkInBand(b.metrics.superblockStats);

        // The decision-event stream is the strongest check: identical
        // decisions, in the same order, at the same simulated cycles.
        ASSERT_EQ(a.events.size(), b.events.size());
        for (std::size_t i = 0; i < a.events.size(); ++i)
            ASSERT_EQ(a.events[i], b.events[i]) << "event " << i;
    }

    /**
     * The tier's performance gate, on work counters instead of host
     * time: they are a pure function of (program, config), so they
     * repeat on every host.  The direct-tier run must dispatch blocks,
     * evict none, and build a bounded number.  Across the sweep the
     * largest count is about 200 (gcc with ADORE) and no block is ever
     * evicted; a cache that thrashes, as the direct-mapped one did on
     * gcc (157,324 builds over a full run), fails here.
     */
    static void
    expectTierDidItsWork(const SuperblockStats &s)
    {
        EXPECT_EQ(s.replaced, 0u) << "superblocks evicted by LRU";
        EXPECT_LT(s.built, 512u) << "superblock builds";
        EXPECT_GT(s.dispatches, 0u) << "no superblock was dispatched";
    }

    /**
     * The direct-tier run's work counters lie within ±10% of the
     * committed values.  A change that hits both tiers alike, such as a
     * lost chain or a broken trace-head rule, moves them, although no
     * ratio of host times can see it.
     */
    void
    expectWorkInBand(const SuperblockStats &s) const
    {
        const TierWork *want = nullptr;
        for (const TierWork &w : variant_.work)
            if (workload_ == w.workload)
                want = &w;
        ASSERT_NE(want, nullptr) << "no committed tier work for "
                                 << workload_;
        auto inBand = [](const char *counter, std::uint64_t got,
                         std::uint64_t committed) {
            EXPECT_TRUE(got * 10 >= committed * 9 &&
                        got * 10 <= committed * 11)
                << counter << " " << got << ", committed " << committed;
        };
        inBand("dispatches", s.dispatches, want->dispatches);
        inBand("chained", s.chained, want->chained);
        inBand("loopTrips", s.loopTrips, want->loopTrips);
    }

  private:
    const Variant &variant_;
    std::string workload_;
};

/** Register every (variant, workload) case before main() runs. */
const bool kSweepRegistered = [] {
    for (const Variant &v : kVariants) {
        std::string suite = std::string("All/") + v.suite;
        for (const workloads::WorkloadInfo &info :
             workloads::allWorkloads()) {
            std::string name = std::string(v.name) + "/" + info.name;
            std::string param = "\"" + info.name + "\"";
            ::testing::RegisterTest(
                suite.c_str(), name.c_str(), nullptr, param.c_str(),
                __FILE__, __LINE__,
                [&v, workload = info.name]() -> ToggleCase * {
                    return new ToggleCase(v, workload);
                });
        }
    }
    return true;
}();

/**
 * The diff the sweep relies on is generated from the field lists: a
 * one-count bump of any Sim field of a real run must be reported as
 * exactly one line naming that field, and a bump of a Host field (or of
 * a runtime block with the runtime comparison off) as nothing.
 */
TEST(DiffIdentity, ReportsExactlyTheBumpedSimField)
{
    const Variant &every = variantNamed("HwpfAdoreBitIdenticalUnderChaos");
    const RunMetrics real =
        runWith(workloads::make("mcf"), configFor(every, true)).metrics;
    ASSERT_TRUE(real.adoreUsed && real.guardrailsUsed && real.faultsUsed &&
                real.hwPrefetchUsed);

    int sim = 0, host = 0;
    invariants::forEachStatBlock([&](const char *block, auto get,
                                     bool runtime) {
        using Stats = std::remove_cvref_t<decltype(get(real))>;
        Stats::forEachField([&](const StatField &f, auto member) {
            std::string name = std::string(block) + "." + f.member;
            RunMetrics bumped = real;
            ++(get(bumped).*member);

            std::vector<std::string> out;
            invariants::diffIdentity(real, bumped, true, out);
            if (f.cls == StatClass::Host) {
                ++host;
                EXPECT_TRUE(out.empty()) << name << ": " << joinLines(out);
            } else {
                ++sim;
                ASSERT_EQ(out.size(), 1u) << name << ": " << joinLines(out);
                EXPECT_EQ(out[0].rfind(name + ": ", 0), 0u) << out[0];
            }

            if (runtime) {
                out.clear();
                invariants::diffIdentity(real, bumped, false, out);
                EXPECT_TRUE(out.empty()) << name << ": " << joinLines(out);
            }
        });
    });
    EXPECT_GT(sim, 0);
    EXPECT_GT(host, 0);
}

} // namespace
