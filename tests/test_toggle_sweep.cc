/**
 * @file
 * The toggle bit-identity sweep (DESIGN.md §12, "Correctness
 * contract").
 *
 * Three host-side toggles promise not to change simulated results: the
 * execution tier (interpreter vs direct-threaded superblocks), the
 * memory hierarchy's fastPath shortcuts, and the AsyncBarrier optimizer
 * worker (vs the synchronous in-hook optimizer).  Every case runs one
 * registry workload twice, differing only in one toggle, and asserts
 * an empty invariants::diffIdentity — every Sim counter of every stats
 * block, generated from the field lists — and an identical rendered
 * decision-event stream, element by element.  TierToggle cases also
 * gate the direct tier's work counters (expectTierDidItsWork below).
 *
 * The sweep is one variant table × the workload registry.  A variant
 * is registered as "All/<suite>.<name>/<workload>", under the suite of
 * the toggle it flips (TierToggle, FastPathToggle, AsyncToggle), so the
 * CI shards select cases by suite name.
 *
 * FreeRunning is deliberately not a variant: its commit timing is
 * nondeterministic between reruns by design (DESIGN.md §11), so no two
 * runs need be identical.  The tier is instead held to the chaos
 * survival invariants there (TierToggleFreeRunning below and the TSan
 * CI shard).
 */

#include <gtest/gtest.h>

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
    Barrier,   ///< OptimizerMode Synchronous vs AsyncBarrier
};

struct Variant
{
    const char *suite;
    const char *name;
    Toggle toggle;
    bool adore = false;
    OptimizerMode mode = OptimizerMode::Synchronous;
    bool chaos = false;    ///< full fault schedule + guardrails
    bool fusion = true;    ///< CpuConfig::superblockFusion
    bool hwpf = false;     ///< hardware-prefetcher zoo, adaptive
};

constexpr OptimizerMode kSync = OptimizerMode::Synchronous;
constexpr OptimizerMode kBarrier = OptimizerMode::AsyncBarrier;

const Variant kVariants[] = {
    {"TierToggle", "NoAdoreBitIdentical", Toggle::Tier},
    {"TierToggle", "AdoreSyncBitIdentical", Toggle::Tier, true, kSync},
    {"TierToggle", "AdoreSyncBitIdenticalUnderChaos", Toggle::Tier, true,
     kSync, true},
    {"TierToggle", "AdoreBarrierBitIdenticalUnderChaos", Toggle::Tier,
     true, kBarrier, true},
    {"TierToggle", "AdoreSyncFusionOffBitIdentical", Toggle::Tier, true,
     kSync, false, false},
    {"TierToggle", "HwpfNoAdoreBitIdentical", Toggle::Tier, false, kSync,
     false, true, true},
    {"TierToggle", "HwpfAdoreBitIdenticalUnderChaos", Toggle::Tier, true,
     kSync, true, true, true},
    {"AsyncToggle", "BarrierBitIdentical", Toggle::Barrier, true},
    {"AsyncToggle", "BarrierBitIdenticalUnderChaos", Toggle::Barrier, true,
     kSync, true},
    {"FastPathToggle", "BitIdenticalMetricsBaseline", Toggle::FastPath},
    {"FastPathToggle", "BitIdenticalMetricsAdore", Toggle::FastPath, true,
     kBarrier},
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
    cfg.machine.cpu.superblockFusion = v.fusion;
    cfg.machine.hier.hwPrefetch.enabled = v.hwpf;
    // Long enough for ADORE to sample, optimize, and run in-pool code
    // on every workload; short enough to keep the sweep fast.
    cfg.maxCycles = 3'000'000ULL;
    cfg.quietCycleLimit = true;
    cfg.adore = v.adore;
    if (v.adore) {
        cfg.adoreConfig = Experiment::defaultAdoreConfig();
        cfg.adoreConfig.mode = v.mode;
    }
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
      case Toggle::Barrier:
        cfg.adoreConfig.mode = flipped ? kBarrier : kSync;
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
    cfg.adoreConfig.events = &trace;  // also the hwpf controller's sink

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

/** FreeRunning: nondeterministic commit timing rules out bit-identity;
 *  the tier must instead keep every chaos survival invariant. */
TEST(TierToggleFreeRunning, SurvivesChaosWithTierEnabled)
{
    ChaosSpec spec;
    spec.workloads = {"mcf", "art", "equake"};
    spec.seeds = {1, 2, 3};
    spec.maxCycles = 8'000'000ULL;
    spec.freeRunning = true;
    spec.execTier = ExecTier::DirectThreaded;
    ChaosReport report = Experiment::runChaos(spec);
    EXPECT_TRUE(report.ok()) << report.table();
}

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
                real.hwPrefetchUsed && real.hwpfControllerUsed);

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
