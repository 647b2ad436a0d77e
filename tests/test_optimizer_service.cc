/**
 * @file
 * Unit and integration tests for the concurrent optimizer service
 * (DESIGN.md §11): the bounded SPSC queue's edge cases, backpressure
 * drop accounting in barrier and free-running modes, both watchdog
 * layers (deterministic virtual-cycle and host-time), and clean
 * shutdown with messages still queued.  The free-running cases are the
 * shard the TSan CI job runs; the shutdown case is what ASan proves
 * leak-free.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "harness/experiment.hh"
#include "runtime/spsc_queue.hh"
#include "workloads/common.hh"

namespace
{

using namespace adore;

// ---------------------------------------------------------------------
// BoundedSpscQueue unit tests
// ---------------------------------------------------------------------

TEST(SpscQueue, CapacityOneSemantics)
{
    BoundedSpscQueue<std::unique_ptr<int>> q(1);
    EXPECT_EQ(q.capacity(), 1u);
    EXPECT_TRUE(q.empty());

    auto a = std::make_unique<int>(1);
    auto b = std::make_unique<int>(2);
    EXPECT_TRUE(q.tryPush(std::move(a)));
    EXPECT_FALSE(q.tryPush(std::move(b)));
    // The failed push must leave the value untouched — the service's
    // request paths rely on this to roll their pending sets back.
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(*b, 2);

    std::unique_ptr<int> out;
    ASSERT_TRUE(q.tryPop(out));
    EXPECT_EQ(*out, 1);
    EXPECT_FALSE(q.tryPop(out));
    EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, ZeroCapacityClampsToOne)
{
    BoundedSpscQueue<int> q(0);
    EXPECT_EQ(q.capacity(), 1u);
    EXPECT_TRUE(q.tryPush(7));
    EXPECT_FALSE(q.tryPush(8));
    int out = 0;
    ASSERT_TRUE(q.tryPop(out));
    EXPECT_EQ(out, 7);
}

TEST(SpscQueue, WraparoundPreservesFifoOrder)
{
    BoundedSpscQueue<int> q(3);
    int next_push = 0;
    int next_pop = 0;
    // Interleave pushes and pops so the ring wraps many times.
    for (int round = 0; round < 50; ++round) {
        while (q.tryPush(int(next_push)))
            ++next_push;
        EXPECT_EQ(q.size(), 3u);
        int out = -1;
        while (q.tryPop(out)) {
            EXPECT_EQ(out, next_pop);
            ++next_pop;
        }
    }
    EXPECT_EQ(next_push, next_pop);
    EXPECT_GT(next_push, 100);
}

TEST(SpscQueue, CrossThreadStress)
{
    BoundedSpscQueue<std::uint64_t> q(4);
    constexpr std::uint64_t kCount = 50'000;

    std::thread producer([&] {
        for (std::uint64_t i = 0; i < kCount; ++i) {
            while (!q.tryPush(std::uint64_t(i)))
                std::this_thread::yield();
        }
    });

    std::uint64_t expected = 0;
    while (expected < kCount) {
        std::uint64_t out = 0;
        if (q.tryPop(out)) {
            ASSERT_EQ(out, expected);
            ++expected;
        } else {
            std::this_thread::yield();
        }
    }
    producer.join();
    EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------
// Service integration tests
// ---------------------------------------------------------------------

/** The chase workload the runtime reliably detects and optimizes. */
hir::Program
chaseProgram()
{
    hir::Program prog;
    prog.name = "chase";
    int list = workloads::linkedList(prog, "nodes", 16'000, 128, 0.0);
    hir::LoopBody body;
    body.chases.push_back({list, 8});
    int loop = workloads::addLoop(prog, "walk", 15'900, body);
    workloads::phase(prog, loop, 8);
    return prog;
}

RunConfig
serviceConfig(OptimizerMode mode)
{
    RunConfig cfg;
    cfg.compile.level = OptLevel::O2;
    cfg.compile.softwarePipelining = false;
    cfg.compile.reserveAdoreRegs = true;
    cfg.adore = true;
    cfg.adoreConfig = Experiment::defaultAdoreConfig();
    cfg.adoreConfig.mode = mode;
    return cfg;
}

TEST(OptimizerService, BarrierDropAccountingSplitsDropCauses)
{
    // Capacity-1 queue with a fast sampler: ~8 SSB overflows per poll
    // period, so all but the first batch of each period hit a full
    // queue and must be dropped *at the producer* and attributed to the
    // consumer-behind bucket (not the fault bucket — no faults here).
    RunConfig cfg = serviceConfig(OptimizerMode::AsyncBarrier);
    cfg.adoreConfig.sampleQueueCapacity = 1;
    cfg.adoreConfig.sampler.interval = 500;
    cfg.adoreConfig.sampler.ssbSamples = 16;
    cfg.maxCycles = 3'000'000ULL;
    cfg.quietCycleLimit = true;

    hir::Program prog = chaseProgram();
    RunMetrics m = Experiment::run(prog, cfg);

    EXPECT_TRUE(m.optimizerServiceUsed);
    EXPECT_EQ(m.optimizerMode, OptimizerMode::AsyncBarrier);
    EXPECT_GT(m.optimizerStats.barrierPolls, 0u);

    const SamplerStats &s = m.samplerStats;
    EXPECT_GT(s.overflows, 0u);
    EXPECT_GT(s.batchesDelivered, 0u);
    EXPECT_GT(s.droppedConsumerBehind, 0u);
    EXPECT_EQ(s.droppedFault, 0u);  // no fault plan in this run
    EXPECT_EQ(s.droppedNoHandler, 0u);
    // Every overflow resolves to exactly one delivery outcome.
    EXPECT_EQ(s.overflows, s.batchesDelivered + s.droppedFault +
                               s.droppedConsumerBehind +
                               s.droppedNoHandler);
    // The service and the sampler must agree on the drop count.
    EXPECT_EQ(m.optimizerStats.batchesDropped, s.droppedConsumerBehind);
    EXPECT_EQ(m.optimizerStats.batchesEnqueued, s.batchesDelivered);
}

TEST(OptimizerService, VirtualWatchdogCancelsStalledPhase)
{
    // Every optimizePhase entry draws a 400k-cycle injected stall,
    // which exceeds the 150k-cycle deadline: the deterministic watchdog
    // must cancel every optimization attempt, patch nothing, and step
    // the guardrail throttle down.
    RunConfig cfg = serviceConfig(OptimizerMode::AsyncBarrier);
    cfg.adoreConfig.guardrails.enabled = true;
    cfg.faults.optimizerStallRate = 1.0;
    cfg.faults.seed = 3;
    cfg.maxCycles = 8'000'000ULL;
    cfg.quietCycleLimit = true;

    hir::Program prog = chaseProgram();
    RunMetrics m = Experiment::run(prog, cfg);

    EXPECT_GE(m.adoreStats.phasesWatchdogCancelled, 1u);
    EXPECT_EQ(m.adoreStats.tracesPatched, 0u);
    EXPECT_GE(m.faultStats.optimizerStalls, 1u);
    EXPECT_EQ(m.guardrailStats.watchdogFires,
              m.adoreStats.phasesWatchdogCancelled);
    EXPECT_GE(m.guardrailStats.prefetchDamped, 1u);
}

TEST(OptimizerService, FreeRunningProducerFasterThanConsumer)
{
    // Stall the worker inside optimizePhase while the mutator keeps
    // producing sample batches into a capacity-1 queue: the producer
    // must drop at the queue (never block) and both sides must agree
    // on the count.
    RunConfig cfg = serviceConfig(OptimizerMode::FreeRunning);
    cfg.adoreConfig.sampleQueueCapacity = 1;
    cfg.adoreConfig.sampler.interval = 500;
    cfg.adoreConfig.sampler.ssbSamples = 16;
    cfg.adoreConfig.perTraceTestHook = [](Addr) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    };
    cfg.maxCycles = 20'000'000ULL;
    cfg.quietCycleLimit = true;

    hir::Program prog = chaseProgram();
    RunMetrics m = Experiment::run(prog, cfg);

    EXPECT_TRUE(m.optimizerServiceUsed);
    EXPECT_EQ(m.optimizerMode, OptimizerMode::FreeRunning);
    EXPECT_GT(m.optimizerStats.ticksProcessed, 0u);
    EXPECT_GE(m.optimizerStats.batchesDropped, 1u);
    EXPECT_EQ(m.optimizerStats.batchesDropped,
              m.samplerStats.droppedConsumerBehind);
}

TEST(OptimizerService, HostWatchdogCancelsStalledPhase)
{
    // Free-running only: the mutator's poll watches the worker's phase
    // wall-clock and requests cancellation past the ns deadline.  The
    // hook stalls each candidate trace ~5 ms against a 0.2 ms deadline,
    // so at least one poll must observe the overrun and cancel.
    RunConfig cfg = serviceConfig(OptimizerMode::FreeRunning);
    cfg.adoreConfig.guardrails.enabled = true;
    cfg.adoreConfig.sampler.interval = 500;
    cfg.adoreConfig.sampler.ssbSamples = 16;
    cfg.adoreConfig.watchdogDeadlineNs = 200'000;
    cfg.adoreConfig.perTraceTestHook = [](Addr) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    };
    cfg.maxCycles = 20'000'000ULL;
    cfg.quietCycleLimit = true;

    hir::Program prog = chaseProgram();
    RunMetrics m = Experiment::run(prog, cfg);

    EXPECT_TRUE(m.optimizerServiceUsed);
    // The cancel request is what must be exercised; whether the worker
    // honors it mid-slice or finishes the trace first is timing-
    // dependent, so only the host-side counter is pinned.
    EXPECT_GE(m.optimizerStats.watchdogHostCancels, 1u);
}

TEST(OptimizerService, ShutdownWithMessagesStillQueued)
{
    // Hit the cycle budget while the worker is stalled inside a phase
    // with sample batches and ticks still queued: detach must join the
    // worker, drain the leftovers on one thread, and leak nothing
    // (the ASan CI job keeps this honest).
    RunConfig cfg = serviceConfig(OptimizerMode::FreeRunning);
    cfg.adoreConfig.sampler.interval = 500;
    cfg.adoreConfig.sampler.ssbSamples = 16;
    cfg.adoreConfig.perTraceTestHook = [](Addr) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    };
    cfg.maxCycles = 400'000ULL;
    cfg.quietCycleLimit = true;

    hir::Program prog = chaseProgram();
    RunMetrics m = Experiment::run(prog, cfg);

    EXPECT_TRUE(m.optimizerServiceUsed);
    EXPECT_FALSE(m.halted);  // budget-bounded on purpose
    // Sampling must have been live right up to the teardown.
    EXPECT_GT(m.samplerStats.overflows, 0u);
}

} // namespace
