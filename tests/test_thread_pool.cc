/**
 * @file
 * Tests for the ThreadPool and Experiment::runMany: parallel results
 * must be bit-identical to serial ones (every simulation is
 * self-contained), results must come back in spec order regardless of
 * completion order, and a throwing job must propagate cleanly instead
 * of deadlocking the pool.
 */

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "support/thread_pool.hh"
#include "workloads/workloads.hh"

using namespace adore;

TEST(ThreadPool, DefaultThreadCountIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadPoolRunsInline)
{
    // With one worker, parallelFor must execute on the calling thread in
    // index order — indistinguishable from a plain for loop.
    ThreadPool pool(1);
    std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    pool.parallelFor(8, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    std::vector<std::size_t> expect(8);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect);
}

TEST(ThreadPool, ExceptionPropagatesWithoutDeadlock)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    EXPECT_THROW(
        pool.parallelFor(64,
                         [&](std::size_t i) {
                             if (i == 10)
                                 throw std::runtime_error("job failure");
                             completed.fetch_add(1);
                         }),
        std::runtime_error);
    // Every non-throwing index still ran; the pool is still usable.
    EXPECT_EQ(completed.load(), 63);
    std::atomic<int> again{0};
    pool.parallelFor(16, [&](std::size_t) { again.fetch_add(1); });
    EXPECT_EQ(again.load(), 16);
}

TEST(ThreadPool, SubmitCarriesExceptionInFuture)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] {});
    auto bad = pool.submit([] { throw std::logic_error("boom"); });
    EXPECT_NO_THROW(ok.get());
    EXPECT_THROW(bad.get(), std::logic_error);
}

TEST(RunMany, MatchesSerialRunsBitIdentically)
{
    hir::Program gzip = workloads::make("gzip");
    hir::Program art = workloads::make("art");

    RunConfig base;
    base.compile.level = OptLevel::O2;
    base.compile.softwarePipelining = false;
    base.compile.reserveAdoreRegs = true;
    RunConfig with_adore = base;
    with_adore.adore = true;
    with_adore.adoreConfig = Experiment::defaultAdoreConfig();

    std::vector<RunSpec> specs = {
        {&gzip, base},
        {&gzip, with_adore},
        {&art, base},
        {&art, with_adore},
    };

    std::vector<RunMetrics> serial;
    for (const RunSpec &spec : specs)
        serial.push_back(Experiment::run(*spec.prog, spec.cfg));

    std::vector<RunMetrics> parallel = Experiment::runMany(specs, 4);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(parallel[i].cycles, serial[i].cycles) << "spec " << i;
        EXPECT_EQ(parallel[i].retired, serial[i].retired) << "spec " << i;
        EXPECT_EQ(parallel[i].dearMisses, serial[i].dearMisses)
            << "spec " << i;
        EXPECT_DOUBLE_EQ(parallel[i].cpi, serial[i].cpi) << "spec " << i;
        EXPECT_EQ(parallel[i].halted, serial[i].halted) << "spec " << i;
    }
    // Order sanity: ADORE runs are distinguishable from base runs, so a
    // completion-order shuffle would be caught here too.
    EXPECT_TRUE(parallel[1].adoreUsed);
    EXPECT_FALSE(parallel[0].adoreUsed);
}

TEST(RunMany, SingleJobFallbackWorks)
{
    hir::Program gzip = workloads::make("gzip");
    RunConfig cfg;
    cfg.compile.level = OptLevel::O2;
    std::vector<RunSpec> specs = {{&gzip, cfg}};
    std::vector<RunMetrics> out = Experiment::runMany(specs, 1);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].halted);
    EXPECT_GT(out[0].retired, 0u);
}

TEST(ThreadPool, DrainCompletesQueuedTasksThenRejectsSubmit)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 32; ++i) {
        futures.push_back(pool.submit([&] {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            ran.fetch_add(1);
        }));
    }
    pool.drain();
    // Every admitted task finished before drain() returned — a task is
    // either admitted (and runs) or rejected, never dropped.
    EXPECT_EQ(ran.load(), 32);
    EXPECT_TRUE(pool.draining());
    EXPECT_THROW(pool.submit([] {}), std::runtime_error);
    // Idempotent.
    pool.drain();
    for (auto &f : futures)
        EXPECT_NO_THROW(f.get());
}

TEST(ThreadPool, DrainRacingSubmitNeverLosesAdmittedTask)
{
    // The shutdown-while-queued race (run under TSan in CI): one thread
    // hammers submit() while another drains.  Every submit must either
    // be admitted (and its task must run) or throw — the admitted count
    // and the executed count must agree exactly.
    ThreadPool pool(4);
    std::atomic<int> admitted{0};
    std::atomic<int> executed{0};
    std::thread submitter([&] {
        for (int i = 0; i < 10'000; ++i) {
            try {
                pool.submit([&] { executed.fetch_add(1); });
                admitted.fetch_add(1);
            } catch (const std::runtime_error &) {
                break;  // drain won the race; admission is closed
            }
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    pool.drain();
    submitter.join();
    pool.drain();  // cover submits admitted after the first drain lost
    EXPECT_EQ(admitted.load(), executed.load());
}

TEST(ThreadPool, RequestCancelIsObservableFromTasks)
{
    ThreadPool pool(2);
    EXPECT_FALSE(pool.cancelRequested());
    std::atomic<int> bailed{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 4; ++i) {
        futures.push_back(pool.submit([&] {
            // Cooperative long-runner: poll the flag, bail when raised.
            while (!pool.cancelRequested())
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
            bailed.fetch_add(1);
        }));
    }
    pool.requestCancel();
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(bailed.load(), 4);
    EXPECT_TRUE(pool.cancelRequested());
}

TEST(RunManyChecked, IsolatesThrowingJobFromBatchMates)
{
    hir::Program gzip = workloads::make("gzip");
    RunConfig good;
    good.compile.level = OptLevel::O2;
    RunConfig bad = good;
    bad.testFailpoint = [] {
        throw std::runtime_error("synthetic workload failure");
    };
    std::vector<RunSpec> specs = {
        {&gzip, good},
        {&gzip, bad},
        {&gzip, good},
    };
    std::vector<RunOutcome> out = Experiment::runManyChecked(specs, 3);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_TRUE(out[0].ok);
    EXPECT_TRUE(out[2].ok);
    EXPECT_FALSE(out[1].ok);
    EXPECT_NE(out[1].error.find("synthetic workload failure"),
              std::string::npos);
    // The failure is structured, not a poisoned metric set.
    EXPECT_TRUE(out[0].metrics.halted);
    EXPECT_EQ(out[0].metrics.cycles, out[2].metrics.cycles);
}

TEST(RunManyChecked, DataBudgetKeepsLargeSpecsApartAndLetsSmallOnesPass)
{
    // Two swim runs exceed the in-flight data budget together, so the
    // second waits for the first while gzip, queued behind it, starts.
    hir::Program swim = workloads::make("swim");
    hir::Program gzip = workloads::make("gzip");
    ASSERT_GT(2 * Experiment::dataBytes(swim),
              Experiment::inFlightDataBytes);
    ASSERT_LE(Experiment::dataBytes(swim) + Experiment::dataBytes(gzip),
              Experiment::inFlightDataBytes);

    std::atomic<bool> secondSwimStarted{false};
    std::atomic<bool> gzipStarted{false};
    bool gzipRanBesideFirstSwim = false;
    bool swimsOverlapped = true;
    RunConfig cfg;
    cfg.compile.level = OptLevel::O2;
    cfg.maxCycles = 10'000;
    cfg.quietCycleLimit = true;
    RunConfig first = cfg, second = cfg, small = cfg;
    first.testFailpoint = [&] {
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!gzipStarted.load() &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        gzipRanBesideFirstSwim = gzipStarted.load();
        swimsOverlapped = secondSwimStarted.load();
    };
    second.testFailpoint = [&] { secondSwimStarted.store(true); };
    small.testFailpoint = [&] { gzipStarted.store(true); };

    std::vector<RunSpec> specs = {
        {&swim, first}, {&swim, second}, {&gzip, small}};
    std::vector<RunOutcome> out = Experiment::runManyChecked(specs, 2);
    for (const RunOutcome &o : out)
        EXPECT_TRUE(o.ok) << o.error;
    EXPECT_TRUE(gzipRanBesideFirstSwim);
    EXPECT_FALSE(swimsOverlapped);
    EXPECT_TRUE(secondSwimStarted.load());
}

TEST(RunManyChecked, NullProgramIsAStructuredFailure)
{
    std::vector<RunSpec> specs(1);
    specs[0].prog = nullptr;
    std::vector<RunOutcome> out = Experiment::runManyChecked(specs, 1);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FALSE(out[0].ok);
    EXPECT_FALSE(out[0].error.empty());
}

TEST(RunMany, ThrowingJobAggregatesAfterBatchCompletes)
{
    // Regression: a worker exception used to void the whole batch with
    // whatever exception happened to surface first.  Now every spec
    // still runs and runMany throws one aggregated, indexed error.
    hir::Program gzip = workloads::make("gzip");
    RunConfig good;
    good.compile.level = OptLevel::O2;
    RunConfig bad = good;
    bad.testFailpoint = [] {
        throw std::runtime_error("injected throwing workload");
    };
    std::vector<RunSpec> specs = {{&gzip, good}, {&gzip, bad}};
    try {
        Experiment::runMany(specs, 2);
        FAIL() << "runMany must throw when a spec fails";
    } catch (const std::runtime_error &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("spec 1"), std::string::npos) << what;
        EXPECT_NE(what.find("injected throwing workload"),
                  std::string::npos)
            << what;
    }
}
