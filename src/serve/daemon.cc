#include "serve/daemon.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "observe/exporters.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace adore::serve
{

namespace
{

/** The injected worker-abort fault travels the real exception path so
 *  crash isolation is tested end-to-end, but stays distinguishable
 *  from a genuine harness exception in the failure record. */
struct InjectedAbort : std::runtime_error
{
    InjectedAbort()
        : std::runtime_error("injected worker abort (service fault "
                             "channel)")
    {
    }
};

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

const char *
jobStateName(JobState state)
{
    switch (state) {
    case JobState::Queued:
        return "queued";
    case JobState::Running:
        return "running";
    case JobState::Done:
        return "done";
    case JobState::DeadLetter:
        return "dead_letter";
    }
    return "unknown";
}

Daemon::Daemon(const DaemonConfig &config)
    : config_(config), cache_(config.cacheCapacity),
      pool_(config.workers),
      shards_(config.shards ? config.shards : 1)
{
    if (config_.faults.any())
        faults_.emplace(config_.faults);
    for (unsigned i = 0; i < pool_.threadCount(); ++i)
        pool_.submit([this] { workerLoop(); });
    monitor_ = std::thread([this] { monitorLoop(); });
}

Daemon::~Daemon()
{
    shutdownNow();
}

Daemon::SubmitResult
Daemon::submit(const JobRequest &req)
{
    SubmitResult res;
    if (draining_.load(std::memory_order_acquire)) {
        rejectedDraining_.fetch_add(1, std::memory_order_relaxed);
        res.error = "draining";
        return res;
    }

    // Validate the workload before taking the queue lock: building the
    // program is the expensive part of admission, and an invalid
    // request must never consume queue capacity.
    auto job = std::make_unique<Job>();
    job->req = req;
    if (!req.workload.empty()) {
        const workloads::WorkloadInfo *info =
            workloads::registry().find(req.workload);
        if (!info) {
            rejectedInvalid_.fetch_add(1, std::memory_order_relaxed);
            res.error = "invalid_request";
            res.detail = "unknown workload \"" + req.workload + "\"";
            return res;
        }
        job->prog = info->build();
    } else {
        std::string err;
        if (!workloads::parseProgram(req.kernel, job->prog, err)) {
            rejectedInvalid_.fetch_add(1, std::memory_order_relaxed);
            res.error = "invalid_request";
            res.detail = "kernel: " + err;
            return res;
        }
    }

    job->resolvedMaxCycles =
        req.maxCycles ? req.maxCycles : config_.defaultMaxCycles;
    job->maxAttempts =
        req.maxAttempts ? req.maxAttempts : config_.maxAttempts;
    if (job->maxAttempts == 0)
        job->maxAttempts = 1;
    job->deadlineMs =
        req.deadlineMs ? req.deadlineMs : config_.defaultDeadlineMs;
    job->key = CacheKey::fromCanonical(canonicalKey(
        req, resolveTier(req), job->resolvedMaxCycles));
    res.cacheKey = job->key.hex();

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (draining_.load(std::memory_order_acquire)) {
            rejectedDraining_.fetch_add(1, std::memory_order_relaxed);
            res.error = "draining";
            res.cacheKey.clear();
            return res;
        }
        if (queuedCount_ + running_.size() >= config_.admissionLimit) {
            rejectedFull_.fetch_add(1, std::memory_order_relaxed);
            res.error = "queue_full";
            res.cacheKey.clear();
            // Hint: roughly one backoff window; callers with better
            // knowledge of their own load are free to wait longer.
            res.retryAfterMs =
                config_.backoffBaseMs ? config_.backoffBaseMs * 4 : 20;
            return res;
        }
        job->id = nextId_++;
        res.id = job->id;
        Job *raw = job.get();
        shards_[raw->id % shards_.size()].push_back(raw);
        ++queuedCount_;
        jobs_.emplace(raw->id, std::move(job));
    }
    submitted_.fetch_add(1, std::memory_order_relaxed);
    workCv_.notify_one();
    res.ok = true;
    return res;
}

Daemon::Job *
Daemon::popEligibleLocked(Clock::time_point now)
{
    // Round-robin over shards, oldest-first within a shard; a job
    // still inside its backoff window is skipped, not reordered.
    for (auto &shard : shards_) {
        for (std::size_t i = 0; i < shard.size(); ++i) {
            Job *job = shard[i];
            if (job->notBefore > now)
                continue;
            shard.erase(shard.begin() +
                        static_cast<std::ptrdiff_t>(i));
            return job;
        }
    }
    return nullptr;
}

void
Daemon::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        if (stopWorkers_ && queuedCount_ == 0)
            break;
        Job *job = popEligibleLocked(Clock::now());
        if (!job) {
            // Timed wait doubles as the backoff poll: a job whose
            // notBefore lies in the future becomes eligible without
            // anyone signalling.
            workCv_.wait_for(lock, std::chrono::milliseconds(1));
            continue;
        }

        // Injected queue stall: requeue unexecuted (still Queued, no
        // attempt consumed).  maxStallsPerJob bounds the channel so a
        // job cannot livelock here.
        if (faults_ &&
            faults_->queueStalls(job->key.hi, job->attempt + 1,
                                 job->stallOccurrence)) {
            ++job->stallOccurrence;
            stallRequeues_.fetch_add(1, std::memory_order_relaxed);
            shards_[job->id % shards_.size()].push_back(job);
            continue;
        }

        job->state = JobState::Running;
        ++job->attempt;
        --queuedCount_;
        job->cancel.store(false, std::memory_order_release);
        job->timedOut.store(false, std::memory_order_release);
        job->deadline = Clock::now() +
                        std::chrono::milliseconds(job->deadlineMs);
        running_.push_back(job);

        lock.unlock();
        runAttempt(*job);
        lock.lock();
    }
}

void
Daemon::runAttempt(Job &job)
{
    FailureRecord fail;
    fail.attempt = job.attempt;
    bool ok = false;

    try {
        if (faults_ && faults_->workerAborts(job.key.hi, job.attempt))
            throw InjectedAbort();

        std::function<void(std::string &)> corruptor;
        if (faults_ && config_.faults.cacheCorruptRate > 0) {
            corruptor = [this, &job](std::string &payload) {
                std::size_t index = 0;
                std::uint8_t mask = 0;
                if (faults_->corruptCacheRead(job.key.hi, job.attempt,
                                              payload.size(), index,
                                              mask)) {
                    payload[index] = static_cast<char>(
                        static_cast<std::uint8_t>(payload[index]) ^
                        mask);
                }
            };
        }
        std::string payload;
        if (cache_.lookup(job.key, payload, corruptor)) {
            job.resultJson = std::move(payload);
            job.cacheHit = true;
            ok = true;
        } else {
            RunConfig cfg = buildRunConfig(
                job.req, &job.cancel, job.resolvedMaxCycles,
                config_.cancelCheckPeriod);
            RunMetrics metrics = Experiment::run(job.prog, cfg);
            if (metrics.stopRequested) {
                fail.code =
                    job.timedOut.load(std::memory_order_acquire)
                        ? "timeout_host"
                        : "cancelled_shutdown";
                fail.detail = "run cancelled after " +
                              std::to_string(metrics.cycles) +
                              " simulated cycles";
            } else if (metrics.cycles == 0 ||
                       metrics.retired == 0 ||
                       !std::isfinite(metrics.cpi)) {
                fail.code = "invariant_violation";
                fail.detail =
                    "degenerate run: cycles=" +
                    std::to_string(metrics.cycles) +
                    " retired=" + std::to_string(metrics.retired);
            } else {
                job.resultJson = Experiment::metricsJson(metrics);
                job.cacheHit = false;
                cache_.insert(job.key, job.resultJson);
                ok = true;
            }
        }
    } catch (const InjectedAbort &e) {
        fail.code = "injected_worker_abort";
        fail.detail = e.what();
    } catch (const std::exception &e) {
        fail.code = "worker_exception";
        fail.detail = e.what();
    } catch (...) {
        fail.code = "worker_exception";
        fail.detail = "unknown exception";
    }

    finishAttempt(job, ok, std::move(fail));
}

void
Daemon::finishAttempt(Job &job, bool ok, FailureRecord failure)
{
    bool terminal = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < running_.size(); ++i) {
            if (running_[i] == &job) {
                running_.erase(running_.begin() +
                               static_cast<std::ptrdiff_t>(i));
                break;
            }
        }
        if (ok) {
            job.state = JobState::Done;
            completed_.fetch_add(1, std::memory_order_relaxed);
            releaseLocked(job);
            terminal = true;
        } else {
            if (failure.code == "timeout_host")
                timeouts_.fetch_add(1, std::memory_order_relaxed);
            if (failure.code == "cancelled_shutdown")
                cancelled_.fetch_add(1, std::memory_order_relaxed);
            bool noRetry = failure.code == "cancelled_shutdown" ||
                           shuttingDown_;
            job.failures.push_back(std::move(failure));
            if (noRetry || job.attempt >= job.maxAttempts) {
                job.state = JobState::DeadLetter;
                deadLettered_.fetch_add(1, std::memory_order_relaxed);
                releaseLocked(job);
                terminal = true;
            } else {
                requeueLocked(job);
            }
        }
    }
    if (terminal)
        doneCv_.notify_all();
    else
        workCv_.notify_one();
}

void
Daemon::requeueLocked(Job &job)
{
    job.state = JobState::Queued;
    job.notBefore =
        Clock::now() + std::chrono::milliseconds(backoffMs(job));
    shards_[job.id % shards_.size()].push_back(&job);
    ++queuedCount_;
    retries_.fetch_add(1, std::memory_order_relaxed);
}

void
Daemon::releaseLocked(Job &job)
{
    // Swap with empties: assigning an empty string keeps the old
    // buffer's capacity.  A job left in jobs_ for status queries then
    // costs its record, not its program.
    hir::Program program;
    std::swap(job.prog, program);
    std::string().swap(job.req.kernel);
}

std::uint64_t
Daemon::backoffMs(const Job &job) const
{
    // base * 2^(failedAttempt-1), capped, plus a deterministic
    // per-(job, attempt) jitter in [0, base] so retry herds of
    // identical jobs spread out reproducibly.
    std::uint64_t base = config_.backoffBaseMs ? config_.backoffBaseMs : 1;
    unsigned shift = job.attempt > 0 ? job.attempt - 1 : 0;
    if (shift > 20)
        shift = 20;
    std::uint64_t delay = base << shift;
    if (delay > config_.backoffCapMs)
        delay = config_.backoffCapMs;
    std::uint64_t jitter =
        splitmix64(job.key.hi ^ (0x9e3779b97f4a7c15ULL * job.attempt)) %
        (base + 1);
    return delay + jitter;
}

void
Daemon::monitorLoop()
{
    // Daemon-level watchdog layer: the simulated runtime's own watchdog
    // guards against a wedged *virtual* optimizer; this thread guards
    // against a wedged *host* attempt by raising the job's cooperative
    // cancel flag once its wall-clock deadline passes.
    while (!stopMonitor_.load(std::memory_order_acquire)) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            Clock::time_point now = Clock::now();
            for (Job *job : running_) {
                if (job->deadlineMs == 0 || now < job->deadline)
                    continue;
                if (!job->cancel.load(std::memory_order_acquire)) {
                    job->timedOut.store(true,
                                        std::memory_order_release);
                    job->cancel.store(true, std::memory_order_release);
                }
            }
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(config_.monitorPeriodMs));
    }
}

std::optional<JobStatus>
Daemon::status(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    return snapshotLocked(*it->second);
}

JobStatus
Daemon::snapshotLocked(const Job &job) const
{
    JobStatus s;
    s.id = job.id;
    s.state = job.state;
    s.attempts = job.attempt;
    s.stallsInjected = job.stallOccurrence;
    s.cacheHit = job.cacheHit;
    s.cacheKey = job.key.hex();
    if (job.state == JobState::Done)
        s.resultJson = job.resultJson;
    s.failures = job.failures;
    return s;
}

bool
Daemon::wait(std::uint64_t id, std::uint64_t timeoutMs)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto terminal = [&]() {
        auto it = jobs_.find(id);
        if (it == jobs_.end())
            return true;  // unknown ids never become terminal; bail
        JobState st = it->second->state;
        return st == JobState::Done || st == JobState::DeadLetter;
    };
    return doneCv_.wait_for(lock, std::chrono::milliseconds(timeoutMs),
                            terminal);
}

bool
Daemon::allTerminalLocked() const
{
    return queuedCount_ == 0 && running_.empty();
}

void
Daemon::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    doneCv_.wait(lock, [this] { return allTerminalLocked(); });
}

std::vector<JobStatus>
Daemon::deadLetters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<JobStatus> out;
    for (const auto &[id, job] : jobs_) {
        if (job->state == JobState::DeadLetter)
            out.push_back(snapshotLocked(*job));
    }
    // Map order is arbitrary; report in submission order.
    std::sort(out.begin(), out.end(),
              [](const JobStatus &a, const JobStatus &b) {
                  return a.id < b.id;
              });
    return out;
}

observe::MetricsRegistry
Daemon::metrics() const
{
    observe::MetricsRegistry reg;
    auto count = [](const std::atomic<std::uint64_t> &c) {
        return static_cast<double>(c.load(std::memory_order_relaxed));
    };
    reg.set("serve.jobs.submitted", count(submitted_),
            "jobs admitted to the queue");
    reg.set("serve.jobs.completed", count(completed_),
            "jobs that reached Done");
    reg.set("serve.jobs.dead_letter", count(deadLettered_),
            "jobs that exhausted retries or were shut down");
    reg.set("serve.jobs.retries", count(retries_),
            "failed attempts that were requeued");
    reg.set("serve.jobs.timeouts", count(timeouts_),
            "attempts cancelled by the deadline monitor");
    reg.set("serve.jobs.cancelled_shutdown", count(cancelled_),
            "attempts cancelled by shutdown");
    reg.set("serve.jobs.rejected_full", count(rejectedFull_),
            "submissions load-shed at the admission limit");
    reg.set("serve.jobs.rejected_invalid", count(rejectedInvalid_),
            "submissions rejected as malformed");
    reg.set("serve.jobs.rejected_draining", count(rejectedDraining_),
            "submissions rejected during drain");
    reg.set("serve.queue.stalls_injected", count(stallRequeues_),
            "injected queue-stall requeues (fault channel)");
    reg.set("serve.drains", count(drains_), "graceful drains");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        reg.set("serve.queue.depth",
                static_cast<double>(queuedCount_),
                "jobs currently queued");
        reg.set("serve.jobs.running",
                static_cast<double>(running_.size()),
                "attempts currently executing");
    }
    ResultCacheStats cs = cache_.stats();
    reg.set("serve.cache.hits", static_cast<double>(cs.hits),
            "verified result-cache hits");
    reg.set("serve.cache.misses", static_cast<double>(cs.misses),
            "result-cache misses (incl. corruption fallbacks)");
    reg.set("serve.cache.inserts", static_cast<double>(cs.inserts),
            "result-cache insertions");
    reg.set("serve.cache.evictions", static_cast<double>(cs.evictions),
            "LRU evictions under capacity");
    reg.set("serve.cache.corruptions_detected",
            static_cast<double>(cs.corruptionsDetected),
            "checksum mismatches caught on read");
    reg.set("serve.cache.size", static_cast<double>(cache_.size()),
            "resident result-cache entries");
    reg.set("serve.cache.capacity",
            static_cast<double>(cache_.capacity()),
            "result-cache capacity");
    if (faults_) {
        fault::ServiceFaultStats fs = faults_->stats();
        reg.set("serve.fault.queue_stalls",
                static_cast<double>(fs.queueStalls),
                "queue-stall channel firings");
        reg.set("serve.fault.worker_aborts",
                static_cast<double>(fs.workerAborts),
                "worker-abort channel firings");
        reg.set("serve.fault.cache_corruptions",
                static_cast<double>(fs.cacheCorruptions),
                "cache-corruption channel firings");
    }
    reg.set("serve.config.admission_limit",
            static_cast<double>(config_.admissionLimit),
            "max queued + running jobs");
    reg.set("serve.config.workers",
            static_cast<double>(pool_.threadCount()),
            "worker lanes");
    reg.set("serve.config.shards",
            static_cast<double>(shards_.size()), "queue shards");
    return reg;
}

std::string
Daemon::metricsPrometheus() const
{
    return observe::prometheusText(metrics());
}

void
Daemon::drain()
{
    std::lock_guard<std::mutex> lifecycle(lifecycleMutex_);
    if (machineryStopped_)
        return;
    draining_.store(true, std::memory_order_release);
    drains_.fetch_add(1, std::memory_order_relaxed);
    waitIdle();
    stopMachinery();
    if (!config_.metricsFlushPath.empty())
        observe::writeFile(config_.metricsFlushPath,
                           metricsPrometheus());
}

void
Daemon::shutdownNow()
{
    std::lock_guard<std::mutex> lifecycle(lifecycleMutex_);
    if (machineryStopped_)
        return;
    draining_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shuttingDown_ = true;
        // Queued jobs are accounted for, not dropped: each becomes a
        // dead letter with a machine-readable shutdown record.
        for (auto &shard : shards_) {
            for (Job *job : shard) {
                FailureRecord rec;
                rec.attempt = job->attempt;
                rec.code = "cancelled_shutdown";
                rec.detail = "queued at shutdown";
                job->failures.push_back(std::move(rec));
                job->state = JobState::DeadLetter;
                deadLettered_.fetch_add(1, std::memory_order_relaxed);
                cancelled_.fetch_add(1, std::memory_order_relaxed);
                releaseLocked(*job);
                --queuedCount_;
            }
            shard.clear();
        }
        for (Job *job : running_)
            job->cancel.store(true, std::memory_order_release);
    }
    doneCv_.notify_all();
    waitIdle();
    stopMachinery();
    if (!config_.metricsFlushPath.empty())
        observe::writeFile(config_.metricsFlushPath,
                           metricsPrometheus());
}

void
Daemon::stopMachinery()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopWorkers_ = true;
    }
    workCv_.notify_all();
    pool_.drain();
    stopMonitor_.store(true, std::memory_order_release);
    if (monitor_.joinable())
        monitor_.join();
    machineryStopped_ = true;
}

} // namespace adore::serve
