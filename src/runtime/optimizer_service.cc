#include "runtime/optimizer_service.hh"

#include <chrono>

#include "runtime/adore.hh"

namespace adore
{

OptimizerService::OptimizerService(AdoreRuntime &rt)
    : rt_(rt),
      sampleQueue_(rt.config_.sampleQueueCapacity),
      tickQueue_(256),
      commitReqQueue_(32),
      commitAckQueue_(64),
      unpatchReqQueue_(32),
      unpatchAckQueue_(64)
{
}

OptimizerService::~OptimizerService()
{
    shutdown();
}

bool
OptimizerService::freeRunning() const
{
    return rt_.config_.mode == OptimizerMode::FreeRunning;
}

std::uint64_t
OptimizerService::monotonicNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
OptimizerService::start()
{
    if (running_)
        return;
    {
        std::lock_guard<std::mutex> g(wakeMutex_);
        stop_ = false;
    }
    running_ = true;
    worker_ = std::thread([this] { run(); });
}

void
OptimizerService::shutdown()
{
    if (worker_.joinable()) {
        {
            std::lock_guard<std::mutex> g(wakeMutex_);
            stop_ = true;
            wakeCv_.notify_all();
        }
        worker_.join();
    }
    running_ = false;

    // Single-threaded from here (the join is the happens-before edge):
    // settle the in-flight protocol so the stats read consistently.
    // Acks the worker never consumed are applied — the patches they
    // describe really happened.  Requests it queued but main never
    // applied are discarded and counted: the run is over, patching now
    // would mutate code nothing will execute.
    drainAcks();
    CommitRequest creq;
    while (commitReqQueue_.tryPop(creq)) {
        for (const CommitPlanItem &item : creq.items)
            commitPending_.erase(item.trace.startAddr);
        ++requestsDropped_;
    }
    UnpatchRequest ureq;
    while (unpatchReqQueue_.tryPop(ureq)) {
        for (Addr h : ureq.heads)
            unpatchPending_.erase(h);
        ++requestsDropped_;
    }
    std::vector<Sample> batch;
    while (sampleQueue_.tryPop(batch)) {
    }
    TickMsg tick;
    while (tickQueue_.tryPop(tick)) {
    }
}

// --------------------------------------------------------------------
// Worker thread
// --------------------------------------------------------------------

void
OptimizerService::run()
{
    std::unique_lock<std::mutex> lk(wakeMutex_);
    if (freeRunning())
        runFree(lk);
    else
        runBarrier(lk);
}

void
OptimizerService::runBarrier(std::unique_lock<std::mutex> &lk)
{
    // The poll body runs here, on the worker, while the main thread
    // blocks in poll().  Holding wakeMutex_ across the body and the
    // condvar handshake orders every access in both directions, so the
    // execution is bit-identical to Synchronous mode.
    for (;;) {
        wakeCv_.wait(lk, [this] { return stop_ || pollRequested_; });
        if (pollRequested_) {
            drainSamples();
            noteQueueDrops();
            rt_.onPoll(pollNow_);
            ++barrierPolls_;
            pollRequested_ = false;
            doneCv_.notify_all();
            continue;  // re-evaluate stop_ after finishing the poll
        }
        break;  // stop_ with no poll pending
    }
}

void
OptimizerService::runFree(std::unique_lock<std::mutex> &lk)
{
    for (;;) {
        wakeCv_.wait(lk, [this] {
            return stop_ || !tickQueue_.empty() ||
                   !commitAckQueue_.empty() || !unpatchAckQueue_.empty();
        });
        bool stopping = stop_;
        lk.unlock();

        drainAcks();
        TickMsg tick;
        while (tickQueue_.tryPop(tick)) {
            drainAcks();
            processTick(tick);
        }

        lk.lock();
        if (stopping && tickQueue_.empty())
            break;
    }
}

void
OptimizerService::drainSamples()
{
    std::vector<Sample> window;
    while (sampleQueue_.tryPop(window))
        rt_.ueb_.pushWindow(std::move(window));
}

void
OptimizerService::noteQueueDrops()
{
    std::uint64_t seen = dropCounter_.load(std::memory_order_acquire);
    if (seen == lastDropSeen_)
        return;
    std::uint64_t delta = seen - lastDropSeen_;
    lastDropSeen_ = seen;
    if (rt_.events_) {
        rt_.events_->emit(observe::OptimizerQueueEvent{
            delta, static_cast<std::uint64_t>(sampleQueue_.size())});
    }
}

void
OptimizerService::processTick(const TickMsg &tick)
{
    if (rt_.events_)
        rt_.events_->setNow(tick.now);
    if (rt_.guardrails_)
        rt_.guardrails_->beginPoll();

    drainSamples();
    noteQueueDrops();
    rt_.consumeWindows(tick.now);

    if (tick.haveFaults && rt_.events_) {
        // The tick snapshots the main-owned channels; merge in the
        // worker-owned ones (patch failures, optimizer stalls), which
        // are drawn on this thread and safe to read live.
        fault::FaultStats fs = tick.mainFaults;
        const fault::FaultStats &live = rt_.config_.faultPlan->stats();
        fs.patchesFailed = live.patchesFailed;
        fs.optimizerStalls = live.optimizerStalls;
        rt_.emitFaultDeltas(fs);
    }
    if (rt_.guardrails_) {
        rt_.finishPollGuardrails(tick.prefetchIssuedDelta,
                                 tick.prefetchDroppedDelta,
                                 tick.hwIssuedDelta,
                                 tick.hwDroppedDelta);
    }
    ++ticksProcessed_;
}

void
OptimizerService::drainAcks()
{
    CommitAck cack;
    while (commitAckQueue_.tryPop(cack))
        applyCommitAck(cack);
    UnpatchAck uack;
    while (unpatchAckQueue_.tryPop(uack))
        applyUnpatchAck(uack);
}

void
OptimizerService::applyCommitAck(const CommitAck &ack)
{
    AdoreRuntime::OptimizedBatch batch;
    batch.cpiBefore = ack.cpiBefore;
    for (const CommitAckItem &item : ack.items) {
        commitPending_.erase(item.head);
        switch (item.outcome) {
          case CommitOutcome::Patched:
            shadowPatched_.insert(item.head);
            batch.traces.push_back(
                {item.head, item.base,
                 item.base + item.totalBundles * isa::bundleBytes});
            ++rt_.stats_.tracesPatched;
            if (rt_.events_) {
                rt_.events_->emit(observe::TracePatchedEvent{
                    item.head, item.base, item.bodyBundles,
                    item.initBundles});
            }
            break;
          case CommitOutcome::PoolFull:
            ++rt_.stats_.tracesRejectedPoolFull;
            if (rt_.guardrails_) {
                rt_.guardrails_->notePoolExhausted(item.head);
            } else if (rt_.events_) {
                rt_.events_->emit(observe::GuardrailEvent{
                    "pool-exhausted", item.head,
                    static_cast<std::uint64_t>(item.totalBundles)});
            }
            break;
          case CommitOutcome::Stale:
            ++rt_.stats_.tracesCommitStale;
            break;
        }
    }
    if (!batch.traces.empty()) {
        ++rt_.stats_.phasesOptimized;
        batch.patchedCount = batch.traces.size();
        rt_.batches_.push_back(std::move(batch));
    }
}

void
OptimizerService::applyUnpatchAck(const UnpatchAck &ack)
{
    AdoreRuntime::OptimizedBatch *batch =
        ack.batchIndex < rt_.batches_.size() ? &rt_.batches_[ack.batchIndex]
                                             : nullptr;
    std::uint64_t done = 0;
    for (std::size_t i = 0; i < ack.heads.size(); ++i) {
        Addr head = ack.heads[i];
        unpatchPending_.erase(head);
        if (!ack.done[i])
            continue;
        ++done;
        shadowPatched_.erase(head);
        ++rt_.stats_.tracesUnpatched;
        if (rt_.events_)
            rt_.events_->emit(observe::TraceRevertedEvent{head});
        if (rt_.guardrails_)
            rt_.guardrails_->noteTraceReverted(head);
        else
            rt_.blacklist_.insert(head);
        if (batch && batch->patchedCount > 0)
            --batch->patchedCount;
    }
    if (rt_.guardrails_ && !ack.heads.empty()) {
        if (ack.kind == UnpatchKind::Staged && done)
            rt_.guardrails_->noteStagedRevert(ack.heads.front());
        else if (ack.kind == UnpatchKind::Full)
            rt_.guardrails_->noteFullRevert(ack.heads.front(), done);
    }
    // The batch is reverted when its last patched head goes.
    if (batch && batch->patchedCount == 0 && !batch->reverted) {
        batch->reverted = true;
        ++rt_.stats_.phasesReverted;
    }
}

bool
OptimizerService::shadowPatched(Addr head) const
{
    return shadowPatched_.count(head) != 0 ||
           commitPending_.count(head) != 0;
}

bool
OptimizerService::shadowRevertible(Addr head) const
{
    return shadowPatched_.count(head) != 0 &&
           unpatchPending_.count(head) == 0;
}

void
OptimizerService::requestCommit(double cpi_before,
                                std::vector<CommitPlanItem> items)
{
    CommitRequest req;
    req.token = ++tokenCounter_;
    req.cpiBefore = cpi_before;
    req.epoch = rt_.cpu_.code().patchEpoch();
    for (const CommitPlanItem &item : items)
        commitPending_.insert(item.trace.startAddr);
    req.items = std::move(items);
    if (!commitReqQueue_.tryPush(std::move(req))) {
        // tryPush leaves the value untouched on failure: roll back the
        // pending marks so the heads can be retried on a later phase.
        for (const CommitPlanItem &item : req.items)
            commitPending_.erase(item.trace.startAddr);
        ++requestsDropped_;
    }
}

void
OptimizerService::requestUnpatch(std::size_t batch_index,
                                 std::vector<Addr> heads, UnpatchKind kind)
{
    UnpatchRequest req;
    req.token = ++tokenCounter_;
    req.batchIndex = batch_index;
    req.kind = kind;
    for (Addr h : heads)
        unpatchPending_.insert(h);
    req.heads = std::move(heads);
    if (!unpatchReqQueue_.tryPush(std::move(req))) {
        for (Addr h : req.heads)
            unpatchPending_.erase(h);
        ++requestsDropped_;
    }
}

void
OptimizerService::requestDoubleWindow()
{
    doubleWindowRequests_.fetch_add(1, std::memory_order_release);
}

void
OptimizerService::publishSamplingInterval(Cycle interval)
{
    samplingIntervalWanted_.store(interval, std::memory_order_release);
}

void
OptimizerService::beginPhase()
{
    phaseSeqLocal_ = phaseSeq_.fetch_add(1, std::memory_order_acq_rel) + 1;
    phaseStartNs_.store(monotonicNs(), std::memory_order_release);
}

void
OptimizerService::endPhase()
{
    phaseStartNs_.store(0, std::memory_order_release);
}

bool
OptimizerService::cancelled() const
{
    return cancelSeq_.load(std::memory_order_acquire) == phaseSeqLocal_;
}

std::unique_lock<std::mutex>
OptimizerService::lockPatches()
{
    return std::unique_lock<std::mutex>(patchMutex_);
}

// --------------------------------------------------------------------
// Main thread
// --------------------------------------------------------------------

bool
OptimizerService::enqueueBatch(const std::vector<Sample> &ssb)
{
    if (sampleQueue_.tryPush(ssb)) {
        ++batchesEnqueued_;
        return true;
    }
    // Consumer behind: the caller (Sampler) accounts the drop on its
    // side; this counter feeds the worker's OptimizerQueueEvent.
    dropCounter_.fetch_add(1, std::memory_order_release);
    return false;
}

void
OptimizerService::poll(Cycle now)
{
    if (!running_)
        return;

    if (!freeRunning()) {
        // Barrier: hand the poll to the worker and wait until it is
        // done.  The two condvar edges order every access both ways.
        std::unique_lock<std::mutex> lk(wakeMutex_);
        pollNow_ = now;
        pollRequested_ = true;
        wakeCv_.notify_all();
        doneCv_.wait(lk, [this] { return !pollRequested_; });
        return;
    }

    // Free-running: publish this poll's observations as a tick, apply
    // whatever the worker asked for, and run the host watchdog.
    TickMsg tick;
    tick.now = now;
    const auto &mem = rt_.cpu_.caches().stats();
    pendingIssuedDelta_ += mem.prefetchesIssued - lastPrefIssued_;
    pendingDroppedDelta_ += mem.prefetchesDropped - lastPrefDropped_;
    lastPrefIssued_ = mem.prefetchesIssued;
    lastPrefDropped_ = mem.prefetchesDropped;
    tick.prefetchIssuedDelta = pendingIssuedDelta_;
    tick.prefetchDroppedDelta = pendingDroppedDelta_;
    if (const HwPrefetchEngine *hw = rt_.cpu_.caches().hwPrefetch()) {
        // The engine is main-thread-owned; snapshot its issue/drop
        // counters here so the worker's guardrail arbitration never
        // reads them live.
        const HwPrefetchStats &hs = hw->stats();
        pendingHwIssuedDelta_ += hs.issued() - lastHwIssued_;
        pendingHwDroppedDelta_ += hs.dropped() - lastHwDropped_;
        lastHwIssued_ = hs.issued();
        lastHwDropped_ = hs.dropped();
        tick.hwIssuedDelta = pendingHwIssuedDelta_;
        tick.hwDroppedDelta = pendingHwDroppedDelta_;
    }
    if (rt_.config_.faultPlan) {
        // Copy only the main-owned channels field by field: the worker
        // updates its own channels (patch/stall) concurrently and the
        // snapshot must not touch those locations.
        tick.haveFaults = true;
        const fault::FaultStats &fs = rt_.config_.faultPlan->stats();
        tick.mainFaults.batchesDropped = fs.batchesDropped;
        tick.mainFaults.batchesDuplicated = fs.batchesDuplicated;
        tick.mainFaults.dearAliased = fs.dearAliased;
        tick.mainFaults.countersJittered = fs.countersJittered;
        tick.mainFaults.btbCorrupted = fs.btbCorrupted;
        tick.mainFaults.memFillsJittered = fs.memFillsJittered;
        tick.mainFaults.busSqueezes = fs.busSqueezes;
    }
    if (tickQueue_.tryPush(std::move(tick))) {
        pendingIssuedDelta_ = 0;
        pendingDroppedDelta_ = 0;
        pendingHwIssuedDelta_ = 0;
        pendingHwDroppedDelta_ = 0;
    } else {
        ++ticksDropped_;  // deltas carry over to the next tick
    }

    applyRequests();
    applySamplerMailbox();
    watchdogPoll();

    {
        std::lock_guard<std::mutex> g(wakeMutex_);
        wakeCv_.notify_all();
    }
}

void
OptimizerService::applyRequests()
{
    if (commitReqQueue_.empty() && unpatchReqQueue_.empty())
        return;
    // The poll hook is a safe point: no bundle is mid-execution, so
    // patching (and the pool reallocation inside it) cannot invalidate
    // a pointer the interpreter still holds.  The mutex excludes the
    // worker's code-image reads (trace selection).
    std::lock_guard<std::mutex> g(patchMutex_);
    CodeImage &code = rt_.cpu_.code();

    CommitRequest creq;
    while (commitReqQueue_.tryPop(creq)) {
        if (code.patchEpoch() != creq.epoch)
            ++epochStale_;  // raced a patch; per-head checks decide
        CommitAck ack;
        ack.token = creq.token;
        ack.cpiBefore = creq.cpiBefore;
        ack.items.reserve(creq.items.size());
        for (CommitPlanItem &item : creq.items) {
            CommitAckItem out;
            out.head = item.trace.startAddr;
            out.bodyBundles =
                static_cast<std::uint32_t>(item.trace.bundles.size());
            out.initBundles =
                static_cast<std::uint32_t>(item.initBundles.size());
            out.totalBundles =
                item.initBundles.size() + item.trace.bundles.size() + 1;
            if (code.isPatched(item.trace.startAddr)) {
                out.outcome = CommitOutcome::Stale;
                ++commitsStale_;
            } else {
                Addr base =
                    rt_.writeTraceToPool(item.trace, item.initBundles);
                if (base == CodeImage::badAddr) {
                    out.outcome = CommitOutcome::PoolFull;
                } else {
                    out.outcome = CommitOutcome::Patched;
                    out.base = base;
                    rt_.cpu_.chargeCycles(rt_.config_.patchCyclesPerTrace);
                    ++commitsApplied_;
                }
            }
            ack.items.push_back(out);
        }
        if (!commitAckQueue_.tryPush(std::move(ack)))
            ++acksLost_;
    }

    UnpatchRequest ureq;
    while (unpatchReqQueue_.tryPop(ureq)) {
        UnpatchAck ack;
        ack.token = ureq.token;
        ack.batchIndex = ureq.batchIndex;
        ack.kind = ureq.kind;
        ack.heads = std::move(ureq.heads);
        ack.done.assign(ack.heads.size(), false);
        for (std::size_t i = 0; i < ack.heads.size(); ++i) {
            if (!code.isPatched(ack.heads[i]))
                continue;
            code.unpatch(ack.heads[i]);
            rt_.cpu_.chargeCycles(rt_.config_.patchCyclesPerTrace);
            ack.done[i] = true;
        }
        if (!unpatchAckQueue_.tryPush(std::move(ack)))
            ++acksLost_;
    }
}

void
OptimizerService::applySamplerMailbox()
{
    std::uint64_t want =
        doubleWindowRequests_.load(std::memory_order_acquire);
    while (appliedDoubleWindows_ < want) {
        rt_.sampler_.doubleWindow();
        ++appliedDoubleWindows_;
    }
    Cycle interval = samplingIntervalWanted_.load(std::memory_order_acquire);
    if (interval && rt_.sampler_.interval() != interval)
        rt_.sampler_.setInterval(interval);
}

void
OptimizerService::watchdogPoll()
{
    std::uint64_t seq = phaseSeq_.load(std::memory_order_acquire);
    std::uint64_t start = phaseStartNs_.load(std::memory_order_acquire);
    if (!start)
        return;  // no phase in flight
    if (phaseSeq_.load(std::memory_order_acquire) != seq)
        return;  // phase boundary raced the read; recheck next poll
    if (cancelSeq_.load(std::memory_order_acquire) == seq)
        return;  // already cancelled
    if (monotonicNs() - start <= rt_.config_.watchdogDeadlineNs)
        return;
    cancelSeq_.store(seq, std::memory_order_release);
    hostCancels_.fetch_add(1, std::memory_order_relaxed);
}

OptimizerServiceStats
OptimizerService::statsSnapshot() const
{
    OptimizerServiceStats s;
    s.batchesEnqueued = batchesEnqueued_;
    s.batchesDropped = dropCounter_.load(std::memory_order_acquire);
    s.ticksDropped = ticksDropped_;
    s.requestsDropped = requestsDropped_;
    s.acksLost = acksLost_;
    s.ticksProcessed = ticksProcessed_;
    s.barrierPolls = barrierPolls_;
    s.commitsApplied = commitsApplied_;
    s.commitsStale = commitsStale_;
    s.epochStaleRequests = epochStale_;
    s.watchdogHostCancels = hostCancels_.load(std::memory_order_acquire);
    return s;
}

} // namespace adore
