#include "comet/server/server.h"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <utility>

#include "comet/chaos/failpoint.h"
#include "comet/common/status.h"
#include "comet/obs/obs.h"
#include "comet/obs/trace_session.h"

namespace comet {
namespace server {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/** Latency histogram buckets, microseconds: 100 us .. 50 s in a
 * 1-2-5 progression (virtual-time TTFT/TPOT span this range across
 * the bench scenarios). */
std::vector<double>
latencyBucketsUs()
{
    return {1e2, 2e2, 5e2, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4,
            1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7, 2e7, 5e7};
}

obs::Counter &
serverCounter(const std::string &prefix, const char *name)
{
    return obs::MetricsRegistry::global().counter(prefix + "." +
                                                  name);
}

} // namespace

/**
 * Everything the client threads and the serving loop share. One
 * mutex guards it all — submission is a push + notify, and the loop
 * drains the inbox in batches, so contention is a non-issue at the
 * request rates the virtual-time engine models.
 */
struct Server::Wake {
    std::mutex mutex;
    /** The loop waits here (for work, horizons, cancel pokes). */
    std::condition_variable cv;
    /** drain()/stop() callers wait here for session completion. */
    std::condition_variable done_cv;
    /** Submitted requests the loop has not picked up yet. */
    std::vector<SubmitRecord> inbox;
    /** Per-client ingress horizons (see the server file comment). */
    std::vector<double> horizons;
    bool draining = false;       ///< ingress closed
    bool stop_requested = false; ///< loop asked to exit
    bool cancel_on_stop = false; ///< stop cancels in-flight work
    bool poked = false;          ///< a stream requested cancellation
    bool session_complete = false; ///< all accepted work terminal
    bool loop_exited = false;      ///< the loop thread returned
    int64_t submitted = 0;      ///< submit() calls (any verdict)
    int64_t early_rejected = 0; ///< rejected on the submit path
    // Published snapshots (the loop owns the live state).
    ServerStats stats;
    SchedulerCounters sched;
    double clock_us = 0.0;
    /**
     * Settled horizon: every stream event stamped strictly below
     * this has been delivered (see Server::waitSettled for the
     * caller discipline under which the promise holds). Monotone;
     * advances where the loop can prove no earlier-stamped event is
     * still possible — committed clock jumps, gate parks bounded by
     * the minimum client horizon, and session completion (infinity).
     */
    double settled_us = 0.0;
};

Server::Server(const ServingEngine *engine, ServerConfig config)
    : engine_(engine), config_(std::move(config))
{
    COMET_CHECK(engine_ != nullptr);
    COMET_CHECK(config_.max_batch > 0);
    COMET_CHECK(config_.chunked_prefill_tokens >= 0);
    COMET_CHECK(config_.step_token_budget >= 0);
    precision_ = servingPrecision(engine_->config().mode);

    KvCacheConfig cache_config;
    cache_config.bits_per_value = precision_.kv_bits;
    cache_config.block_tokens = engine_->config().kv_block_tokens;
    // The paged cache counts full-model blocks, so it must be sized
    // from the TP group's aggregate pool: kvBudgetBytes() alone is
    // the per-GPU shard and would shrink a TP=N server's admission
    // capacity N-fold relative to the engine's own scheduler.
    cache_config.memory_budget_bytes =
        std::max(engine_->kvPoolBytes(), 1.0);
    cache_config.enable_prefix_cache = config_.enable_prefix_cache;
    cache_ = std::make_unique<PagedKvCache>(engine_->config().model,
                                            cache_config);
    key_space_.bits_per_value = cache_config.bits_per_value;
    key_space_.block_tokens = cache_config.block_tokens;
    key_space_.quant_group_tokens = cache_config.quant_group_tokens;

    BatchSchedulerConfig sched_config;
    sched_config.max_batch = config_.max_batch;
    sched_config.admission = config_.admission;
    sched_config.watermark_blocks = config_.kv_watermark_blocks;
    // Online accounting: the prefill forward pass produces the first
    // token (TTFT).
    sched_config.prefill_emits_token = true;
    sched_config.chunk_tokens = config_.chunked_prefill_tokens;
    sched_config.step_token_budget = config_.step_token_budget;
    scheduler_ =
        std::make_unique<BatchScheduler>(cache_.get(), sched_config);
    scheduler_->resetCounters();

    fair_ = std::make_unique<FairAdmissionQueue>(config_.tenants);

    // One attainment row per tenant, fixed for the session (set up
    // before the loop thread starts; the loop owns stats_ after).
    stats_.tenant_slo.resize(config_.tenants.size());
    for (size_t t = 0; t < config_.tenants.size(); ++t)
        stats_.tenant_slo[t].tenant = config_.tenants[t].name;

    wake_ = std::make_shared<Wake>();
    loop_thread_ = std::thread(&Server::loop, this);
}

Server::~Server() { stop(true); }

Server::Client
Server::connect()
{
    Client client;
    client.server_ = this;
    std::lock_guard<std::mutex> lock(wake_->mutex);
    COMET_CHECK_MSG(!wake_->draining,
                    "connect() on a draining/stopped server");
    client.index_ = wake_->horizons.size();
    // A handle connected mid-session starts at the published virtual
    // clock, never behind it: a new client cannot drag the ingress
    // gate below decisions the loop has already committed (and its
    // submissions cannot carry arrivals in the virtual past).
    wake_->horizons.push_back(wake_->clock_us);
    return client;
}

TokenStreamPtr
Server::Client::submit(const StreamRequest &request)
{
    COMET_CHECK_MSG(valid(), "submit() on an unconnected handle");
    return server_->submitFromClient(index_, request);
}

void
Server::Client::advanceTo(double horizon_us)
{
    COMET_CHECK_MSG(valid(), "advanceTo() on an unconnected handle");
    server_->advanceClient(index_, horizon_us, /*close=*/false);
}

void
Server::Client::close()
{
    COMET_CHECK_MSG(valid(), "close() on an unconnected handle");
    server_->advanceClient(index_, kInfinity, /*close=*/true);
}

TokenStreamPtr
submitThroughGate(
    const StreamRequest &request, std::function<void()> cancel_poke,
    const std::function<IngressVerdict(const TokenStreamPtr &)> &gate)
{
    COMET_CHECK(request.id >= 0);
    COMET_CHECK(request.prompt_tokens > 0);
    COMET_CHECK(request.max_output_tokens > 0);
    COMET_CHECK(request.eos_output_tokens >= 0);
    COMET_CHECK(request.arrival_us >= 0.0);
    COMET_CHECK_MSG(request.cancel_at_us == 0.0 ||
                        request.cancel_at_us >= request.arrival_us,
                    "cancel_at_us must be 0 or >= arrival_us");

    TokenStreamPtr stream =
        request.callback
            ? std::make_shared<TokenStream>(request.callback)
            : std::make_shared<TokenStream>();
    stream->setCancelPoke(std::move(cancel_poke));
    const IngressVerdict verdict = gate(stream);
    if (verdict.early != RejectReason::kNone) {
        StreamEvent event;
        event.kind = StreamEventKind::kRejected;
        event.virtual_us = verdict.clock_us;
        event.reject_reason = verdict.early;
        stream->deliver(event);
    }
    return stream;
}

TokenStreamPtr
Server::submitFromClient(size_t client, const StreamRequest &request)
{
    std::weak_ptr<Wake> weak = wake_;
    const auto poke = [weak] {
        if (std::shared_ptr<Wake> wake = weak.lock()) {
            std::lock_guard<std::mutex> lock(wake->mutex);
            wake->poked = true;
            wake->cv.notify_all();
        }
    };
    const auto gate = [&](const TokenStreamPtr &stream) {
        IngressVerdict verdict;
        std::lock_guard<std::mutex> lock(wake_->mutex);
        ++wake_->submitted;
        serverCounter(config_.metrics_prefix, "submitted").add();
        COMET_CHECK(client < wake_->horizons.size());
        double &horizon = wake_->horizons[client];
        const int tenant = tenantIndexByName(request.tenant);
        if (wake_->draining || horizon == kInfinity) {
            verdict.early = RejectReason::kShuttingDown;
        } else if (tenant < 0) {
            verdict.early = RejectReason::kUnknownTenant;
        } else {
            COMET_CHECK_MSG(
                request.arrival_us >= horizon,
                "arrival times must be nondecreasing per client");
            horizon = request.arrival_us;
            SubmitRecord record;
            record.arrival_us = request.arrival_us;
            record.cancel_at_us = request.cancel_at_us;
            record.request.id = request.id;
            record.request.tenant = tenant;
            record.request.arrival_us = request.arrival_us;
            record.request.prompt_tokens = request.prompt_tokens;
            record.request.max_output_tokens =
                request.max_output_tokens;
            record.request.eos_output_tokens =
                request.eos_output_tokens;
            // Prefix keys are derived here, on the client thread (a
            // pure function of content + tenant key space), so the
            // loop never touches prompt content. The ids are not
            // retained — only the 8-byte-per-block key chain rides
            // along with the request.
            if (config_.enable_prefix_cache &&
                config_.tenants[static_cast<size_t>(tenant)]
                    .prefix_caching &&
                !request.prompt_ids.empty()) {
                COMET_CHECK_MSG(
                    static_cast<int64_t>(request.prompt_ids.size()) ==
                        request.prompt_tokens,
                    "prompt_ids must be prompt_tokens long");
                prefix::KeySpace space = key_space_;
                space.namespace_id = tenant;
                record.request.prefix_block_keys =
                    prefix::chainBlockKeys(space, request.prompt_ids);
            }
            record.request.stream = stream;
            wake_->inbox.push_back(std::move(record));
            wake_->cv.notify_all();
        }
        if (verdict.early != RejectReason::kNone) {
            ++wake_->early_rejected;
            serverCounter(config_.metrics_prefix, "rejected").add();
            verdict.clock_us = wake_->clock_us;
        }
        return verdict;
    };
    return submitThroughGate(request, poke, gate);
}

int
Server::tenantIndexByName(const std::string &name) const
{
    for (size_t i = 0; i < config_.tenants.size(); ++i) {
        if (config_.tenants[i].name == name)
            return static_cast<int>(i);
    }
    return -1;
}

void
Server::advanceClient(size_t client, double horizon_us, bool close)
{
    std::lock_guard<std::mutex> lock(wake_->mutex);
    COMET_CHECK(client < wake_->horizons.size());
    double &horizon = wake_->horizons[client];
    horizon = std::max(horizon, close ? kInfinity : horizon_us);
    wake_->cv.notify_all();
}

void
Server::drain()
{
    std::unique_lock<std::mutex> lock(wake_->mutex);
    wake_->draining = true;
    wake_->cv.notify_all();
    wake_->done_cv.wait(
        lock, [&] { return wake_->session_complete; });
}

void
Server::stop(bool cancel_in_flight)
{
    {
        std::lock_guard<std::mutex> lock(wake_->mutex);
        wake_->draining = true;
        wake_->stop_requested = true;
        // A later stop(true) may tighten an earlier stop(false),
        // never the other way around.
        wake_->cancel_on_stop |= cancel_in_flight;
        wake_->cv.notify_all();
    }
    std::lock_guard<std::mutex> join_lock(join_mutex_);
    if (loop_thread_.joinable())
        loop_thread_.join();
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(wake_->mutex);
    ServerStats stats = wake_->stats;
    stats.submitted = wake_->submitted;
    stats.rejected += wake_->early_rejected;
    return stats;
}

SchedulerCounters
Server::schedulerCounters() const
{
    std::lock_guard<std::mutex> lock(wake_->mutex);
    return wake_->sched;
}

double
Server::virtualClockUs() const
{
    std::lock_guard<std::mutex> lock(wake_->mutex);
    return wake_->clock_us;
}

const std::vector<TenantConfig> &
Server::tenants() const
{
    return config_.tenants;
}

void
Server::waitSettled(double virtual_us) const
{
    std::unique_lock<std::mutex> lock(wake_->mutex);
    wake_->done_cv.wait(
        lock, [&] { return wake_->settled_us >= virtual_us; });
}

int64_t
Server::kvTotalBlocks() const
{
    return cache_->totalBlocks();
}

int64_t
Server::kvBlocksForTokens(int64_t tokens) const
{
    return cache_->blocksForTokens(tokens);
}

const PagedKvCache &
Server::kvCacheForAudit() const
{
    // Taking the wake mutex after the loop published completion
    // gives the caller a happens-before edge over every loop-side
    // cache mutation, so the audit reads are race-free.
    std::lock_guard<std::mutex> lock(wake_->mutex);
    COMET_CHECK_MSG(wake_->session_complete,
                    "kvCacheForAudit() requires a drained or "
                    "stopped server");
    return *cache_;
}

// --------------------------------------------------------------------
// Serving loop
// --------------------------------------------------------------------

void
Server::loop()
{
    obs::configureFromEnv();
    COMET_SPAN("server/session");
    for (;;) {
        bool stop_now = false;
        bool cancel_now = false;
        bool drain_now = false;
        std::vector<SubmitRecord> incoming;
        {
            std::unique_lock<std::mutex> lock(wake_->mutex);
            wake_->cv.wait(lock, [&] {
                const bool wake =
                    wake_->stop_requested || wake_->poked ||
                    !wake_->inbox.empty() || !sessionIdle() ||
                    (wake_->draining && !wake_->session_complete);
                // Parked with no pending work: future events can
                // only come from submissions at or beyond the
                // minimum open horizon, so that floor is settled
                // (re-evaluated as client horizons advance).
                if (!wake && !wake_->horizons.empty())
                    advanceSettledLocked(minHorizonLocked());
                return wake;
            });
            incoming.swap(wake_->inbox);
            wake_->poked = false;
            stop_now = wake_->stop_requested;
            cancel_now = wake_->cancel_on_stop;
            drain_now = wake_->draining;
        }
        for (SubmitRecord &record : incoming)
            acceptArrival(std::move(record));
        if (stop_now && cancel_now) {
            cancelEverything();
            publish(/*complete=*/true);
            return;
        }
        processCancellations();
        processDueCancels();
        if (!sessionIdle()) {
            if (!stepOnce()) {
                // A stop-with-cancel interrupted a gate wait.
                cancelEverything();
                publish(/*complete=*/true);
                return;
            }
            publish(/*complete=*/false);
            continue;
        }
        if (drain_now || stop_now) {
            publish(/*complete=*/true);
            if (stop_now)
                return;
            continue;
        }
        publish(/*complete=*/false);
    }
}

void
Server::acceptArrival(SubmitRecord &&record)
{
    const int64_t id = record.request.id;
    COMET_CHECK_MSG(arrivals_.find(id) == arrivals_.end() &&
                        live_.find(id) == live_.end(),
                    "request ids must be unique per session");
    arrival_order_.insert({record.arrival_us, id});
    if (record.cancel_at_us > 0.0)
        cancel_order_.insert({record.cancel_at_us, id});
    arrivals_.emplace(id, std::move(record));
}

double
Server::safeHorizonLocked() const
{
    if (wake_->draining)
        return kInfinity;
    return minHorizonLocked();
}

double
Server::minHorizonLocked() const
{
    double floor = kInfinity;
    for (double horizon : wake_->horizons)
        floor = std::min(floor, horizon);
    return floor;
}

void
Server::advanceSettledLocked(double settled_us)
{
    if (settled_us > wake_->settled_us) {
        wake_->settled_us = settled_us;
        wake_->done_cv.notify_all();
    }
}

bool
Server::waitForSafe(double target_us)
{
    std::unique_lock<std::mutex> lock(wake_->mutex);
    // Strictly past the target: a client whose horizon sits exactly
    // at target_us may still submit more arrivals at that instant
    // (equal arrival times per handle are legal), so >= would let the
    // clock commit with such a tie racing the inbox drain.
    wake_->cv.wait(lock, [&] {
        // While parked, events below min(target, horizon floor) are
        // impossible (the pending step delivers at >= target once
        // committed; later submissions arrive at >= the floor and
        // are ingested after the commit): publish that as settled so
        // a cluster router can await quiescence mid-step.
        if (!(wake_->stop_requested && wake_->cancel_on_stop)) {
            advanceSettledLocked(
                std::min(target_us, minHorizonLocked()));
        }
        return (wake_->stop_requested && wake_->cancel_on_stop) ||
               safeHorizonLocked() > target_us;
    });
    if (wake_->stop_requested && wake_->cancel_on_stop)
        return false;
    // The clock jump to target_us is now committed: every event the
    // loop delivers from here on is stamped >= target_us, so the
    // settled horizon reaches the target.
    advanceSettledLocked(target_us);
    return true;
}

Server::GateOutcome
Server::waitToAdvance(double target_us)
{
    std::unique_lock<std::mutex> lock(wake_->mutex);
    wake_->cv.wait(lock, [&] {
        // While parked here, any future submission arrives at or
        // beyond the minimum open horizon and is delivered at a
        // clock at or beyond its arrival, so events below
        // min(target, horizon floor) are impossible: publish that as
        // the settled horizon (re-evaluated as horizons move) so a
        // cluster router can await per-replica quiescence while the
        // gate is held.
        if (!(wake_->stop_requested && wake_->cancel_on_stop)) {
            advanceSettledLocked(
                std::min(target_us, minHorizonLocked()));
        }
        return (wake_->stop_requested && wake_->cancel_on_stop) ||
               wake_->poked || !wake_->inbox.empty() ||
               safeHorizonLocked() > target_us;
    });
    if (wake_->stop_requested && wake_->cancel_on_stop)
        return GateOutcome::kInterrupted;
    // New submissions (or cancel pokes) landed while the gate was
    // held: the earliest pending arrival may have changed, so the
    // outer loop must ingest and re-plan before any clock jump.
    if (wake_->poked || !wake_->inbox.empty())
        return GateOutcome::kReplan;
    return GateOutcome::kAdvance;
}

void
Server::publishClock()
{
    std::lock_guard<std::mutex> lock(wake_->mutex);
    wake_->clock_us = clock_;
    // Everything delivered so far is stamped <= clock_, and future
    // deliveries are stamped >= clock_, so events strictly below the
    // committed clock are settled.
    advanceSettledLocked(clock_);
}

void
Server::ingestDueArrivals()
{
    while (!arrival_order_.empty() &&
           arrival_order_.begin()->first <= clock_) {
        const int64_t id = arrival_order_.begin()->second;
        arrival_order_.erase(arrival_order_.begin());
        auto it = arrivals_.find(id);
        COMET_CHECK(it != arrivals_.end());
        PendingRequest pending = std::move(it->second.request);
        arrivals_.erase(it);

        // Chaos hook: a client cancel/disconnect racing admission.
        // Only the loop thread fires it, and processCancellations
        // observes the flag at the next iteration boundary, so the
        // injected race replays deterministically.
        if (COMET_FAILPOINT("server.ingress"))
            pending.stream->requestCancel();

        // A request that cannot fit the pool even running alone can
        // never be served: reject before it charges any fair share
        // (the same never-fits rule the scheduler applies).
        if (cache_->blocksForTokens(pending.prompt_tokens +
                                    pending.max_output_tokens) >
            cache_->totalBlocks()) {
            rejectPending(std::move(pending),
                          RejectReason::kTooLarge);
            continue;
        }
        LiveRequest live;
        live.stream = pending.stream;
        live.tenant = pending.tenant;
        live.arrival_us = pending.arrival_us;
        const int64_t live_id = pending.id;
        const RejectReason verdict =
            fair_->offer(std::move(pending), clock_);
        if (verdict != RejectReason::kNone) {
            PendingRequest failed;
            failed.id = live_id;
            failed.stream = live.stream;
            rejectPending(std::move(failed), verdict);
            continue;
        }
        ++stats_.queued;
        serverCounter(config_.metrics_prefix, "queued").add();
        live_.emplace(live_id, std::move(live));
    }
}

void
Server::rejectPending(PendingRequest &&pending, RejectReason reason)
{
    COMET_CHECK(pending.stream != nullptr);
    ++stats_.rejected;
    serverCounter(config_.metrics_prefix, "rejected").add();
    StreamEvent event;
    event.kind = StreamEventKind::kRejected;
    event.virtual_us = clock_;
    event.reject_reason = reason;
    pending.stream->deliver(event);
    live_.erase(pending.id);
}

void
Server::injectFromFairQueue()
{
    COMET_SPAN("server/admit");
    for (;;) {
        scheduler_->admit();
        // Preempted (or previously injected) work waiting on KV
        // capacity keeps strict priority: nothing new is injected
        // behind a blocked head.
        if (scheduler_->queuedCount() > 0)
            break;
        if (scheduler_->runningCount() >= config_.max_batch)
            break;
        PendingRequest next;
        std::vector<PendingRequest> expired;
        const bool got = fair_->pick(clock_, &next, &expired);
        for (PendingRequest &e : expired)
            rejectPending(std::move(e),
                          RejectReason::kDeadlineExpired);
        if (!got)
            break;
        auto it = live_.find(next.id);
        COMET_CHECK(it != live_.end());
        it->second.in_scheduler = true;
        Request request;
        request.id = next.id;
        request.prompt_tokens = next.prompt_tokens;
        request.max_output_tokens = next.max_output_tokens;
        request.eos_output_tokens = next.eos_output_tokens;
        // SLO-aware chunk ordering: a tenant with a TTFT budget gets
        // its prefill chunks scheduled by absolute deadline; no
        // budget (0) keeps FCFS order among the deadline-free.
        const TenantConfig &tenant_config =
            config_.tenants[static_cast<size_t>(next.tenant)];
        if (tenant_config.ttft_slo_us > 0.0) {
            request.deadline_us =
                next.arrival_us + tenant_config.ttft_slo_us;
        }
        if (!next.prefix_block_keys.empty()) {
            request.prefix_namespace = next.tenant;
            request.prefix_block_keys =
                std::move(next.prefix_block_keys);
        }
        scheduler_->submit(request);
    }
}

bool
Server::stepOnce()
{
    COMET_SPAN("server/step");
    ingestDueArrivals();
    processDueCancels();

    // Nothing runnable yet: fast-forward the clock to the next
    // arrival (once the ingress gate allows it). The jump commits
    // only when the inbox is empty and every open horizon is
    // strictly past the target — then no arrival <= target can still
    // appear, and the target is provably the earliest arrival. Any
    // submission landing while the gate is held bounces back to the
    // outer loop, which ingests it and re-plans (it may be earlier
    // than the current target).
    if (scheduler_->idle() && fair_->empty()) {
        if (arrival_order_.empty())
            return true;
        const double next_us = arrival_order_.begin()->first;
        if (next_us > clock_) {
            switch (waitToAdvance(next_us)) {
              case GateOutcome::kInterrupted:
                return false;
              case GateOutcome::kReplan:
                return true; // the outer loop re-enters stepOnce
              case GateOutcome::kAdvance:
                clock_ = next_us;
                // Commit before any event delivery: a client that
                // observes an event (or connects) must never read a
                // clock behind the events it has seen.
                publishClock();
                break;
            }
        }
        ingestDueArrivals();
        // Abandons scheduled inside the jump window fire before any
        // admission decision at the new clock.
        processDueCancels();
    }

    // Admission happens at the current virtual time. Monolithic
    // mode charges the admitted wave's whole (re)prefill before any
    // token is visible; chunked mode defers all prefill compute to
    // the fused per-step plan below.
    const bool chunked = config_.chunked_prefill_tokens > 0;
    const size_t running_before = scheduler_->running().size();
    injectFromFairQueue();
    std::vector<int64_t> prefill_tokens;
    if (!chunked) {
        const std::vector<Request> &running = scheduler_->running();
        for (size_t i = running_before; i < running.size(); ++i) {
            // generated_tokens already includes the credited first
            // token; the forward pass recomputes everything before
            // it (prompt plus pre-preemption progress) *minus* the
            // tokens whose KV the prefix cache grafted — TTFT
            // honestly reflects the skipped work, in both directions.
            prefill_tokens.push_back(running[i].contextTokens() - 1 -
                                     running[i].prefix_matched_tokens);
        }
    }
    std::vector<Request> admit_retired = scheduler_->drainRetired();
    for (const Request &request : admit_retired) {
        // One-token generations retire at admission but still ran
        // their (possibly graft-shortened) prefill. (Chunked mode
        // never credits at admission, so nothing retires kFinished
        // here.)
        if (!chunked && request.state == RequestState::kFinished)
            prefill_tokens.push_back(request.contextTokens() - 1 -
                                     request.prefix_matched_tokens);
    }
    if (!prefill_tokens.empty()) {
        COMET_SPAN("server/prefill");
        const double prefill_us =
            engine_->prefillLatencyUs(prefill_tokens);
        if (!waitForSafe(clock_ + prefill_us))
            return false;
        clock_ += prefill_us;
        publishClock();
    }
    deliverRunningProgress();
    deliverRetired(admit_retired);

    if (scheduler_->runningCount() > 0) {
        COMET_SPAN("server/decode");
        // One fused step from the scheduler's deterministic plan:
        // decode plus (in chunked mode) the prefill chunks riding on
        // the same GEMM launch.
        const double step_us =
            engine_->stepLatencyUs(scheduler_->planStep(), gemm_cache_);
        if (!waitForSafe(clock_ + step_us))
            return false;
        clock_ += step_us;
        publishClock();
        scheduler_->step();
        deliverRunningProgress();
        deliverRetired(scheduler_->drainRetired());
    }
    return true;
}

void
Server::emitTokens(LiveRequest &live, int64_t generated_total)
{
    while (live.streamed_tokens < generated_total) {
        StreamEvent event;
        event.kind = StreamEventKind::kToken;
        event.token_index = live.streamed_tokens;
        event.virtual_us = clock_;
        live.stream->deliver(event);
        if (live.streamed_tokens == 0)
            live.first_token_us = clock_;
        live.last_token_us = clock_;
        ++live.streamed_tokens;
        ++stats_.streamed_tokens;
        serverCounter(config_.metrics_prefix, "streamed_tokens").add();
    }
}

void
Server::deliverRunningProgress()
{
    for (const Request &request : scheduler_->running()) {
        auto it = live_.find(request.id);
        if (it == live_.end())
            continue; // cancelled under the scheduler's feet
        emitTokens(it->second, request.generated_tokens);
    }
}

void
Server::deliverRetired(const std::vector<Request> &retired)
{
    for (const Request &request : retired) {
        auto it = live_.find(request.id);
        if (it == live_.end())
            continue; // already cancelled and delivered
        LiveRequest &live = it->second;
        StreamEvent event;
        event.virtual_us = clock_;
        switch (request.state) {
          case RequestState::kFinished: {
            emitTokens(live, request.generated_tokens);
            event.kind = StreamEventKind::kFinished;
            ++stats_.completed;
            serverCounter(config_.metrics_prefix, "completed").add();
            const TenantConfig &tenant_config =
                config_.tenants[static_cast<size_t>(live.tenant)];
            const std::string &tenant = tenant_config.name;
            obs::MetricsRegistry &registry =
                obs::MetricsRegistry::global();
            const double ttft =
                live.first_token_us - live.arrival_us;
            registry
                .histogram(config_.metrics_prefix + ".tenant." +
                               tenant + ".ttft_us",
                           latencyBucketsUs())
                .observe(ttft);
            TenantSloStats &slo =
                stats_.tenant_slo[static_cast<size_t>(live.tenant)];
            ++slo.finished;
            if (tenant_config.ttft_slo_us > 0.0) {
                const bool ok = ttft <= tenant_config.ttft_slo_us;
                ++(ok ? slo.ttft_ok : slo.ttft_miss);
                serverCounter(config_.metrics_prefix,
                              ("tenant." + tenant +
                               (ok ? ".slo.ttft_ok"
                                   : ".slo.ttft_miss"))
                                  .c_str())
                    .add();
            }
            if (live.streamed_tokens > 1) {
                const double tpot =
                    (live.last_token_us - live.first_token_us) /
                    static_cast<double>(live.streamed_tokens - 1);
                registry
                    .histogram(config_.metrics_prefix + ".tenant." +
                                   tenant + ".tpot_us",
                               latencyBucketsUs())
                    .observe(tpot);
                if (tenant_config.tpot_slo_us > 0.0) {
                    const bool ok =
                        tpot <= tenant_config.tpot_slo_us;
                    ++(ok ? slo.tpot_ok : slo.tpot_miss);
                    serverCounter(config_.metrics_prefix,
                                  ("tenant." + tenant +
                                   (ok ? ".slo.tpot_ok"
                                       : ".slo.tpot_miss"))
                                      .c_str())
                        .add();
                }
            }
            break;
          }
          case RequestState::kRejected:
            event.kind = StreamEventKind::kRejected;
            event.reject_reason = RejectReason::kTooLarge;
            ++stats_.rejected;
            serverCounter(config_.metrics_prefix, "rejected").add();
            break;
          case RequestState::kCancelled:
            event.kind = StreamEventKind::kCancelled;
            ++stats_.cancelled;
            serverCounter(config_.metrics_prefix, "cancelled").add();
            break;
          default:
            COMET_CHECK_MSG(false,
                            "retired request in a live state");
        }
        live.stream->deliver(event);
        live_.erase(it);
    }
}

void
Server::processCancellations()
{
    std::vector<int64_t> ids;
    for (const auto &entry : arrivals_) {
        if (entry.second.request.stream->cancelRequested())
            ids.push_back(entry.first);
    }
    for (const auto &entry : live_) {
        if (entry.second.stream->cancelRequested())
            ids.push_back(entry.first);
    }
    if (ids.empty())
        return;
    std::sort(ids.begin(), ids.end());
    for (int64_t id : ids)
        COMET_CHECK(cancelOne(id));
    // The scheduler retired the cancelled ids too; their live
    // entries are gone, so this delivers nothing further.
    deliverRetired(scheduler_->drainRetired());
}

void
Server::processDueCancels()
{
    bool any = false;
    while (!cancel_order_.empty() &&
           cancel_order_.begin()->first <= clock_) {
        const int64_t id = cancel_order_.begin()->second;
        cancel_order_.erase(cancel_order_.begin());
        // The request may have reached a terminal event before its
        // scheduled abandon time — the stale entry is a no-op.
        any = cancelOne(id) || any;
    }
    if (any)
        deliverRetired(scheduler_->drainRetired());
}

bool
Server::cancelOne(int64_t id)
{
    TokenStreamPtr stream;
    auto arrival = arrivals_.find(id);
    if (arrival != arrivals_.end()) {
        stream = arrival->second.request.stream;
        arrival_order_.erase({arrival->second.arrival_us, id});
        if (arrival->second.cancel_at_us > 0.0)
            cancel_order_.erase({arrival->second.cancel_at_us, id});
        arrivals_.erase(arrival);
    } else {
        auto it = live_.find(id);
        if (it == live_.end())
            return false; // already terminal
        stream = it->second.stream;
        if (it->second.in_scheduler) {
            COMET_CHECK(scheduler_->cancel(id).isOk());
        } else {
            PendingRequest removed;
            COMET_CHECK(fair_->removeById(id, &removed));
        }
        live_.erase(it);
    }
    ++stats_.cancelled;
    serverCounter(config_.metrics_prefix, "cancelled").add();
    StreamEvent event;
    event.kind = StreamEventKind::kCancelled;
    event.virtual_us = clock_;
    stream->deliver(event);
    return true;
}

void
Server::cancelEverything()
{
    COMET_SPAN("server/cancel_all");
    // A stop-with-cancel can interrupt a gate wait with submissions
    // still sitting in the inbox; pull them in first so every
    // accepted stream gets its terminal event.
    std::vector<SubmitRecord> pending;
    {
        std::lock_guard<std::mutex> lock(wake_->mutex);
        pending.swap(wake_->inbox);
    }
    for (SubmitRecord &record : pending)
        acceptArrival(std::move(record));
    std::map<int64_t, TokenStreamPtr> streams;
    for (const auto &entry : arrivals_)
        streams.emplace(entry.first, entry.second.request.stream);
    for (const auto &entry : live_) {
        streams.emplace(entry.first, entry.second.stream);
        if (entry.second.in_scheduler)
            COMET_CHECK(scheduler_->cancel(entry.first).isOk());
    }
    fair_->drainAll();
    scheduler_->drainRetired();
    arrivals_.clear();
    arrival_order_.clear();
    cancel_order_.clear();
    live_.clear();
    for (const auto &entry : streams) {
        ++stats_.cancelled;
        serverCounter(config_.metrics_prefix, "cancelled").add();
        StreamEvent event;
        event.kind = StreamEventKind::kCancelled;
        event.virtual_us = clock_;
        entry.second->deliver(event);
    }
}

bool
Server::sessionIdle() const
{
    return arrivals_.empty() && fair_->empty() &&
           scheduler_->idle() && live_.empty();
}

void
Server::publish(bool complete)
{
    const SchedulerCounters &counters = scheduler_->counters();
    stats_.preemptions = counters.preemptions;
    stats_.reprefill_tokens = counters.reprefill_tokens;
    const prefix::PrefixCacheStats prefix_stats =
        cache_->prefixStats();
    stats_.prefix_hits = prefix_stats.hits;
    stats_.prefix_misses = prefix_stats.misses;
    stats_.prefix_matched_tokens = counters.prefix_matched_tokens;
    stats_.prefix_blocks_matched = prefix_stats.blocks_matched;
    stats_.prefix_blocks_evicted = prefix_stats.blocks_evicted;
    stats_.prefix_bytes_saved = prefix_stats.bytes_saved;
    std::lock_guard<std::mutex> lock(wake_->mutex);
    wake_->stats = stats_;
    wake_->sched = counters;
    wake_->clock_us = clock_;
    advanceSettledLocked(clock_);
    if (complete) {
        wake_->session_complete = true;
        // A complete session delivers nothing further: the settled
        // horizon jumps to infinity so waitSettled never blocks on a
        // drained replica.
        advanceSettledLocked(kInfinity);
        wake_->done_cv.notify_all();
    }
}

} // namespace server
} // namespace comet
