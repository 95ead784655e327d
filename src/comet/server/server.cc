#include "comet/server/server.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "comet/chaos/failpoint.h"
#include "comet/common/status.h"
#include "comet/obs/obs.h"
#include "comet/obs/trace_session.h"

namespace comet {
namespace server {

namespace {

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
    cache_config.block_tokens = kKvBlockTokens;
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
    key_space_.quant_group_tokens = kKvQuantGroupTokens;

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

    ingress_ = std::make_shared<IngressGate<SubmitRecord, Published>>(
        config_.metrics_prefix);
    loop_thread_ = std::thread(&Server::loop, this);
}

Server::~Server() { stop(true); }

TokenStreamPtr
Server::submitFromClient(size_t client, const StreamRequest &request)
{
    return ingress_->submit(
        client, request, config_.tenants,
        [&](int tenant, const TokenStreamPtr &stream) {
            SubmitRecord record;
            record.arrival_us = request.arrival_us;
            record.cancel_at_us = request.cancel_at_us;
            record.request.id = request.id;
            record.request.tenant = tenant;
            record.request.arrival_us = request.arrival_us;
            record.request.prompt_tokens = request.prompt_tokens;
            record.request.max_output_tokens = request.max_output_tokens;
            record.request.eos_output_tokens = request.eos_output_tokens;
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
            return record;
        });
}

void
Server::stop(bool cancel_in_flight)
{
    ingress_->requestStop(cancel_in_flight);
    std::lock_guard<std::mutex> join_lock(join_mutex_);
    if (loop_thread_.joinable())
        loop_thread_.join();
}

SchedulerCounters
Server::schedulerCounters() const
{
    return ingress_->read(
        [](const Published &published) { return published.sched; });
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
    // Reading completion from the gate after the loop published it
    // gives the caller a happens-before edge over every loop-side
    // cache mutation, so the audit reads are race-free.
    COMET_CHECK_MSG(ingress_->complete(),
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
        auto wakeup =
            ingress_->waitForWork([&] { return !sessionIdle(); });
        for (SubmitRecord &record : wakeup.inbox)
            acceptArrival(std::move(record));
        if (wakeup.stop && wakeup.cancel) {
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
        if (wakeup.draining || wakeup.stop) {
            publish(/*complete=*/true);
            if (wakeup.stop)
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

bool
Server::advanceClockTo(double target_us)
{
    // The prefill or step that ends at target_us is planned: wait
    // until no arrival at or before it can still appear, then commit.
    if (ingress_->waitToAdvance(target_us, /*replan=*/false) !=
        AdvanceOutcome::kAdvance)
        return false;
    clock_ = target_us;
    ingress_->commitClock(clock_);
    return true;
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
    pending.stream->finish(StreamEventKind::kRejected, clock_, reason);
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
            switch (ingress_->waitToAdvance(next_us, /*replan=*/true)) {
              case AdvanceOutcome::kInterrupted:
                return false;
              case AdvanceOutcome::kReplan:
                return true; // the outer loop re-enters stepOnce
              case AdvanceOutcome::kAdvance:
                clock_ = next_us;
                // Commit before any event delivery: a client that
                // observes an event (or connects) must never read a
                // clock behind the events it has seen.
                ingress_->commitClock(clock_);
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
        if (!advanceClockTo(clock_ + prefill_us))
            return false;
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
        if (!advanceClockTo(clock_ + step_us))
            return false;
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
    stream->finish(StreamEventKind::kCancelled, clock_);
    return true;
}

void
Server::cancelEverything()
{
    COMET_SPAN("server/cancel_all");
    // A stop-with-cancel can interrupt a gate wait with submissions
    // still sitting in the inbox; pull them in first so every
    // accepted stream gets its terminal event.
    for (SubmitRecord &record : ingress_->takeInbox())
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
        entry.second->finish(StreamEventKind::kCancelled, clock_);
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
    // A complete session delivers nothing further: the gate settles
    // at infinity so waitSettled never blocks on a drained replica.
    ingress_->publish(clock_, complete, [&](Published &published) {
        published.stats = stats_;
        published.sched = counters;
    });
}

} // namespace server
} // namespace comet
