#include "comet/serve/batch_scheduler.h"

#include <algorithm>
#include <limits>

#include "comet/chaos/failpoint.h"
#include "comet/obs/trace_session.h"

namespace comet {

const char *
admissionPolicyName(AdmissionPolicy policy)
{
    switch (policy) {
      case AdmissionPolicy::kReserveFullOutput:
        return "reserve-full";
      case AdmissionPolicy::kOptimisticPreempt:
        return "optimistic-preempt";
    }
    return "?";
}

double
SchedulerCounters::peakKvUtilization(int64_t total_blocks) const
{
    if (total_blocks <= 0)
        return 0.0;
    return static_cast<double>(peak_used_blocks) /
           static_cast<double>(total_blocks);
}

void
SchedulerCounters::reset()
{
    *this = SchedulerCounters{};
}

void
SchedulerCounters::publishTo(obs::MetricsRegistry &registry) const
{
    registry.counter("serve.scheduler.admitted").add(admitted);
    registry.counter("serve.scheduler.preemptions")
        .add(preemptions);
    registry.counter("serve.scheduler.reprefill_tokens")
        .add(reprefill_tokens);
    registry.counter("serve.scheduler.cancelled").add(cancelled);
    registry.counter("serve.scheduler.rejected").add(rejected);
    registry.counter("serve.scheduler.prefix_matched_tokens")
        .add(prefix_matched_tokens);
    registry.counter("serve.scheduler.prefill_chunks")
        .add(prefill_chunks);
    registry.counter("serve.scheduler.chunks_dropped")
        .add(chunks_dropped);
}

BatchScheduler::BatchScheduler(PagedKvCache *cache,
                               BatchSchedulerConfig config)
    : cache_(cache), config_(config)
{
    COMET_CHECK(cache_ != nullptr);
    COMET_CHECK(config_.max_batch > 0);
    COMET_CHECK(config_.watermark_blocks >= 0);
    COMET_CHECK(config_.chunk_tokens >= 0);
    COMET_CHECK(config_.step_token_budget >= 0);
}

void
BatchScheduler::submit(const Request &request)
{
    COMET_CHECK(request.state == RequestState::kQueued);
    COMET_CHECK(request.prompt_tokens > 0 &&
                request.max_output_tokens > 0);
    queue_.push_back(request);
    notePeaks();
}

int64_t
BatchScheduler::admit()
{
    COMET_SPAN("scheduler/admit");
    // Blocks the running batch will still claim as it decodes; under
    // full reservation, new admissions must leave this headroom
    // untouched so the decode loop can never exhaust the pool. The
    // claim is measured from the tokens actually cached: a token the
    // prefill credited (prefill_emits_token) has no KV yet, so
    // contextTokens() would undercount the claim by a block whenever
    // the cache sits exactly on a block boundary.
    int64_t reserved = 0;
    if (config_.admission == AdmissionPolicy::kReserveFullOutput) {
        for (const Request &request : running_) {
            reserved += cache_->blocksForTokens(
                            request.prompt_tokens +
                            request.max_output_tokens) -
                        cache_->blocksForTokens(
                            cache_->sequenceTokens(request.id));
        }
    }

    int64_t admitted = 0;
    while (!queue_.empty() &&
           runningCount() < config_.max_batch) {
        Request &head = queue_.front();
        // A request that cannot fit even running alone will never be
        // servable: drop it instead of blocking the queue forever.
        if (cache_->blocksForTokens(head.prompt_tokens +
                                    head.max_output_tokens) >
            cache_->totalBlocks()) {
            head.state = RequestState::kRejected;
            ++counters_.rejected;
            retire(head);
            queue_.pop_front();
            continue;
        }
        // Preempted requests re-prefill their whole context (prompt
        // plus the tokens they had already generated).
        const int64_t prefill_tokens = head.contextTokens();
        bool fits;
        if (config_.admission == AdmissionPolicy::kReserveFullOutput) {
            const int64_t need = cache_->blocksForTokens(
                head.prompt_tokens + head.max_output_tokens);
            fits = need + reserved <= cache_->availableBlocks();
            if (fits) {
                reserved += need -
                            cache_->blocksForTokens(prefill_tokens);
            }
        } else {
            // The watermark holds decode headroom, but must not
            // starve an empty system. availableBlocks() counts
            // evictable prefix-cache pages as capacity: cold cached
            // prefixes never crowd out live traffic.
            const int64_t slack =
                running_.empty() ? 0 : config_.watermark_blocks;
            fits = cache_->blocksForTokens(prefill_tokens) + slack <=
                   cache_->availableBlocks();
        }
        if (!fits)
            break; // FCFS: do not skip ahead of the head
        // Prefix-aware admission: graft the cached prompt prefix via
        // COW references and record how many context tokens prefill
        // can skip. Preempted requests re-run the match — their
        // prompt keys still stand, so a re-prefill recovers the hit.
        head.prefix_matched_tokens = 0;
        Status status;
        if (head.prefix_namespace >= 0 &&
            cache_->prefixCacheEnabled() &&
            !head.prefix_block_keys.empty()) {
            Result<int64_t> grafted = cache_->addSequenceWithPrefix(
                head.id, prefill_tokens, head.prefix_namespace,
                head.prefix_block_keys);
            if (grafted.isOk()) {
                head.prefix_matched_tokens = grafted.value();
                counters_.prefix_matched_tokens += grafted.value();
            }
            status = grafted.status();
        } else {
            status = cache_->addSequence(head.id, prefill_tokens);
        }
        if (status.code() == StatusCode::kResourceExhausted) {
            // The fits-check passed but the allocator still failed —
            // only an injected fault (COMET_FAILPOINT "kv.alloc")
            // reaches here today. Exhaustion is recoverable, never an
            // abort: leave the head queued and retry next round.
            break;
        }
        COMET_CHECK(status.isOk()); // guaranteed by the check above
        head.state = RequestState::kRunning;
        if (config_.chunk_tokens > 0) {
            // Chunked mode: the full KV footprint was allocated
            // above (and is held across steps), but the prefill
            // compute happens chunk by chunk in step() — starting
            // past any grafted prefix, whose KV already exists.
            head.prefill_target_tokens = prefill_tokens;
            head.prefilled_tokens = head.prefix_matched_tokens;
        } else {
            head.prefill_target_tokens = 0;
            head.prefilled_tokens = 0;
        }
        running_.push_back(head);
        queue_.pop_front();
        ++admitted;
        ++counters_.admitted;
        if (config_.prefill_emits_token &&
            config_.chunk_tokens <= 0) {
            // The prefill forward pass produces this request's next
            // output token (TTFT accounting); a request completed by
            // that token retires without entering the decode batch.
            Request &fresh = running_.back();
            ++fresh.generated_tokens;
            if (fresh.done()) {
                fresh.state = RequestState::kFinished;
                cache_->removeSequence(fresh.id);
                ++finished_;
                if (config_.admission ==
                    AdmissionPolicy::kReserveFullOutput) {
                    // All its blocks are free again: return the
                    // future claim added above so it stops gating
                    // the rest of this admission round.
                    reserved -=
                        cache_->blocksForTokens(
                            fresh.prompt_tokens +
                            fresh.max_output_tokens) -
                        cache_->blocksForTokens(prefill_tokens);
                }
                retire(fresh);
                running_.pop_back();
            }
        }
    }
    notePeaks();
    return admitted;
}

void
BatchScheduler::preemptBack()
{
    COMET_SPAN("scheduler/preempt");
    COMET_CHECK(!running_.empty());
    Request victim = running_.back();
    running_.pop_back();
    cache_->removeSequence(victim.id);
    victim.state = RequestState::kPreempted;
    ++victim.preemptions;
    ++counters_.preemptions;
    // Recompute-style preemption: everything cached must be
    // re-prefetched through the model on re-admission.
    counters_.reprefill_tokens += victim.contextTokens();
    // Victims are evicted latest-arrived first, and running_ is in
    // arrival order, so push_front restores FCFS order in the queue.
    queue_.push_front(victim);
}

StepPlan
BatchScheduler::planStep() const
{
    StepPlan plan;
    for (const Request &request : running_) {
        if (!request.prefilling()) {
            ++plan.decode_batch;
            plan.decode_context_sum += request.contextTokens();
        }
    }
    if (config_.chunk_tokens <= 0)
        return plan;
    // The knapsack: decode steals priority (each decoding request
    // advances one token regardless), and whatever budget remains is
    // filled with prefill chunks in ascending deadline order. A
    // deadline of 0 sorts last; ties keep running_ (FCFS) order.
    int64_t budget =
        config_.step_token_budget > 0
            ? std::max<int64_t>(0, config_.step_token_budget -
                                       plan.decode_batch)
            : std::numeric_limits<int64_t>::max();
    std::vector<size_t> order;
    for (size_t i = 0; i < running_.size(); ++i) {
        if (running_[i].prefilling())
            order.push_back(i);
    }
    const auto effective = [&](size_t i) {
        const double deadline = running_[i].deadline_us;
        return deadline > 0.0
                   ? deadline
                   : std::numeric_limits<double>::infinity();
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return effective(a) < effective(b);
                     });
    for (size_t index : order) {
        if (budget <= 0)
            break;
        const Request &request = running_[index];
        const int64_t take =
            std::min({config_.chunk_tokens,
                      request.prefill_target_tokens -
                          request.prefilled_tokens,
                      budget});
        PlannedChunk chunk;
        chunk.id = request.id;
        chunk.tokens = take;
        chunk.context_after = request.prefilled_tokens + take;
        plan.chunks.push_back(chunk);
        plan.prefill_tokens += take;
        budget -= take;
    }
    return plan;
}

Request *
BatchScheduler::findRunning(int64_t id)
{
    for (Request &request : running_) {
        if (request.id == id)
            return &request;
    }
    return nullptr;
}

int64_t
BatchScheduler::runChunks(const StepPlan &plan,
                          std::vector<int64_t> *completed)
{
    int64_t generated = 0;
    for (const PlannedChunk &chunk : plan.chunks) {
        COMET_SPAN("scheduler/chunk");
        // Chaos hook: drop this chunk at its boundary — as if its
        // launch was lost — so cancels, preemptions and grafts can
        // interleave at chunk edges. The prefill simply resumes from
        // the same offset on a later step; no work is ever lost.
        if (COMET_FAILPOINT("sched.chunk")) {
            ++counters_.chunks_dropped;
            continue;
        }
        Request *request = findRunning(chunk.id);
        if (request == nullptr) {
            // Evicted between planning and execution (the
            // sched.preempt failpoint); re-planned after re-admission.
            continue;
        }
        request->prefilled_tokens += chunk.tokens;
        ++counters_.prefill_chunks;
        COMET_CHECK(request->prefilled_tokens <=
                    request->prefill_target_tokens);
        if (request->prefilling())
            continue;
        // This step costed the request as a prefill chunk; it joins
        // the decode set on the *next* step.
        completed->push_back(request->id);
        if (!config_.prefill_emits_token)
            continue;
        // The final chunk's forward pass produces the request's next
        // output token — the same credit monolithic admission grants
        // (TTFT accounting), without a cache append.
        ++request->generated_tokens;
        ++generated;
        if (request->done()) {
            request->state = RequestState::kFinished;
            cache_->removeSequence(request->id);
            ++finished_;
            retire(*request);
            for (auto it = running_.begin(); it != running_.end();
                 ++it) {
                if (it->id == request->id) {
                    running_.erase(it);
                    break;
                }
            }
        }
    }
    return generated;
}

int64_t
BatchScheduler::step()
{
    COMET_SPAN("scheduler/step");
    // Chaos hook: force one spurious eviction before the step, as if
    // the pool had exhausted — the victim re-prefills on re-admission
    // exactly like a genuine preemption.
    if (COMET_FAILPOINT("sched.preempt") && !running_.empty())
        preemptBack();
    int64_t generated = 0;
    std::vector<int64_t> completed_prefills;
    if (config_.chunk_tokens > 0)
        generated += runChunks(planStep(), &completed_prefills);
    std::vector<Request> still_running;
    still_running.reserve(running_.size());
    size_t i = 0;
    while (i < running_.size()) {
        Request &request = running_[i];
        if (request.prefilling() ||
            std::find(completed_prefills.begin(),
                      completed_prefills.end(),
                      request.id) != completed_prefills.end()) {
            // Mid-prefill (holding its KV pages but decoding
            // nothing), or its final chunk completed *this* step —
            // either way it joins the decode set next step.
            still_running.push_back(request);
            ++i;
            continue;
        }
        Status status = cache_->appendToken(request.id);
        // KV exhaustion mid-step: free blocks by preempting the
        // latest-arrived requests (which have not been stepped yet
        // this iteration) until the append succeeds.
        while (status.code() == StatusCode::kResourceExhausted &&
               running_.size() > i + 1) {
            preemptBack();
            status = cache_->appendToken(request.id);
        }
        if (status.code() == StatusCode::kResourceExhausted) {
            // No later victim left: the pool is held by requests
            // already stepped this iteration. Yield this request too;
            // it re-prefills once the survivors retire.
            preemptBack(); // running_[i] is the back here
            break;
        }
        COMET_CHECK_MSG(status.isOk(), status.message().c_str());
        ++request.generated_tokens;
        ++generated;
        if (request.done()) {
            request.state = RequestState::kFinished;
            cache_->removeSequence(request.id);
            ++finished_;
            retire(request);
        } else {
            still_running.push_back(request);
        }
        ++i;
    }
    running_ = std::move(still_running);
    notePeaks();
    return generated;
}

Status
BatchScheduler::cancel(int64_t id)
{
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->id == id) {
            it->state = RequestState::kCancelled;
            retire(*it);
            queue_.erase(it);
            ++counters_.cancelled;
            return Status::ok();
        }
    }
    for (auto it = running_.begin(); it != running_.end(); ++it) {
        if (it->id == id) {
            cache_->removeSequence(id);
            it->state = RequestState::kCancelled;
            retire(*it);
            running_.erase(it);
            ++counters_.cancelled;
            return Status::ok();
        }
    }
    return Status::invalidArgument(
        "cancel: request is not queued or running");
}

std::vector<Request>
BatchScheduler::drainRetired()
{
    std::vector<Request> drained;
    drained.swap(retired_);
    return drained;
}

void
BatchScheduler::retire(const Request &request)
{
    retired_.push_back(request);
}

double
BatchScheduler::kvUtilization() const
{
    const int64_t total = cache_->totalBlocks();
    if (total == 0)
        return 0.0;
    return static_cast<double>(total - cache_->freeBlocks()) /
           static_cast<double>(total);
}

void
BatchScheduler::notePeaks()
{
    counters_.peak_running =
        std::max(counters_.peak_running, runningCount());
    counters_.peak_queue_depth =
        std::max(counters_.peak_queue_depth, queuedCount());
    counters_.peak_used_blocks =
        std::max(counters_.peak_used_blocks,
                 cache_->totalBlocks() - cache_->freeBlocks());
}

} // namespace comet
