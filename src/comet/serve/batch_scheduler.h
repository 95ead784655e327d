/**
 * @file
 * Continuous batching scheduler.
 *
 * Implements the iteration-level scheduling used by modern serving
 * systems (and by COMET, Section 5): at every decode step, finished
 * sequences leave the batch, and queued requests are admitted as long
 * as the KV cache can hold them and the batch is below its cap.
 * Admission is FCFS.
 *
 * Two admission policies are supported:
 *
 * - kReserveFullOutput reserves KV blocks for a request's full
 *   prompt + max_output up front, so the pool can never exhaust
 *   mid-decode. Safe but pessimistic: it caps the batch at the
 *   worst-case footprint even though most tokens are not yet
 *   generated.
 * - kOptimisticPreempt (the default; the vLLM/QServe design) admits
 *   on prompt footprint alone, plus a configurable free-block
 *   watermark. When the pool exhausts mid-step, the latest-arrived
 *   running requests are preempted back to the queue
 *   (recompute-style: their blocks are freed and they re-prefill
 *   their full context on re-admission), and the earliest requests
 *   keep making progress. KV exhaustion is thus a recoverable
 *   scheduling event, never an abort.
 *
 * Requests whose prompt + max_output can never fit the pool even
 * running alone are rejected at admission (graceful degradation)
 * instead of blocking the FCFS head forever.
 *
 * ## Chunked prefill (DESIGN.md §14)
 *
 * With BatchSchedulerConfig::chunk_tokens > 0, admission still
 * allocates a request's full (re)prefill KV footprint up front — the
 * same fits checks, the same pages, held across steps — but the
 * prefill *compute* is split into fixed-token chunks that step()
 * interleaves with decode. Each step forms a token-budget knapsack:
 * every decoding request advances one token first (decode steals
 * priority), and the remaining budget is filled with prefill chunks
 * in ascending Request::deadline_us order. Because admission order,
 * KV accounting and preemption order are identical to monolithic
 * mode, the per-request token streams are byte-identical between the
 * two modes; chunking only changes *when* virtual time is charged —
 * which is the point: decode tenants stop stalling behind long
 * prompts.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "comet/kvcache/kv_cache.h"
#include "comet/obs/metrics.h"
#include "comet/serve/request.h"

namespace comet {

/** How admission charges the KV pool for a new request. */
enum class AdmissionPolicy {
    /** Reserve prompt + max_output blocks up front; no preemption
     * ever needed. */
    kReserveFullOutput = 0,
    /** Reserve only the (re)prefill footprint plus the watermark;
     * recover from mid-decode exhaustion by preempting the
     * latest-arrived running requests. */
    kOptimisticPreempt,
};

/** Returns "reserve-full" / "optimistic-preempt". */
const char *admissionPolicyName(AdmissionPolicy policy);

/** Scheduler limits and policy knobs. */
struct BatchSchedulerConfig {
    int64_t max_batch = 256; ///< hard cap on concurrent sequences
    AdmissionPolicy admission = AdmissionPolicy::kOptimisticPreempt;
    /** Free blocks optimistic admission keeps untouched as decode
     * headroom; larger values trade batch size for fewer
     * preemptions. Ignored by kReserveFullOutput. */
    int64_t watermark_blocks = 0;
    /**
     * When true, admission itself credits every admitted request with
     * one generated token: the prefill forward pass produces the
     * request's next output token, the accounting the server uses
     * for TTFT. A request whose crediting
     * completes it (e.g. a one-token generation) retires at admission
     * without ever entering the decode batch. Off by default — the
     * offline throughput path counts tokens purely through step().
     */
    bool prefill_emits_token = false;
    /**
     * Chunked prefill: process at most this many prefill tokens per
     * request per step, interleaved with decode (see the file
     * comment). 0 (the default) keeps monolithic prefill — the whole
     * context is considered processed at admission, exactly the
     * pre-chunking behavior. With chunking on, prefill_emits_token's
     * first-token credit moves from admit() to the step() that
     * completes a request's final chunk.
     */
    int64_t chunk_tokens = 0;
    /**
     * Per-step token budget of the knapsack (decode tokens + prefill
     * chunk tokens); 0 = uncapped. Decode always runs — the budget
     * only limits how many prefill chunk tokens ride along, so a
     * budget smaller than the decode batch simply defers all prefill
     * to later steps. Ignored in monolithic mode.
     */
    int64_t step_token_budget = 0;
};

/** One prefill chunk a step plans to process. */
struct PlannedChunk {
    int64_t id = 0;            ///< the request the chunk belongs to
    int64_t tokens = 0;        ///< chunk length, tokens
    /** Prefilled tokens after this chunk — the KV prefix the chunk's
     * attention reads over (includes any grafted prefix). */
    int64_t context_after = 0;
};

/**
 * The deterministic work plan of the next step(): what decodes and
 * which prefill chunks fill the remaining token budget. Callers that
 * charge virtual time (the online server) cost the plan *before*
 * mutating state; step() recomputes the identical plan internally.
 */
struct StepPlan {
    int64_t decode_batch = 0; ///< requests advancing one token
    /** Sum of contextTokens() over the decode set (mean context is
     * decode_context_sum / decode_batch). */
    int64_t decode_context_sum = 0;
    /** Total prefill tokens across `chunks`. */
    int64_t prefill_tokens = 0;
    /** Planned chunks, in deadline order (see Request::deadline_us). */
    std::vector<PlannedChunk> chunks;

    /** Tokens the step's fused GEMM processes (decode + chunks). */
    int64_t
    gemmTokens() const
    {
        return decode_batch + prefill_tokens;
    }
};

/** Observability counters accumulated over a scheduler's lifetime. */
struct SchedulerCounters {
    int64_t admitted = 0;         ///< admissions incl. re-admissions
    int64_t preemptions = 0;      ///< evictions on KV exhaustion
    /** Context tokens that must be recomputed because their KV was
     * freed by a preemption (the wasted-work cost of optimism). */
    int64_t reprefill_tokens = 0;
    int64_t cancelled = 0;        ///< requests aborted via cancel()
    int64_t rejected = 0;         ///< requests that can never fit
    /** Prefill chunks processed by step() (0 in monolithic mode). */
    int64_t prefill_chunks = 0;
    /** Prefill chunks dropped by the `sched.chunk` failpoint (the
     * chunk is retried on a later step; never lost work). */
    int64_t chunks_dropped = 0;
    /** Context tokens grafted from the prefix cache instead of
     * prefilled (summed over admissions; the flip side of
     * reprefill_tokens — work *saved* rather than wasted). */
    int64_t prefix_matched_tokens = 0;
    int64_t peak_running = 0;     ///< max concurrent batch observed
    int64_t peak_queue_depth = 0; ///< max queue length observed
    int64_t peak_used_blocks = 0; ///< max KV blocks in use observed

    /** Peak KV utilization as a **fraction in [0, 1]** (never a
     * percent): peak_used_blocks over the pool's @p total_blocks.
     * The one shared definition — ThroughputResult and every
     * Server-session caller derive peak utilization through it, so
     * every surface reports the same unit. */
    double peakKvUtilization(int64_t total_blocks) const;

    /** Adds these counters into @p registry under
     * `serve.scheduler.*` so the obs dump covers the scheduler
     * without duplicating fields (counters are monotonic; publishing
     * twice accumulates). */
    void publishTo(obs::MetricsRegistry &registry) const;

    /** Zeroes every counter. Engine runs and server sessions call
     * this at start so two back-to-back runs report identical
     * numbers instead of accumulating across runs. */
    void reset();
};

/**
 * FCFS continuous-batching scheduler over a paged KV cache.
 */
class BatchScheduler
{
  public:
    /** Schedules over @p cache (not owned; must outlive the
     * scheduler). */
    BatchScheduler(PagedKvCache *cache, BatchSchedulerConfig config = {});

    /** Enqueues a request (takes a copy; state must be kQueued). */
    void submit(const Request &request);

    /**
     * Admits queued requests into the running batch while capacity
     * lasts; returns the number admitted. Requests that can never fit
     * the pool are rejected (state kRejected, counted) rather than
     * blocking the head. Call once per decode step.
     */
    int64_t admit();

    /**
     * Advances every running request by one generated token,
     * retiring finished ones (their KV blocks are released). When
     * the KV pool exhausts mid-step, the latest-arrived running
     * requests are preempted back to the front of the queue until
     * the append succeeds — never an abort. Returns the number of
     * tokens generated this step.
     *
     * With chunking on (BatchSchedulerConfig::chunk_tokens > 0), the
     * step first executes planStep()'s prefill chunks — each chunk
     * boundary runs the `sched.chunk` failpoint (a fired point drops
     * that chunk for this step; it is re-planned next step) — then
     * decodes the decode set. A request whose final chunk completes
     * receives its prefill_emits_token first-token credit here, and
     * retires immediately when that credit completes it.
     */
    int64_t step();

    /**
     * The deterministic plan the next step() will execute against
     * the current state: the decode set plus — with chunking on —
     * the prefill chunks filling the remaining token budget in
     * deadline order. Pure (const): callers cost the plan, then call
     * step(), which recomputes the identical plan. In monolithic
     * mode the plan is just the decode set with no chunks.
     */
    StepPlan planStep() const;

    /**
     * Aborts a request wherever it lives (queue or running batch),
     * releasing any KV blocks it holds. Fails with kInvalidArgument
     * when the id is not queued or running (e.g. already finished).
     */
    Status cancel(int64_t id);

    /** Currently running requests (the decode batch). */
    const std::vector<Request> &running() const { return running_; }

    /** Lifetime observability counters. */
    const SchedulerCounters &counters() const { return counters_; }

    /** Re-zeroes the observability counters (see
     * SchedulerCounters::reset). Called at the start of every engine
     * run and server session. */
    void resetCounters() { counters_.reset(); }

    /**
     * Returns (and clears) the requests that reached a terminal
     * state — kFinished, kRejected or kCancelled — since the last
     * call, in the order they retired, with their final token counts
     * and state. Every terminal request is retained until drained,
     * so a long-lived caller must drain regularly.
     */
    std::vector<Request> drainRetired();

    /** Fraction of KV blocks currently in use, in [0, 1]. */
    double kvUtilization() const;

    /** Requests waiting for admission. */
    int64_t queuedCount() const
    {
        return static_cast<int64_t>(queue_.size());
    }
    /** Requests in the running batch. */
    int64_t runningCount() const
    {
        return static_cast<int64_t>(running_.size());
    }
    /** Requests retired so far. */
    int64_t finishedCount() const { return finished_; }

    /** True when no work remains anywhere. */
    bool
    idle() const
    {
        return queue_.empty() && running_.empty();
    }

  private:
    /** Evicts the latest-arrived running request (the back of the
     * batch) back to the front of the queue, freeing its blocks. */
    void preemptBack();

    /** Executes @p plan's prefill chunks (chunked mode only),
     * appending the ids whose prefill completed this step to
     * @p completed; returns the first-token credits granted. */
    int64_t runChunks(const StepPlan &plan,
                      std::vector<int64_t> *completed);

    /** The running request with @p id, or nullptr. */
    Request *findRunning(int64_t id);

    /** Updates the peak-observability counters. */
    void notePeaks();

    /** Records a terminal request for drainRetired(). */
    void retire(const Request &request);

    PagedKvCache *cache_;
    BatchSchedulerConfig config_;
    std::deque<Request> queue_;
    std::vector<Request> running_;
    std::vector<Request> retired_;
    int64_t finished_ = 0;
    SchedulerCounters counters_;
};

} // namespace comet
