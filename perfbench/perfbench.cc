/**
 * @file
 * The repository benchmark: three workloads driven through the public
 * API, each printing a human-readable report followed by one JSON
 * line of results (the last line of stdout).
 *
 *   online       open-loop Poisson traffic through a 2-replica
 *                ClusterRouter (virtual clock), at a ladder of rates
 *   offline      closed max-batch ServingEngine::measureThroughput
 *                runs over the Figure 10 set plus LLaMA-2-70B at
 *                TP 1/2/4 (virtual clock)
 *   real-decode  real INT4/INT8 numerics on the host: a TinyTransformer
 *                through QuantizedDecoder, checked against the FP16
 *                DecoderSession
 *
 * Every workload sets up several times (setup_s is the median), then
 * repeats its measured pass --seconds over its nominal pass length
 * times (at least once). Virtual-clock results must be identical in
 * every pass; host-clock results keep the best time over the passes
 * (per pass, or per sample where a pass has many). run.py builds this
 * binary, runs it, and turns its JSON line into the benchmark result;
 * see README.md for every metric.
 *
 * Usage: comet_perfbench --workload <name> --seed <n> --seconds <s>
 *
 * With COMET_TRACE set, the binary makes one measured pass, records
 * spans during it only and folds them into the JSON line.
 */
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "comet/attention/decode_attention.h"
#include "comet/chaos/invariants.h"
#include "comet/cluster/cluster_loadgen.h"
#include "comet/cluster/router.h"
#include "comet/common/rng.h"
#include "comet/common/stats.h"
#include "comet/kernel/gemm_w4ax.h"
#include "comet/model/decoder_session.h"
#include "comet/model/perplexity.h"
#include "comet/model/quantized_decoder.h"
#include "comet/obs/obs.h"
#include "comet/obs/trace_session.h"
#include "comet/quant/kv_quant.h"
#include "comet/runtime/thread_pool.h"
#include "comet/serve/engine.h"
#include "comet/server/loadgen.h"
#include "comet/simd/simd.h"

#ifndef COMET_PERFBENCH_BUILD_TYPE
#define COMET_PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace comet;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    return values.empty() ? 0.0 : exactPercentile(std::move(values), 50.0);
}

/** p50 and p99 of @p values (zeros when empty). */
std::pair<double, double>
p50p99(const std::vector<double> &values)
{
    if (values.empty())
        return {0.0, 0.0};
    const std::vector<double> ps = exactPercentiles(values, {50.0, 99.0});
    return {ps[0], ps[1]};
}

/** Median host time of @p fn over @p reps calls, microseconds. */
double
medianCallUs(int reps, const std::function<void()> &fn)
{
    std::vector<double> us;
    us.reserve(static_cast<size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const auto start = Clock::now();
        fn();
        us.push_back(secondsSince(start) * 1e6);
    }
    return median(std::move(us));
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Command-line options. */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
};

/** What a workload run reports; serialized as the final JSON line. */
struct RunResult {
    std::map<std::string, double> e2e;
    std::map<std::string, double> layer;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> errors;
    /** Measured-pass host times, seconds. */
    std::vector<double> pass_s;
    /** Pre-rendered JSON array of the online ladder rungs. */
    std::string rungs_json = "[]";
    /** Traced runs: span name -> (calls, self nanoseconds). */
    std::map<std::string, std::pair<int64_t, int64_t>> spans;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
            errors.push_back(what);
        }
    }
};

/**
 * Runs @p pass once when @p tracing, or else --seconds over the
 * workload's nominal pass length @p pass_s times (at least once): a
 * pass count fixed by the arguments keeps a run's work, and so its
 * memory and its heap history, independent of the machine's speed.
 * Records each pass's host seconds.
 */
void
runPasses(const Options &opts, double pass_s, bool tracing,
          RunResult *result, const std::function<void(int)> &pass)
{
    const int passes =
        tracing ? 1 : std::max(1, static_cast<int>(opts.seconds / pass_s));
    // Spans are recorded during the measured passes only, so setup
    // never enters the traced profile.
    if (tracing)
        obs::TraceSession::global().start();
    for (int i = 0; i < passes; ++i) {
        const auto start = Clock::now();
        pass(i);
        result->pass_s.push_back(secondsSince(start));
    }
    if (tracing)
        obs::TraceSession::global().stop();
}

// ------------------------------------------------------------------
// online
// ------------------------------------------------------------------

constexpr int kReplicas = 2;
/** Nominal host seconds of one online pass (the whole ladder). */
constexpr double kOnlinePassS = 6.0;
/** One rung of the rate ladder: a multiplier on every tenant's rate,
 * run as @ref sessions sessions of the 1000-request base mix times
 * @ref request_scale. */
struct RungSpec {
    double rate_scale;
    int sessions;
    int64_t request_scale;
};
/** The ladder. kNominalRung gives the end-to-end latency metrics, so
 * it sends 20,000 requests (its p99 has 200 samples beyond), split in
 * five sessions so that host time comes in samples short enough for
 * the best-of-passes filter. */
constexpr RungSpec kLadder[] = {
    {0.5, 1, 1}, {1.0, 5, 4}, {1.5, 1, 1}, {2.0, 1, 1}, {3.0, 1, 1}};
constexpr size_t kNominalRung = 1;
/** Share of sent requests that must meet both SLO limits for a rung
 * to count towards max_rate_under_slo_rps. */
constexpr double kSloTarget = 0.9;

/**
 * The three-tenant mix: 1000 requests times @p request_scale, arriving
 * at the base rates times @p rate_scale.
 */
server::LoadgenConfig
onlineWorkload(uint64_t seed, double rate_scale, int64_t request_scale)
{
    const double scale = rate_scale;
    const int64_t n = request_scale;
    server::LoadgenConfig config;
    config.seed = seed;
    // One client thread: the submission order then matches arrival
    // order exactly at the router's edge.
    config.clients = 1;
    config.callbacks = true;

    // Interactive chat: shared system prompts, short outputs.
    server::LoadgenTenant chat;
    chat.admission.name = "chat";
    chat.admission.weight = 2.0;
    chat.admission.ttft_slo_us = 5e5;
    chat.admission.tpot_slo_us = 6e4;
    chat.admission.prefix_caching = true;
    chat.arrival_rate_per_s = 24.0 * scale;
    chat.requests = 750 * n;
    chat.prompt_min = 256;
    chat.prompt_max = 640;
    chat.output_min = 16;
    chat.output_max = 96;
    // Enough pools that consistent hashing splits the traffic evenly
    // for any seed.
    chat.shared_prompt_pools = 32;
    config.tenants.push_back(chat);

    // Agents: long shared prefixes (tool specs, scratchpads).
    server::LoadgenTenant agents;
    agents.admission.name = "agents";
    agents.admission.weight = 1.0;
    agents.admission.ttft_slo_us = 2e6;
    agents.admission.tpot_slo_us = 6e4;
    agents.admission.prefix_caching = true;
    agents.arrival_rate_per_s = 6.0 * scale;
    agents.requests = 190 * n;
    agents.prompt_min = 1536;
    agents.prompt_max = 2048;
    agents.output_min = 32;
    agents.output_max = 128;
    agents.shared_prompt_pools = 8;
    config.tenants.push_back(agents);

    // Long-context ingestion: prompts nothing else shares (one pool
    // per request, in effect), so their pages are inserted into the
    // prefix cache and evicted again.
    server::LoadgenTenant longctx;
    longctx.admission.name = "longctx";
    longctx.admission.weight = 1.0;
    longctx.admission.ttft_slo_us = 6e6;
    longctx.admission.prefix_caching = true;
    longctx.arrival_rate_per_s = 2.0 * scale;
    longctx.requests = 60 * n;
    longctx.prompt_min = 2048;
    longctx.prompt_max = 4096;
    longctx.output_min = 8;
    longctx.output_max = 32;
    longctx.shared_prompt_pools = int64_t{1} << 40;
    config.tenants.push_back(longctx);
    return config;
}

double
totalRate(const server::LoadgenConfig &config)
{
    double rate = 0.0;
    for (const server::LoadgenTenant &tenant : config.tenants)
        rate += tenant.arrival_rate_per_s;
    return rate;
}

EngineConfig
onlineEngineConfig()
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 1024;
    config.output_tokens = 64;
    // Memory binds: ~3k pages of 16 tokens per replica, a few long
    // prompts' worth next to the chat batch.
    return engineConfigWithKvBlocks(config, 3072);
}

cluster::ClusterConfig
onlineClusterConfig(const ServingEngine *engine,
                    const server::LoadgenConfig &workload)
{
    cluster::ClusterConfig config;
    for (int r = 0; r < kReplicas; ++r)
        config.replicas.push_back({engine, 1.0});
    config.server.tenants = server::loadgenTenants(workload);
    config.server.max_batch = 48;
    config.server.enable_prefix_cache = true;
    config.server.chunked_prefill_tokens = 512;
    config.server.step_token_budget = 2048;
    config.policy = cluster::RoutingPolicy::kConsistentHash;
    return config;
}

/** Per-layer values a rung yields (reported for the nominal rung). */
const char *const kRungLayer[] = {
    "cluster.prefix_affinity",  "cluster.replica_imbalance",
    "scheduler.preemptions",    "scheduler.reprefill_tokens",
    "scheduler.prefill_chunks", "scheduler.peak_queue_depth",
    "scheduler.peak_running",   "kvcache.peak_utilization",
    "prefix.hit_rate",          "prefix.matched_token_share",
    "prefix.blocks_evicted",
};

/** What a rung's sessions add up to. */
struct RungTally {
    double rate_rps = 0.0;
    int64_t sent = 0, succeeded = 0, failed = 0;
    std::vector<double> ttft_ms, tpot_ms;
    int64_t slo_met = 0, generated = 0;
    int64_t tokens = 0; ///< prompt + generated tokens of completions
    double makespan_us = 0.0;
    bool backlog_grows = false;
    int64_t affine = 0, routed = 0, routed_max = 0;
    int64_t prompt_all = 0;
    server::ServerStats prefix; ///< prefix-cache counters, summed
    SchedulerCounters sched;    ///< sums and peaks over replicas
    double peak_util = 0.0;
};

/** One rung's outcome, reduced to the numbers the report prints. */
struct Rung {
    double rate_rps = 0.0;
    int64_t sent = 0;
    int64_t succeeded = 0;
    int64_t failed = 0;
    double ttft_p50_ms = 0.0, ttft_p99_ms = 0.0;
    double tpot_p50_ms = 0.0, tpot_p99_ms = 0.0;
    double slo_attainment = 0.0;
    double tok_s = 0.0;         ///< generated tokens per virtual second
    bool backlog_grows = false;
    std::vector<double> layer;  ///< per-layer values, kRungLayer order

    bool
    operator==(const Rung &o) const
    {
        return rate_rps == o.rate_rps && sent == o.sent &&
               succeeded == o.succeeded && failed == o.failed &&
               ttft_p50_ms == o.ttft_p50_ms &&
               ttft_p99_ms == o.ttft_p99_ms &&
               tpot_p50_ms == o.tpot_p50_ms &&
               tpot_p99_ms == o.tpot_p99_ms &&
               slo_attainment == o.slo_attainment &&
               backlog_grows == o.backlog_grows && layer == o.layer;
    }
};

/**
 * Drives one session through the router, adds it to @p tally and
 * checks its outcome: every sent request ends exactly once, every
 * completion streams its EOS length, sent = succeeded + failed, and
 * each replica's KV cache passes the chaos invariant audit after the
 * drain. Returns the host seconds of the session itself, from router
 * construction to its stop.
 */
double
runSession(const ServingEngine &engine, const server::LoadgenConfig &workload,
           RungTally *tally, RunResult *result)
{
    // The checks need each request's EOS length and pool; keep only
    // the first prompt id, which names the pool.
    std::vector<server::LoadgenRequest> requests =
        server::generateLoadgenWorkload(workload);
    for (server::LoadgenRequest &req : requests) {
        if (req.prompt_ids.size() > 1)
            req.prompt_ids = std::vector<int32_t>{req.prompt_ids[0]};
    }
    const auto start = Clock::now();
    cluster::ClusterRouter router(onlineClusterConfig(&engine, workload));
    const server::LoadgenReport report =
        cluster::runClusterLoadgen(&router, workload);
    router.stop(false);
    const double host_s = secondsSince(start);

    const auto sent = static_cast<int64_t>(requests.size());
    const int64_t failed = report.rejected + report.cancelled;
    tally->rate_rps = totalRate(workload);
    tally->sent += sent;
    tally->succeeded += report.completed;
    tally->failed += failed;
    tally->makespan_us += report.makespan_us;
    const std::string tag = "rung " + std::to_string(tally->rate_rps) +
                            " req/s, seed " +
                            std::to_string(workload.seed) + ": ";

    // Terminal accounting: the loadgen's outcome slots, the router's
    // edge counters and the replicas' own counters must all agree that
    // each sent request ended exactly once.
    const cluster::ClusterStats cstats = router.stats();
    int64_t replica_terminals = 0;
    for (int r = 0; r < kReplicas; ++r) {
        const server::ServerStats s = router.replicaStats(r);
        replica_terminals += s.completed + s.rejected + s.cancelled;
        tally->prefix.prefix_hits += s.prefix_hits;
        tally->prefix.prefix_misses += s.prefix_misses;
        tally->prefix.prefix_matched_tokens += s.prefix_matched_tokens;
        tally->prefix.prefix_blocks_evicted += s.prefix_blocks_evicted;
        const SchedulerCounters c = router.replicaSchedulerCounters(r);
        SchedulerCounters &sched = tally->sched;
        sched.preemptions += c.preemptions;
        sched.reprefill_tokens += c.reprefill_tokens;
        sched.prefill_chunks += c.prefill_chunks;
        sched.peak_queue_depth =
            std::max(sched.peak_queue_depth, c.peak_queue_depth);
        sched.peak_running = std::max(sched.peak_running, c.peak_running);
        const PagedKvCache &cache = router.replicaKvCacheForAudit(r);
        tally->peak_util = std::max(
            tally->peak_util, c.peakKvUtilization(cache.totalBlocks()));
        const Status audit = chaos::checkKvCacheConsistency(cache);
        result->check(audit.isOk(), tag + "replica " + std::to_string(r) +
                                        " KV audit: " + audit.toString());
        result->check(cache.numSequences() == 0,
                      tag + "replica " + std::to_string(r) +
                          " holds live sequences after the drain");
    }
    result->check(report.submitted == sent &&
                      static_cast<int64_t>(report.outcomes.size()) == sent,
                  tag + "every sent request has one outcome");
    result->check(sent == report.completed + failed,
                  tag + "sent = succeeded + failed");
    result->check(replica_terminals + cstats.rejected + cstats.cancelled ==
                      sent,
                  tag + "replica + edge terminal events = sent");
    tally->routed_max +=*std::max_element(cstats.routed_per_replica.begin(),
                                           cstats.routed_per_replica.end());

    std::vector<double> ttft_q2, ttft_q5;
    int64_t wrong_length = 0;
    std::set<std::tuple<int, int32_t, int>> served;
    const size_t n = requests.size();
    for (size_t i = 0; i < n; ++i) {
        const server::RequestOutcome &out = report.outcomes[i];
        const server::LoadgenRequest &req = requests[i];
        tally->generated += out.tokens;
        tally->prompt_all += req.prompt_tokens;
        if (out.replica >= 0) {
            ++tally->routed;
            const int32_t pool =
                req.prompt_ids.empty() ? -1 : req.prompt_ids[0];
            if (served.count({req.tenant, pool, out.replica}) > 0)
                ++tally->affine;
            served.insert({req.tenant, pool, out.replica});
        }
        if (out.terminal != server::StreamEventKind::kFinished)
            continue;
        tally->tokens += req.prompt_tokens + out.tokens;
        wrong_length += out.tokens != req.eos_output_tokens ? 1 : 0;
        const double t = out.first_token_us - out.arrival_us;
        tally->ttft_ms.push_back(t * 1e-3);
        // Backlog growth: compare the second and the last fifth of
        // arrivals (the first fifth is the warm-up).
        if (i >= n / 5 && i < 2 * n / 5)
            ttft_q2.push_back(t);
        if (i >= 4 * n / 5)
            ttft_q5.push_back(t);
        if (out.tokens > 1)
            tally->tpot_ms.push_back((out.last_token_us - out.first_token_us) *
                                     1e-3 /
                                     static_cast<double>(out.tokens - 1));
    }
    for (const server::LoadgenTenantReport &row : report.tenants)
        tally->slo_met += row.slo_met;
    result->check(wrong_length == 0,
                  tag + "every completion streamed its EOS length");
    tally->backlog_grows =
        tally->backlog_grows ||
        median(ttft_q5) > 2.0 * median(ttft_q2) + 1e5; // + 100 ms
    return host_s;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

Rung
finishRung(const RungTally &t)
{
    Rung rung;
    rung.rate_rps = t.rate_rps;
    rung.sent = t.sent;
    rung.succeeded = t.succeeded;
    rung.failed = t.failed;
    std::tie(rung.ttft_p50_ms, rung.ttft_p99_ms) = p50p99(t.ttft_ms);
    std::tie(rung.tpot_p50_ms, rung.tpot_p99_ms) = p50p99(t.tpot_ms);
    rung.slo_attainment = ratio(static_cast<double>(t.slo_met),
                                static_cast<double>(t.sent));
    rung.tok_s = ratio(static_cast<double>(t.generated), t.makespan_us * 1e-6);
    rung.backlog_grows = t.backlog_grows;
    const auto d = [](int64_t v) { return static_cast<double>(v); };
    rung.layer = {
        ratio(d(t.affine), d(t.routed)),
        ratio(d(t.routed_max) * kReplicas, d(t.routed)),
        d(t.sched.preemptions),
        d(t.sched.reprefill_tokens),
        d(t.sched.prefill_chunks),
        d(t.sched.peak_queue_depth),
        d(t.sched.peak_running),
        t.peak_util,
        ratio(d(t.prefix.prefix_hits),
              d(t.prefix.prefix_hits + t.prefix.prefix_misses)),
        ratio(d(t.prefix.prefix_matched_tokens), d(t.prompt_all)),
        d(t.prefix.prefix_blocks_evicted),
    };
    return rung;
}

std::string
rungsJson(const std::vector<Rung> &rungs)
{
    std::string out = "[";
    char buf[512];
    for (size_t i = 0; i < rungs.size(); ++i) {
        const Rung &r = rungs[i];
        std::snprintf(
            buf, sizeof(buf),
            "%s{\"rate_rps\":%.17g,\"nominal\":%s,\"sent\":%lld,"
            "\"succeeded\":%lld,\"failed\":%lld,\"ttft_p50_ms\":%.17g,"
            "\"ttft_p99_ms\":%.17g,\"tpot_p50_ms\":%.17g,"
            "\"tpot_p99_ms\":%.17g,\"slo_attainment\":%.17g,"
            "\"backlog_grows\":%s}",
            i > 0 ? "," : "", r.rate_rps,
            i == kNominalRung ? "true" : "false",
            static_cast<long long>(r.sent),
            static_cast<long long>(r.succeeded),
            static_cast<long long>(r.failed), r.ttft_p50_ms, r.ttft_p99_ms,
            r.tpot_p50_ms, r.tpot_p99_ms, r.slo_attainment,
            r.backlog_grows ? "true" : "false");
        out += buf;
    }
    return out + "]";
}

RunResult
runOnline(const Options &opts, bool tracing)
{
    RunResult result;
    // Set-up: the replicas' engine plus a router over it (replica
    // servers, prefix-cached KV pools, loop threads), torn down again.
    const server::LoadgenConfig nominal = onlineWorkload(opts.seed, 1.0, 1);
    result.e2e["setup_s"] = 1e-6 * medianCallUs(101, [&] {
        const ServingEngine engine(onlineEngineConfig());
        cluster::ClusterRouter router(onlineClusterConfig(&engine, nominal));
        router.stop(false);
    });
    const ServingEngine engine(onlineEngineConfig());

    // Session k of a rung draws its workload from seed * 16 + k.
    std::vector<Rung> first;
    std::vector<double> best_session_s; // per session, best over passes
    std::vector<int64_t> session_tokens;
    runPasses(opts, kOnlinePassS, tracing, &result, [&](int pass) {
        std::vector<Rung> rungs;
        size_t session = 0;
        for (const RungSpec &spec : kLadder) {
            RungTally tally;
            for (int k = 0; k < spec.sessions; ++k, ++session) {
                const int64_t tokens_before = tally.tokens;
                const double s = runSession(
                    engine,
                    onlineWorkload(opts.seed * 16 + k, spec.rate_scale,
                                   spec.request_scale),
                    &tally, &result);
                if (pass == 0) {
                    best_session_s.push_back(s);
                    session_tokens.push_back(tally.tokens - tokens_before);
                } else {
                    best_session_s[session] =
                        std::min(best_session_s[session], s);
                }
                // Hand the session's freed heap back to the system, so
                // the peak RSS is one session's and not the allocator's
                // history over every earlier session and pass.
                malloc_trim(0);
            }
            rungs.push_back(finishRung(tally));
        }
        for (const Rung &rung : rungs) {
            result.attempted += rung.sent;
            result.failed += rung.failed;
        }
        if (pass == 0)
            first = rungs;
        else
            result.check(rungs == first,
                         "pass " + std::to_string(pass) +
                             " replays the first pass's virtual results");
    });

    std::printf("online ladder (virtual clock; LLaMA-3-8B W4A4KV4, "
                "%d replicas, consistent hash):\n",
                kReplicas);
    std::printf("  %9s %6s %6s %6s %10s %10s %10s %10s %8s %s\n", "req/s",
                "sent", "ok", "failed", "ttft p50", "ttft p99", "tpot p50",
                "tpot p99", "slo", "backlog");
    double max_rate = 0.0;
    for (size_t i = 0; i < first.size(); ++i) {
        const Rung &r = first[i];
        std::printf("  %9.3f %6lld %6lld %6lld %10.2f %10.2f %10.2f %10.2f "
                    "%8.4f %s%s\n",
                    r.rate_rps, static_cast<long long>(r.sent),
                    static_cast<long long>(r.succeeded),
                    static_cast<long long>(r.failed), r.ttft_p50_ms,
                    r.ttft_p99_ms, r.tpot_p50_ms, r.tpot_p99_ms,
                    r.slo_attainment, r.backlog_grows ? "grows" : "steady",
                    i == kNominalRung ? "  <- nominal" : "");
        if (r.slo_attainment >= kSloTarget && !r.backlog_grows)
            max_rate = std::max(max_rate, r.rate_rps);
    }
    result.rungs_json = rungsJson(first);

    const Rung &nom = first[kNominalRung];
    result.e2e["ttft_p50_ms"] = nom.ttft_p50_ms;
    result.e2e["ttft_p99_ms"] = nom.ttft_p99_ms;
    result.e2e["tpot_p50_ms"] = nom.tpot_p50_ms;
    result.e2e["tpot_p99_ms"] = nom.tpot_p99_ms;
    result.e2e["tok_s"] = nom.tok_s;
    double tokens = 0.0, best_s = 0.0;
    for (size_t i = 0; i < best_session_s.size(); ++i) {
        tokens += static_cast<double>(session_tokens[i]);
        best_s += best_session_s[i];
    }
    result.e2e["tok_per_host_s"] = tokens / best_s;
    result.layer["slo_attainment"] = nom.slo_attainment;
    result.layer["max_rate_under_slo_rps"] = max_rate;
    result.layer["failed_frac"] = ratio(static_cast<double>(nom.failed),
                                        static_cast<double>(nom.sent));
    for (size_t i = 0; i < std::size(kRungLayer); ++i)
        result.layer[kRungLayer[i]] = nom.layer[i];
    return result;
}

// ------------------------------------------------------------------
// offline
// ------------------------------------------------------------------

/** One closed max-batch run of the sweep. */
struct OfflineRun {
    std::string model;
    int64_t setting = 0; ///< index into kSettings
    ServingMode mode = ServingMode::kCometW4AxKv4;
    int tp = 1;
    bool fig10 = true; ///< part of the Figure 10 sweep (not the TP runs)
    EngineConfig config;
};

/** Nominal host seconds of one offline pass (every run once). */
constexpr double kOfflinePassS = 10.0;

/** The Figure 10 input/output settings and the paper's COMET vs
 * TRT-LLM-W4A16 speedup at each. */
struct Setting {
    int64_t input, output;
    double paper_vs_w4a16;
};
constexpr Setting kSettings[] = {{1024, 512, 2.02}, {128, 128, 1.63}};
/** The paper's COMET vs QServe speedup (Figure 10, both settings). */
constexpr double kPaperVsQserve = 1.17;

const char *const kFig10Models[] = {
    "Mistral-7B",  "LLaMA-3-8B",  "LLaMA-2-13B", "LLaMA-1-30B",
    "LLaMA-1-65B", "LLaMA-2-70B", "LLaMA-3-70B", "Qwen2-72B"};
constexpr ServingMode kOfflineModes[] = {ServingMode::kTrtW4A16,
                                         ServingMode::kQserveW4A8Kv4,
                                         ServingMode::kCometW4AxKv4};

/**
 * The sweep. The seed jitters each (model, setting)'s prompt and
 * output lengths by up to ±1/32 around the paper's setting, so runs
 * with different seeds measure different inputs; every mode of one
 * (model, setting) shares the same lengths.
 */
std::vector<OfflineRun>
offlineRuns(uint64_t seed)
{
    Rng rng(seed);
    auto jitter = [&rng](int64_t base) {
        const int64_t span = base / 32;
        return base - span +
               static_cast<int64_t>(rng.uniformInt(
                   static_cast<uint64_t>(2 * span + 1)));
    };
    std::vector<OfflineRun> runs;
    for (int64_t s = 0; s < 2; ++s) {
        for (const char *name : kFig10Models) {
            EngineConfig config;
            config.model = LlmConfig::byName(name);
            config.input_tokens = jitter(kSettings[s].input);
            config.output_tokens = jitter(kSettings[s].output);
            for (ServingMode mode : kOfflineModes) {
                config.mode = mode;
                runs.push_back({name, s, mode, 1, true, config});
            }
        }
    }
    // LLaMA-2-70B under tensor parallelism at the long setting.
    EngineConfig tp_config;
    tp_config.model = LlmConfig::llama2_70b();
    tp_config.mode = ServingMode::kCometW4AxKv4;
    tp_config.input_tokens = jitter(kSettings[0].input);
    tp_config.output_tokens = jitter(kSettings[0].output);
    for (int tp : {1, 2, 4}) {
        tp_config.tensor_parallel = tp;
        runs.push_back(
            {"LLaMA-2-70B", 0, tp_config.mode, tp, false, tp_config});
    }
    return runs;
}

bool
sameThroughput(const ThroughputResult &a, const ThroughputResult &b)
{
    return a.tokens_per_second == b.tokens_per_second &&
           a.batch == b.batch && a.decode_step_us == b.decode_step_us &&
           a.prefill_us == b.prefill_us && a.mean_batch == b.mean_batch &&
           a.preemptions == b.preemptions;
}

RunResult
runOffline(const Options &opts, bool tracing)
{
    RunResult result;
    const std::vector<OfflineRun> runs = offlineRuns(opts.seed);
    std::vector<ServingEngine> engines;
    // Set-up: every engine of the sweep, sized for its KV budget.
    result.e2e["setup_s"] = 1e-6 * medianCallUs(21, [&] {
        engines.clear();
        engines.reserve(runs.size());
        for (const OfflineRun &run : runs) {
            engines.emplace_back(run.config);
            (void)engines.back().maxBatchSize();
        }
    });

    std::vector<ThroughputResult> first;
    runPasses(opts, kOfflinePassS, tracing, &result, [&](int pass) {
        std::vector<ThroughputResult> results;
        results.reserve(engines.size());
        for (const ServingEngine &engine : engines)
            results.push_back(engine.measureThroughput());
        result.attempted += static_cast<int64_t>(results.size());
        for (size_t i = 0; i < results.size(); ++i) {
            const bool served = results[i].batch > 0 &&
                                results[i].tokens_per_second > 0.0 &&
                                std::isfinite(results[i].tokens_per_second);
            result.failed += served ? 0 : 1;
            result.check(served, runs[i].model + " " +
                                     servingModeName(runs[i].mode) +
                                     " serves a batch");
        }
        if (pass == 0) {
            first = results;
            return;
        }
        bool same = true;
        for (size_t i = 0; i < results.size(); ++i)
            same = same && sameThroughput(results[i], first[i]);
        result.check(same, "pass " + std::to_string(pass) +
                               " replays the first pass's virtual results");
    });

    // Figure 10 ratios (TP = 1 runs only) and COMET's own numbers.
    double vs_w4a16[2] = {0.0, 0.0};
    int counted[2] = {0, 0};
    double comet_norm = 0.0, qserve_norm = 0.0;
    double comet_tokens = 0.0, comet_virtual_s = 0.0;
    double all_tokens = 0.0;
    std::vector<double> ttft_ms, tpot_ms;
    double mean_batch = 0.0, decode_us = 0.0, prefill_us = 0.0, kv_bytes = 0.0;
    int comet_runs = 0;
    std::map<std::pair<std::string, int64_t>, std::map<ServingMode, double>>
        tps;
    for (size_t i = 0; i < runs.size(); ++i) {
        const OfflineRun &run = runs[i];
        const ThroughputResult &r = first[i];
        const double tokens = static_cast<double>(r.batch) *
                              static_cast<double>(run.config.output_tokens);
        all_tokens += tokens;
        if (run.mode == ServingMode::kCometW4AxKv4) {
            ttft_ms.push_back(r.prefill_us * 1e-3);
            tpot_ms.push_back(r.decode_step_us * 1e-3);
        }
        if (!run.fig10)
            continue;
        tps[{run.model, run.setting}][run.mode] = r.tokens_per_second;
        if (run.mode == ServingMode::kCometW4AxKv4) {
            comet_tokens += tokens;
            comet_virtual_s += tokens / r.tokens_per_second;
            mean_batch += r.mean_batch;
            decode_us += r.decode_step_us;
            prefill_us += r.prefill_us;
            kv_bytes += r.kv_bytes_per_seq;
            ++comet_runs;
        }
    }
    for (const auto &[key, by_mode] : tps) {
        const double base = by_mode.at(ServingMode::kTrtW4A16);
        const double comet = by_mode.at(ServingMode::kCometW4AxKv4);
        vs_w4a16[key.second] += comet / base;
        ++counted[key.second];
        comet_norm += comet / base;
        qserve_norm += by_mode.at(ServingMode::kQserveW4A8Kv4) / base;
    }
    const double measured[3] = {vs_w4a16[0] / counted[0],
                                vs_w4a16[1] / counted[1],
                                comet_norm / qserve_norm};
    const double paper[3] = {kSettings[0].paper_vs_w4a16,
                             kSettings[1].paper_vs_w4a16, kPaperVsQserve};
    double gap = 0.0;
    std::printf("offline paper anchors (Figure 10, virtual clock):\n");
    const char *anchor_names[3] = {"COMET/TRT-W4A16 1024/512",
                                   "COMET/TRT-W4A16 128/128",
                                   "COMET/QServe"};
    for (int a = 0; a < 3; ++a) {
        gap += std::fabs(std::log(measured[a] / paper[a])) / 3.0;
        std::printf("  %-26s measured %.3fx  paper %.2fx\n", anchor_names[a],
                    measured[a], paper[a]);
    }
    std::printf("  paper_gap (mean |ln(measured/paper)|) = %.4f\n", gap);

    std::tie(result.e2e["ttft_p50_ms"], result.e2e["ttft_p99_ms"]) =
        p50p99(ttft_ms);
    std::tie(result.e2e["tpot_p50_ms"], result.e2e["tpot_p99_ms"]) =
        p50p99(tpot_ms);
    result.e2e["tok_s"] = comet_tokens / comet_virtual_s;
    // Every pass does the same work, so the fastest carries the least
    // interference from the rest of the machine.
    result.e2e["tok_per_host_s"] =
        all_tokens /
        *std::min_element(result.pass_s.begin(), result.pass_s.end());
    result.layer["paper_gap"] = gap;
    result.layer["engine.mean_batch"] = mean_batch / comet_runs;
    result.layer["engine.decode_step_us"] = decode_us / comet_runs;
    result.layer["engine.prefill_us"] = prefill_us / comet_runs;
    result.layer["engine.kv_bytes_per_seq"] = kv_bytes / comet_runs;

    // Layer probes through the public API: the host cost of costing
    // the largest prefill, and the TP all-reduce at decode M.
    EngineConfig probe;
    probe.model = LlmConfig::llama3_8b();
    probe.input_tokens = kSettings[0].input;
    probe.output_tokens = kSettings[0].output;
    const ServingEngine probe_engine(probe);
    const int64_t max_batch = probe_engine.maxBatchSize();
    double sink = 0.0;
    result.layer["gpusim.prefill_cost_host_us"] = medianCallUs(
        3, [&] { sink += probe_engine.prefillLatencyUs(max_batch); });
    result.check(sink > 0.0, "prefill costing is positive");
    for (size_t i = 0; i < runs.size(); ++i) {
        if (runs[i].tp > 1)
            result.layer["tp.allreduce_us.tp" + std::to_string(runs[i].tp)] =
                engines[i].allReduceLatencyUs(first[i].batch);
    }
    return result;
}

// ------------------------------------------------------------------
// real-decode
// ------------------------------------------------------------------

/** Nominal host seconds of one real-decode pass. */
constexpr double kRealDecodePassS = 5.0;
/** Prompt tokens of every real-decode sequence. */
constexpr int64_t kPromptTokens = 128;
/** Context the long sequence is generated out to. */
constexpr int64_t kMaxContext = 2048;
/** Prefill-only sequences per pass (the TTFT samples). */
constexpr int kPrefillSequences = 16;
/** Tokens decoded per timed segment. */
constexpr int64_t kSegmentTokens = 64;
/** Floor on the W4A4KV4 decoder's top-1 agreement with FP16 (chance
 * is 1/512). Seeds 1 to 24 measure 0.241 to 0.314 (median 0.28), so a
 * quantization change that loses a quarter of it fails the run. */
constexpr double kMinTokenMatch = 0.21;
/** Decode requests whose TPOT the real-decode percentiles are over. */
constexpr int kDecodeRequests = 1000;

/** Contexts the timed decode segments start from: every 128 tokens
 * from the prompt on, plus the segment that ends at kMaxContext. */
std::vector<int64_t>
segmentStarts()
{
    std::vector<int64_t> starts;
    for (int64_t c = kPromptTokens; c < kMaxContext - kSegmentTokens;
         c += 128)
        starts.push_back(c);
    starts.push_back(kMaxContext - kSegmentTokens);
    return starts;
}

TinyTransformerConfig
tinyConfig()
{
    TinyTransformerConfig config;
    config.vocab_size = 512;
    config.hidden_size = 128;
    config.num_heads = 4;
    config.num_kv_heads = 2;
    config.num_layers = 2;
    config.intermediate_size = 256;
    config.seed = 7;
    return config;
}

/** The fixed model with everything the quantized decoder is built
 * from; the seed only drives the token streams. */
struct RealModel {
    TinyTransformer teacher;
    CalibrationData calibration;
};

RealModel
buildRealModel()
{
    TinyTransformer teacher = TinyTransformer::random(tinyConfig());
    Rng rng(11);
    const Dataset calib = sampleDataset(teacher, 3, 32, rng);
    CalibrationData calibration = CalibrationData::collect(teacher, calib);
    return {std::move(teacher), std::move(calibration)};
}

int32_t
argmax(const std::vector<float> &logits)
{
    return static_cast<int32_t>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
}

bool
allFinite(const std::vector<float> &logits)
{
    return std::all_of(logits.begin(), logits.end(),
                       [](float v) { return std::isfinite(v); });
}

/** Samples a token from softmax(@p logits) at temperature 1. */
int32_t
sampleToken(const std::vector<float> &logits, Rng &rng)
{
    const float top = *std::max_element(logits.begin(), logits.end());
    double total = 0.0;
    for (float v : logits)
        total += std::exp(static_cast<double>(v - top));
    double u = rng.uniform() * total;
    for (size_t i = 0; i < logits.size(); ++i) {
        u -= std::exp(static_cast<double>(logits[i] - top));
        if (u <= 0.0)
            return static_cast<int32_t>(i);
    }
    return static_cast<int32_t>(logits.size() - 1);
}

std::vector<int32_t>
randomPrompt(Rng &rng, int64_t vocab)
{
    std::vector<int32_t> prompt(static_cast<size_t>(kPromptTokens));
    for (int32_t &token : prompt)
        token = static_cast<int32_t>(
            rng.uniformInt(static_cast<uint64_t>(vocab)));
    return prompt;
}

Tensor
gaussianTensor(int64_t rows, int64_t cols, Rng &rng)
{
    Tensor t(rows, cols);
    for (int64_t i = 0; i < t.numel(); ++i)
        t.data()[i] = static_cast<float>(rng.gaussian());
    return t;
}

RunResult
runRealDecode(const Options &opts, bool tracing)
{
    RunResult result;
    const QuantizedDecoderConfig qconfig;
    // Set-up: model construction, calibration, FMPQ quantizer
    // calibration and W4Ax weight packing.
    result.e2e["setup_s"] = 1e-6 * medianCallUs(5, [&] {
        const RealModel model = buildRealModel();
        const QuantizedDecoder decoder(model.teacher, model.calibration,
                                       qconfig);
        (void)decoder;
    });
    const RealModel model = buildRealModel();
    const QuantizedDecoder fresh(model.teacher, model.calibration, qconfig);
    const int64_t vocab = model.teacher.config().vocab_size;

    // The token stream: a seeded prompt, continued by sampling from
    // the FP16 session, whose top-1 choices are the quality reference.
    Rng rng(opts.seed);
    std::vector<int32_t> stream = randomPrompt(rng, vocab);
    // reference_top[i]: the FP16 top-1 after token kPromptTokens - 1 + i.
    std::vector<int32_t> reference_top;
    {
        DecoderSession reference(model.teacher);
        std::vector<float> logits = reference.prefill(stream);
        for (;;) {
            reference_top.push_back(argmax(logits));
            if (static_cast<int64_t>(stream.size()) == kMaxContext)
                break;
            stream.push_back(sampleToken(logits, rng));
            logits = reference.step(stream.back());
        }
    }
    std::vector<std::vector<int32_t>> prompts;
    for (int i = 0; i < kPrefillSequences; ++i)
        prompts.push_back(randomPrompt(rng, vocab));
    // Output lengths of the decode requests: each continues the prompt
    // along the stream, from one segment out to kMaxContext.
    std::vector<int64_t> request_tokens;
    for (int r = 0; r < kDecodeRequests; ++r)
        request_tokens.push_back(
            kSegmentTokens +
            static_cast<int64_t>(rng.uniformInt(static_cast<uint64_t>(
                kMaxContext - kPromptTokens - kSegmentTokens + 1))));

    const std::vector<int32_t> prompt(stream.begin(),
                                      stream.begin() + kPromptTokens);

    // The quality pass (not timed): the whole stream through the
    // W4A4KV4 decoder, teacher-forced, keeping its top-1 choices and a
    // copy of the decoder at the start of every timed segment.
    const std::vector<int64_t> starts = segmentStarts();
    std::map<int64_t, QuantizedDecoder> snapshots;
    std::vector<int32_t> top; // top[i]: after token kPromptTokens - 1 + i
    int64_t nonfinite = 0;
    {
        QuantizedDecoder decoder = fresh;
        std::vector<float> logits = decoder.prefill(prompt);
        for (int64_t t = kPromptTokens;; ++t) {
            nonfinite += allFinite(logits) ? 0 : 1;
            top.push_back(argmax(logits));
            if (t == kMaxContext)
                break;
            if (std::binary_search(starts.begin(), starts.end(), t))
                snapshots.emplace(t, decoder);
            logits = decoder.step(stream[static_cast<size_t>(t)]);
        }
    }
    int64_t matches = 0;
    for (size_t i = 0; i < top.size(); ++i)
        matches += top[i] == reference_top[i] ? 1 : 0;
    const double token_match =
        static_cast<double>(matches) / static_cast<double>(top.size());
    result.check(nonfinite == 0, "quality pass: every logit is finite");
    result.check(token_match >= kMinTokenMatch,
                 "W4A4KV4 top-1 agreement with FP16 stays at or above " +
                     std::to_string(kMinTokenMatch));
    std::printf("real-decode (host clock; hidden %lld, %lld layers, prompt "
                "%lld, context %lld): top-1 match %.4f over %zu tokens\n",
                static_cast<long long>(tinyConfig().hidden_size),
                static_cast<long long>(tinyConfig().num_layers),
                static_cast<long long>(kPromptTokens),
                static_cast<long long>(kMaxContext), token_match,
                top.size());

    // Timed passes: every segment decoded from its snapshot, and every
    // prompt prefilled from scratch. Each sample keeps its best time
    // over the passes, which filters out interference from the rest of
    // the machine (the work of one sample is identical in every pass).
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> tok_ms(starts.size() * kSegmentTokens, kInf);
    std::vector<double> ttft_ms(prompts.size(), kInf);
    runPasses(opts, kRealDecodePassS, tracing, &result, [&](int pass) {
        int64_t bad = 0, replayed = 0;
        for (size_t s = 0; s < starts.size(); ++s) {
            QuantizedDecoder decoder = snapshots.at(starts[s]);
            for (int64_t j = 0; j < kSegmentTokens; ++j) {
                const int64_t t = starts[s] + j;
                const auto start = Clock::now();
                const std::vector<float> logits =
                    decoder.step(stream[static_cast<size_t>(t)]);
                double &best = tok_ms[s * kSegmentTokens + j];
                best = std::min(best, secondsSince(start) * 1e3);
                bad += allFinite(logits) ? 0 : 1;
                replayed += argmax(logits) ==
                                    top[static_cast<size_t>(
                                        t - kPromptTokens + 1)]
                                ? 1
                                : 0;
            }
        }
        for (size_t i = 0; i < prompts.size(); ++i) {
            QuantizedDecoder decoder = fresh;
            const auto start = Clock::now();
            const std::vector<float> logits = decoder.prefill(prompts[i]);
            ttft_ms[i] = std::min(ttft_ms[i], secondsSince(start) * 1e3);
            bad += allFinite(logits) ? 0 : 1;
        }
        const auto steps =
            static_cast<int64_t>(starts.size()) * kSegmentTokens;
        result.attempted += steps + static_cast<int64_t>(prompts.size());
        result.failed += bad;
        result.check(bad == 0, "pass " + std::to_string(pass) +
                                   ": every logit is finite");
        result.check(replayed == steps,
                     "pass " + std::to_string(pass) +
                         " replays the quality pass's top-1 tokens");
    });

    double decode_ms = 0.0, prefill_ms = 0.0;
    for (double ms : tok_ms)
        decode_ms += ms;
    for (double ms : ttft_ms)
        prefill_ms += ms;
    const double decode_tokens = static_cast<double>(tok_ms.size());
    const double prefill_tokens =
        static_cast<double>(prompts.size() * kPromptTokens);
    std::tie(result.e2e["ttft_p50_ms"], result.e2e["ttft_p99_ms"]) =
        p50p99(ttft_ms);
    // Request-level TPOT, as on the online workload: a request's TPOT
    // is the mean of the timed steps inside its generation (tok_ms is
    // in context order). Its percentiles move smoothly with the cost at
    // every context, where a per-token median would sit wherever that
    // cost is steepest (the KV history outgrowing a cache level).
    std::vector<double> step_prefix_ms{0.0};
    for (double ms : tok_ms)
        step_prefix_ms.push_back(step_prefix_ms.back() + ms);
    std::vector<double> tpot_ms;
    for (int64_t tokens : request_tokens) {
        // The request decodes its tokens after the first at contexts
        // below kPromptTokens + tokens - 1.
        int64_t steps = 0;
        for (int64_t start : starts)
            steps += std::clamp(kPromptTokens + tokens - 1 - start,
                                int64_t{0}, kSegmentTokens);
        tpot_ms.push_back(step_prefix_ms[static_cast<size_t>(steps)] /
                          static_cast<double>(steps));
    }
    std::tie(result.e2e["tpot_p50_ms"], result.e2e["tpot_p99_ms"]) =
        p50p99(tpot_ms);
    result.e2e["tok_s"] = decode_tokens / (decode_ms * 1e-3);
    result.e2e["tok_per_host_s"] =
        (prefill_tokens + decode_tokens) / ((prefill_ms + decode_ms) * 1e-3);
    result.layer["real_token_match"] = token_match;
    result.layer["real_prefill_tok_s"] = prefill_tokens / (prefill_ms * 1e-3);
    // The segments starting at context 256 and ending at kMaxContext.
    const auto segment_ms = [&](size_t s) {
        return median(std::vector<double>(
            tok_ms.begin() + static_cast<int64_t>(s) * kSegmentTokens,
            tok_ms.begin() + static_cast<int64_t>(s + 1) * kSegmentTokens));
    };
    result.layer["model.tok_ms.ctx256"] = segment_ms(1);
    result.layer["model.tok_ms.ctx2048"] = segment_ms(starts.size() - 1);

    // Layer probes: the decoder's own operators, timed one call at a
    // time on layer 0's shapes.
    const TinyTransformerConfig &mc = model.teacher.config();
    const FmpqActivationQuantizer quantizer = FmpqActivationQuantizer::calibrate(
        model.calibration.activations(0, ActSite::kQkv), qconfig.fmpq);
    W4AxGemmConfig gconfig;
    gconfig.tile_m = qconfig.tile_m;
    gconfig.tile_n = qconfig.tile_n;
    gconfig.tile_k = qconfig.tile_k;
    gconfig.threads = qconfig.gemm_threads;
    const W4AxGemm gemm(
        quantizer.quantizeWeight(model.teacher.weight({0, WeightKind::kQ})),
        quantizer.blockPrecisions(), gconfig);
    Rng probe_rng(opts.seed + 1);
    const Tensor row = gaussianTensor(1, mc.hidden_size, probe_rng);
    const Tensor rows = gaussianTensor(kPromptTokens, mc.hidden_size,
                                       probe_rng);
    const MixedQuantizedActivation act_row = quantizer.quantize(row);
    const MixedQuantizedActivation act_rows = quantizer.quantize(rows);
    result.layer["quant.act_quantize_us"] =
        medianCallUs(201, [&] { (void)quantizer.quantize(row); });
    result.layer["kernel.w4ax_m1_us"] =
        medianCallUs(201, [&] { (void)gemm.run(act_row); });
    result.layer["kernel.w4ax_prefill_us"] =
        medianCallUs(21, [&] { (void)gemm.run(act_rows); });
    W4AxGemmStats stats;
    (void)gemm.run(act_rows, &stats);
    result.layer["kernel.w4a4_tile_fraction"] = stats.w4a4TileFraction();
    result.layer["kernel.conversion_instructions"] =
        static_cast<double>(stats.conversion_instructions);

    AttentionConfig attn;
    attn.num_heads = mc.num_heads;
    attn.num_kv_heads = mc.num_kv_heads;
    attn.head_dim = mc.headDim();
    const KvCacheQuantizer kvq(qconfig.kv);
    std::vector<float> q(static_cast<size_t>(attn.qDim()));
    for (float &v : q)
        v = static_cast<float>(probe_rng.gaussian());
    for (int64_t ctx : {int64_t{256}, kMaxContext}) {
        const Tensor k = gaussianTensor(ctx, attn.kvDim(), probe_rng);
        const Tensor v = gaussianTensor(ctx, attn.kvDim(), probe_rng);
        const std::string suffix = ".ctx" + std::to_string(ctx);
        result.layer["quant.kv_quantize_us" + suffix] =
            medianCallUs(ctx > 256 ? 21 : 101, [&] { (void)kvq.quantize(k); });
        const QuantizedKv qk = kvq.quantize(k);
        const QuantizedKv qv = kvq.quantize(v);
        result.layer["attention.decode_us" + suffix] =
            medianCallUs(ctx > 256 ? 21 : 101, [&] {
                (void)decodeAttentionQuantized(attn, q, qk, qv, kvq);
            });
        if (ctx == kMaxContext) {
            // Bytes held by the packed K and V tensors (values plus
            // per-group parameters), from their sizes, per token and
            // over every layer.
            const auto bytes = [](const QuantizedKv &t) {
                return static_cast<double>(t.data.rows() * t.data.cols()) +
                       static_cast<double>(t.params.size() *
                                           sizeof(QuantParams));
            };
            const double per_tok = (bytes(qk) + bytes(qv)) *
                                   static_cast<double>(mc.num_layers) /
                                   static_cast<double>(ctx);
            result.layer["attention.kv_bytes_per_tok"] = per_tok;
            result.layer["model.kv_cache_bytes"] =
                per_tok * static_cast<double>(kMaxContext);
        }
    }
    return result;
}

// ------------------------------------------------------------------

/**
 * Folds the trace session's records (what COMET_TRACE exports as a
 * Chrome trace) into per-name call counts and self time: a span's
 * duration minus what its direct children cover, nesting taken from
 * the recorded depth on each thread. Folding in-process spares the
 * online workload's ~150 MB trace file.
 */
std::map<std::string, std::pair<int64_t, int64_t>>
foldSpans(std::vector<obs::SpanRecord> spans)
{
    std::sort(spans.begin(), spans.end(),
              [](const obs::SpanRecord &a, const obs::SpanRecord &b) {
                  return std::make_tuple(a.tid, a.begin_ns, b.end_ns) <
                         std::make_tuple(b.tid, b.begin_ns, a.end_ns);
              });
    std::map<std::string, std::pair<int64_t, int64_t>> fold;
    std::vector<const obs::SpanRecord *> stack;
    int tid = -1;
    for (const obs::SpanRecord &span : spans) {
        if (span.tid != tid) {
            stack.clear();
            tid = span.tid;
        }
        stack.resize(std::min(stack.size(), static_cast<size_t>(span.depth)));
        const int64_t dur = span.end_ns - span.begin_ns;
        if (!stack.empty())
            fold[stack.back()->name].second -= dur;
        auto &entry = fold[span.name];
        ++entry.first;
        entry.second += dur;
        stack.push_back(&span);
    }
    return fold;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
jsonObject(const std::map<std::string, double> &values)
{
    std::string out = "{";
    char buf[64];
    for (const auto &[name, value] : values) {
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        out += (out.size() > 1 ? ",\"" : "\"") + name + "\":" + buf;
    }
    return out + "}";
}

void
printResult(const Options &opts, const RunResult &result)
{
    const char *threads_env = std::getenv("COMET_THREADS");
    std::string errors = "[";
    for (const std::string &e : result.errors)
        errors += (errors.size() > 1 ? ",\"" : "\"") + jsonEscape(e) + "\"";
    errors += "]";
    std::string passes = "[";
    char buf[64];
    for (double s : result.pass_s) {
        std::snprintf(buf, sizeof(buf), "%.17g", s);
        passes += (passes.size() > 1 ? "," : "") + std::string(buf);
    }
    passes += "]";
    std::string spans = "{";
    for (const auto &[name, fold] : result.spans) {
        std::snprintf(buf, sizeof(buf), "\":[%lld,%lld]",
                      static_cast<long long>(fold.first),
                      static_cast<long long>(fold.second));
        spans += (spans.size() > 1 ? ",\"" : "\"") + jsonEscape(name) + buf;
    }
    spans += "}";
    std::printf(
        "{\"workload\":\"%s\",\"env\":{\"nproc\":%u,\"comet_threads\":%d,"
        "\"comet_threads_env\":\"%s\",\"simd\":\"%s\",\"build_type\":\"%s\","
        "\"seed\":%llu},\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
        "\"errors\":%s,\"pass_s\":%s,\"e2e\":%s,\"layer\":%s,\"rungs\":%s,"
        "\"spans\":%s}\n",
        opts.workload.c_str(), std::thread::hardware_concurrency(),
        ThreadPool::global().threadCount(),
        threads_env != nullptr ? jsonEscape(threads_env).c_str() : "",
        simd::modeName(simd::activeMode()), COMET_PERFBENCH_BUILD_TYPE,
        static_cast<unsigned long long>(opts.seed),
        result.errors.empty() ? "true" : "false",
        static_cast<long long>(result.attempted),
        static_cast<long long>(result.failed), errors.c_str(),
        passes.c_str(), jsonObject(result.e2e).c_str(),
        jsonObject(result.layer).c_str(), result.rungs_json.c_str(),
        spans.c_str());
}

bool
parseOptions(int argc, char **argv, Options *opts)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            opts->workload = value;
        else if (flag == "--seed")
            opts->seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            opts->seconds = std::strtod(value, nullptr);
        else
            return false;
    }
    return argc % 2 == 1 && !opts->workload.empty() && opts->seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseOptions(argc, argv, &opts)) {
        std::fprintf(stderr,
                     "usage: %s --workload online|offline|real-decode "
                     "--seed <n> --seconds <s>\n",
                     argv[0]);
        return 2;
    }
    // COMET_TRACE arms spans at process start; keep them off until the
    // measured passes. The spans are folded below, so the trace the
    // exit hook exports is empty.
    obs::configureFromEnv();
    const bool tracing = obs::TraceSession::enabled();
    obs::TraceSession::global().stop();

    RunResult result;
    if (opts.workload == "online") {
        result = runOnline(opts, tracing);
    } else if (opts.workload == "offline") {
        result = runOffline(opts, tracing);
    } else if (opts.workload == "real-decode") {
        result = runRealDecode(opts, tracing);
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opts.workload.c_str());
        return 2;
    }
    if (tracing) {
        result.check(obs::TraceSession::global().droppedSpans() == 0,
                     "the trace session dropped no span");
        result.spans = foldSpans(obs::TraceSession::global().drain());
    }
    result.e2e["peak_rss_mb"] = peakRssMb();
    printResult(opts, result);
    return result.errors.empty() ? 0 : 1;
}
