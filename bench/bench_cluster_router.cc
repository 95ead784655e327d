/**
 * @file
 * Cluster-router bench (DESIGN.md §15): drives the canonical mixed
 * long-context + chat workload through 1- and 4-replica clusters
 * under each routing policy (consistent-hash, least-loaded, weighted
 * round-robin) and reports per-policy throughput and chat TTFT/TPOT
 * tails. Gated in CI (bench/baselines/BENCH_cluster_router.json).
 *
 * Everything reported is virtual-time and therefore deterministic for
 * a fixed seed at any COMET_THREADS, so the scale-out throughput win
 * can be gated without flaking across machines.
 *
 * Correctness checks ride along (any failure exits 1):
 *  1. a 1-replica cluster streams token-identical outcomes to a bare
 *     Server on the same workload and renders a byte-identical
 *     per-tenant report (the router adds placement, not behavior);
 *  2. scale-out preserves every request's terminal verdict and token
 *     count under every policy (placement only reshapes time);
 *  3. back-to-back 4-replica runs render bit-identical reports;
 *  4. the load-spreading policies (least, wrr) use all four replicas
 *     and beat the single replica on the chat tenants' TTFT p99 —
 *     the reason scale-out exists on an open-loop workload (the
 *     makespan is arrival-dominated, so the win shows up as tail
 *     latency, not throughput);
 *  5. consistent hash spreads the workload's placement keys over
 *     more than one replica while keeping each key's traffic
 *     replica-local (prefix affinity).
 *
 * A sharded trace-replay rollup rides along: four per-replica traces
 * (seeds from deriveReplicaSeed) each run on their own Server and
 * sum into the cluster-level throughput/utilization view the rollup
 * exists for (completed tokens over the longest makespan; summed
 * peak KV blocks over the summed pools).
 *
 * Environment: COMET_CLUSTER_POLICY=hash|least|wrr|all restricts the
 * policy sweep (default all; see docs/OPERATIONS.md).
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_flags.h"
#include "bench_report.h"

#include "comet/cluster/cluster_loadgen.h"
#include "comet/cluster/router.h"
#include "comet/common/table.h"
#include "comet/obs/metrics.h"
#include "comet/serve/engine.h"
#include "comet/server/loadgen.h"
#include "comet/server/server.h"

using namespace comet;
using namespace comet::cluster;
using namespace comet::server;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "CHECK FAILED: %s\n", what);
        ++failures;
    }
}

/** LLaMA-3-8B at COMET W4A4KV4 with a per-replica pool large enough
 * that the long-context prompts admit without thrashing — the bench
 * isolates placement, not KV pressure. */
EngineConfig
servedEngine()
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 256;
    config.output_tokens = 64;
    return engineConfigWithKvBlocks(config, 4096);
}

/** One cluster session: @p replicas replicas of the shared engine
 * under @p policy, @p requests routed through runClusterLoadgen. */
LoadgenReport
runClusterSession(const ServingEngine &engine,
                  const LoadgenConfig &workload,
                  const std::vector<LoadgenRequest> &requests,
                  int replicas, RoutingPolicy policy,
                  ClusterStats *stats)
{
    obs::MetricsRegistry::global().reset();
    ClusterConfig config;
    for (int r = 0; r < replicas; ++r)
        config.replicas.push_back({&engine, 1.0});
    config.server.tenants = loadgenTenants(workload);
    config.server.max_batch = 16;
    config.server.chunked_prefill_tokens = 256;
    config.policy = policy;
    ClusterRouter router(config);
    const LoadgenReport report =
        runClusterLoadgen(&router, workload, requests);
    *stats = router.stats();
    router.stop(false);
    return report;
}

/** The bare-Server baseline the 1-replica cluster must match. */
LoadgenReport
runBareSession(const ServingEngine &engine,
               const LoadgenConfig &workload,
               const std::vector<LoadgenRequest> &requests)
{
    obs::MetricsRegistry::global().reset();
    ServerConfig config;
    config.tenants = loadgenTenants(workload);
    config.max_batch = 16;
    config.chunked_prefill_tokens = 256;
    Server server(&engine, config);
    const LoadgenReport report =
        runLoadgen(&server, workload, requests);
    server.stop();
    return report;
}

/** Streamed tokens per virtual second. */
double
throughputTokensPerS(const LoadgenReport &report)
{
    return report.makespan_us > 0.0
               ? static_cast<double>(report.tokens) /
                     (report.makespan_us * 1e-6)
               : 0.0;
}

/** Worst TTFT p99 across the chat tenants (rows 1 and 2). */
double
chatTtftP99(const LoadgenReport &report)
{
    return std::max(report.tenants[1].ttft_p99_us,
                    report.tenants[2].ttft_p99_us);
}

/** Worst TPOT p99 across the chat tenants. */
double
chatTpotP99(const LoadgenReport &report)
{
    return std::max(report.tenants[1].tpot_p99_us,
                    report.tenants[2].tpot_p99_us);
}

/** Per-request terminal/token identity between two runs of the same
 * workload (placement and chunking only reshape virtual time). */
bool
sameTokenStreams(const LoadgenReport &a, const LoadgenReport &b)
{
    if (a.outcomes.size() != b.outcomes.size())
        return false;
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
        if (a.outcomes[i].terminal != b.outcomes[i].terminal ||
            a.outcomes[i].tokens != b.outcomes[i].tokens)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::handleArgs(
        argc, argv,
        "multi-replica cluster router: per-policy throughput and "
        "chat latency tails, 1 vs 4 replicas, plus the sharded "
        "trace-replay rollup (COMET_CLUSTER_POLICY=hash|least|wrr|"
        "all restricts the sweep)",
        {{"--smoke", "reduced request counts for CI"},
         {"--seed=", "workload seed (default 42)"},
         {bench::BenchReport::kJsonFlag,
          bench::BenchReport::kJsonFlagHelp}});
    const bool smoke = bench::smokeRequested(argc, argv);
    const auto seed = static_cast<uint64_t>(
        bench::flagValue(argc, argv, "--seed=", 42));

    const char *policy_env = std::getenv("COMET_CLUSTER_POLICY");
    const std::string policy_sel =
        policy_env != nullptr && *policy_env != '\0' ? policy_env
                                                     : "all";
    std::vector<RoutingPolicy> policies;
    if (policy_sel == "all") {
        policies = {RoutingPolicy::kConsistentHash,
                    RoutingPolicy::kLeastLoaded,
                    RoutingPolicy::kWeightedRoundRobin};
    } else {
        RoutingPolicy one;
        if (!parseRoutingPolicy(policy_sel, &one)) {
            std::fprintf(stderr,
                         "bad COMET_CLUSTER_POLICY '%s' (want "
                         "hash|least|wrr|all)\n",
                         policy_sel.c_str());
            return 2;
        }
        policies = {one};
    }

    constexpr int kReplicas = 4;
    const ServingEngine engine(servedEngine());
    LoadgenConfig workload = mixedSloWorkload(seed, smoke);
    // Real prompt content (3 shared pools per tenant) gives the
    // consistent-hash policy per-(tenant, pool) placement keys — the
    // system-prompt redundancy whose affinity it exists to keep
    // replica-local. Without content every tenant is a single key.
    for (LoadgenTenant &tenant : workload.tenants)
        tenant.shared_prompt_pools = 3;

    std::printf("=== cluster router, 1 vs %d replicas "
                "(LLaMA-3-8B, COMET W4A4KV4, seed %llu, policy %s"
                "%s) ===\n\n",
                kReplicas, static_cast<unsigned long long>(seed),
                policy_sel.c_str(), smoke ? ", smoke" : "");

    // Baselines: the bare server and the 1-replica cluster must be
    // indistinguishable (the router adds placement, not behavior).
    // One workload, generated once, drives every session.
    const std::vector<LoadgenRequest> requests =
        generateLoadgenWorkload(workload);
    const LoadgenReport bare =
        runBareSession(engine, workload, requests);
    ClusterStats one_stats;
    const LoadgenReport one =
        runClusterSession(engine, workload, requests, 1, policies[0],
                          &one_stats);
    check(sameTokenStreams(bare, one),
          "1-replica cluster streams token-identical outcomes to a "
          "bare server");
    check(renderLoadgenReport(bare) == renderLoadgenReport(one),
          "1-replica cluster renders a byte-identical report");
    check(bare.rejected == 0 && bare.cancelled == 0,
          "the workload is equality-safe (no clock-dependent "
          "verdicts)");

    const double one_ttft = chatTtftP99(one);

    Table table({"policy", "replicas", "tok/s", "ttft win",
                 "chat ttft p99 (ms)", "chat tpot p99 (ms)",
                 "rerouted", "spread"});
    table.addRow({"-", "1",
                  formatDouble(throughputTokensPerS(one), 1),
                  "1.00", formatDouble(one_ttft * 1e-3, 3),
                  formatDouble(chatTpotP99(one) * 1e-3, 3), "0",
                  std::to_string(one.submitted - one.rejected)});

    bench::BenchReport report("bench_cluster_router");
    report.setConfig("seed", static_cast<int64_t>(seed));
    report.setConfig("smoke", smoke ? "true" : "false");
    report.setConfig("replicas", kReplicas);
    report.setConfig("policy", policy_sel);
    report.setConfig("requests", one.submitted);

    std::string rendered_example;
    for (const RoutingPolicy policy : policies) {
        const char *name = routingPolicyName(policy);
        ClusterStats stats;
        const LoadgenReport scaled = runClusterSession(
            engine, workload, requests, kReplicas, policy, &stats);
        check(sameTokenStreams(bare, scaled),
              "scale-out preserves every terminal and token count");
        int replicas_used = 0;
        std::string spread;
        for (int r = 0; r < kReplicas; ++r) {
            if (stats.routed_per_replica[r] > 0)
                ++replicas_used;
            if (r > 0)
                spread += "/";
            spread += std::to_string(stats.routed_per_replica[r]);
        }

        const double ttft = chatTtftP99(scaled);
        const double ttft_win = ttft > 0.0 ? one_ttft / ttft : 0.0;
        if (policy == RoutingPolicy::kConsistentHash) {
            // Affinity, not spreading, is what hash promises: every
            // (tenant, pool) placement-key group stays on one
            // replica, and the workload's distinct keys land on
            // more than one.
            std::map<std::pair<int, int32_t>, int> group_replica;
            bool affine = true;
            for (size_t i = 0; i < scaled.outcomes.size(); ++i) {
                if (scaled.outcomes[i].replica < 0)
                    continue;
                const std::pair<int, int32_t> group = {
                    requests[i].tenant,
                    requests[i].prompt_ids.empty()
                        ? -1
                        : requests[i].prompt_ids[0]};
                const auto [it, inserted] = group_replica.emplace(
                    group, scaled.outcomes[i].replica);
                affine = affine &&
                         it->second == scaled.outcomes[i].replica;
            }
            check(affine,
                  "hash keeps each placement key replica-local");
            check(replicas_used >= 2,
                  "hash spreads distinct keys over replicas");
        } else {
            check(replicas_used == kReplicas,
                  "the load-spreading policy uses every replica");
            check(ttft_win > 1.0,
                  "4 replicas beat 1 on chat TTFT p99 under this "
                  "policy");
        }
        table.addRow({name, std::to_string(kReplicas),
                      formatDouble(throughputTokensPerS(scaled), 1),
                      formatDouble(ttft_win, 2),
                      formatDouble(ttft * 1e-3, 3),
                      formatDouble(chatTpotP99(scaled) * 1e-3, 3),
                      std::to_string(stats.rerouted), spread});

        // All virtual-time deterministic: gate the load-spreading
        // policies' tail win so a placement regression that quietly
        // serializes replicas fails the perf leg. Hash optimizes
        // affinity, not tails — its win stays informational.
        report.addMetric(
            std::string(name) + "_chat_ttft_p99_win", ttft_win, "x",
            /*gate=*/policy != RoutingPolicy::kConsistentHash,
            /*higher_is_better=*/true);
        report.addMetric(std::string(name) +
                             "_throughput_tokens_per_s",
                         throughputTokensPerS(scaled), "tokens/s",
                         false, true);
        report.addMetric(std::string(name) + "_chat_tpot_p99_us",
                         chatTpotP99(scaled), "us", false, false);

        if (rendered_example.empty()) {
            rendered_example =
                renderClusterLoadgenReport(scaled, kReplicas);
            // Determinism of the cluster run itself.
            ClusterStats again_stats;
            const LoadgenReport again =
                runClusterSession(engine, workload, requests, kReplicas,
                                  policy, &again_stats);
            check(renderClusterLoadgenReport(again, kReplicas) ==
                      rendered_example,
                  "back-to-back cluster runs render identical "
                  "reports");
        }
    }

    table.print();
    std::printf("\n%s policy, %d replicas:\n%s\n",
                routingPolicyName(policies[0]), kReplicas,
                rendered_example.c_str());

    // Sharded trace-replay rollup: four per-replica traces (seeds
    // derived per replica), each on its own Server, summed into the
    // cluster-level view. Replicas do not share a pool, so the summed
    // per-replica peaks bound the cluster-wide peak from above.
    const LoadgenConfig trace_loadgen = traceLoadgenConfig();
    int64_t merged_completed = 0;
    int64_t merged_tokens = 0;
    double merged_makespan_us = 0.0;
    int64_t peak_used_blocks = 0;
    int64_t total_kv_blocks = 0;
    for (int r = 0; r < kReplicas; ++r) {
        TraceConfig trace_config;
        trace_config.seed = deriveReplicaSeed(seed, r);
        trace_config.num_requests = smoke ? 48 : 192;
        trace_config.request_rate_per_s = 8.0;
        Server server(&engine, traceServerConfig(engine.config()));
        const LoadgenReport part = runLoadgen(
            &server, trace_loadgen, generateTrace(trace_config));
        merged_completed += part.completed;
        for (const RequestOutcome &outcome : part.outcomes) {
            if (outcome.terminal == StreamEventKind::kFinished)
                merged_tokens += outcome.tokens;
        }
        merged_makespan_us =
            std::max(merged_makespan_us, part.makespan_us);
        peak_used_blocks += server.schedulerCounters().peak_used_blocks;
        total_kv_blocks += server.kvTotalBlocks();
    }
    const double merged_throughput =
        merged_makespan_us > 0.0
            ? static_cast<double>(merged_tokens) /
                  (merged_makespan_us * 1e-6)
            : 0.0;
    const double merged_peak_kv_utilization =
        total_kv_blocks > 0
            ? static_cast<double>(peak_used_blocks) /
                  static_cast<double>(total_kv_blocks)
            : 0.0;
    std::printf("sharded trace rollup: %lld requests, "
                "%.1f tok/s merged, peak KV utilization %.3f\n",
                static_cast<long long>(merged_completed),
                merged_throughput, merged_peak_kv_utilization);
    report.addMetric("merged_trace_throughput_tokens_per_s",
                     merged_throughput, "tokens/s",
                     /*gate=*/true, /*higher_is_better=*/true);
    report.addMetric("merged_trace_peak_kv_utilization",
                     merged_peak_kv_utilization, "fraction", false,
                     false);
    report.writeIfRequested(argc, argv);

    if (failures > 0) {
        std::fprintf(stderr, "\n%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("\nAll identity, determinism and scale-out checks "
                "passed.\n");
    return 0;
}
