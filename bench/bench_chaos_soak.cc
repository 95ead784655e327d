/**
 * @file
 * Chaos soak driver: the fault-injected, property-checked stress run
 * for the serving stack (DESIGN.md §11).
 *
 * Per seed it (1) generates a multi-tenant workload script, (2) arms
 * the standard fault schedule (allocator OOM, pool delays, ingress
 * cancels, forced preemptions, admission expiries), (3) replays the
 * script at COMET_THREADS=1 and 8 and requires every invariant to
 * hold with byte-identical event logs, and (4) runs the KV-cache and
 * scheduler model fuzzers under the same seed. A failing seed is
 * shrunk to a minimal step script and printed with a one-line repro
 * command.
 *
 * `--cluster` routes every script through a 4-replica ClusterRouter
 * instead (policy rotating per seed), with the routing-thread
 * failpoints armed — forced reroutes (`cluster.route`) and injected
 * mid-workload drains (`cluster.drain`) — and requires the same
 * bit-identical replay plus the cluster audits (token conservation
 * across drains, routing accounting, per-replica KV quiescence).
 * `--prefix` and `--tp` combine with either front end. Each mode's
 * per-seed setup (script config, faults, routing policy, TP degrees)
 * comes from one function, soakSetup(), which the double run, the
 * stats row and a failing seed's shrink and repro all use.
 *
 * It also measures the disabled-failpoint fast path the way
 * bench_obs_overhead measures disabled spans, and enforces the
 * <= 1 ns/hit budget in optimized non-sanitizer builds.
 */
#include <cinttypes>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "comet/chaos/failpoint.h"
#include "comet/chaos/harness.h"
#include "comet/chaos/script.h"
#include "comet/cluster/placement.h"
#include "comet/common/table.h"
#include "comet/runtime/thread_pool.h"

namespace {

using namespace comet;
using namespace comet::chaos;

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define COMET_BENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define COMET_BENCH_SANITIZED 1
#endif

/** ns/hit of a disabled failpoint: one relaxed atomic load. */
double
measureDisabledFailpointNs()
{
    FailPointRegistry::global().disarmAll();
    constexpr int64_t kIters = 20'000'000;
    const auto start = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < kIters; ++i) {
        if (COMET_FAILPOINT("soak.probe"))
            std::abort(); // never armed; keeps the branch live
        asm volatile("" ::: "memory");
    }
    const auto stop = std::chrono::steady_clock::now();
    const double total_ns =
        std::chrono::duration<double, std::nano>(stop - start)
            .count();
    return total_ns / static_cast<double>(kIters);
}

/** Replicas the cluster soak routes across. */
constexpr int kClusterReplicas = 4;

/** Cluster-soak policy for a seed: rotating through the three
 * routing policies spreads coverage without a separate flag. */
cluster::RoutingPolicy
clusterPolicyForSeed(uint64_t seed)
{
    switch (seed % 3) {
    case 0:
        return cluster::RoutingPolicy::kLeastLoaded;
    case 1:
        return cluster::RoutingPolicy::kConsistentHash;
    default:
        return cluster::RoutingPolicy::kWeightedRoundRobin;
    }
}

/** The soak's mode flags. */
struct SoakMode {
    bool prefix = false;
    bool clustered = false;
    bool tp = false;
};

/** Everything one seed's runs in a mode are built from. The double
 * run, the stats row and a failure's shrink all take it from here,
 * so a repro replays exactly the soak that failed. */
struct SoakSetup {
    SoakMode mode;
    ChaosScriptConfig config;
    ChaosFaultConfig faults;
    /** Routing policy (cluster mode; rotates per seed). */
    cluster::RoutingPolicy policy =
        cluster::RoutingPolicy::kLeastLoaded;
    /** Per-replica TP degrees (cluster mode with --tp; replica r
     * gets entry r % size). */
    std::vector<int> tp_degrees;
};

SoakSetup
soakSetup(uint64_t seed, int steps, const SoakMode &mode)
{
    SoakSetup setup;
    setup.mode = mode;
    setup.config.seed = seed;
    setup.config.steps = steps;
    setup.config.prefix = mode.prefix;
    setup.faults.seed = seed;
    if (mode.clustered) {
        // The routing-thread failpoints (forced reroutes, injected
        // drains) on top of the pool delays: the cluster-safe subset
        // runClusterChaosScript keeps armed.
        setup.faults.route_every = 7;
        setup.faults.drain_every = 41;
        setup.policy = clusterPolicyForSeed(seed);
        if (mode.tp)
            setup.tp_degrees = {1, 2, 4, 2};
        return setup;
    }
    if (mode.prefix)
        setup.faults.graft_every = 23; // forced misses ride the soak
    if (mode.tp) {
        // Sharding and degraded links shift the virtual clock
        // (scripts carry time-triggered cancels, so streams
        // legitimately differ from TP=1), but the replay must stay
        // byte-identical across thread counts.
        setup.config.tp_degree = 2;
        setup.faults.allreduce_every = 13;
    }
    return setup;
}

/** One run of @p script under @p setup: its verdict and the
 * mode's stats cells (the table columns between steps and replay). */
struct SoakRun {
    ChaosRunVerdict verdict;
    std::vector<std::string> cells;
};

SoakRun
runSoakScript(const SoakSetup &setup,
              const std::vector<ChaosStep> &script)
{
    if (setup.mode.clustered) {
        const ClusterChaosRunResult result = runClusterChaosScript(
            script, setup.config, &setup.faults, kClusterReplicas,
            setup.policy, setup.tp_degrees);
        return {result,
                {cluster::routingPolicyName(setup.policy),
                 std::to_string(result.replica_completed),
                 std::to_string(result.cluster_stats.routed),
                 std::to_string(result.cluster_stats.rerouted),
                 std::to_string(result.cluster_stats.drains),
                 std::to_string(result.replica_streamed_tokens)}};
    }
    const ChaosRunResult result =
        runChaosScript(script, setup.config, &setup.faults);
    return {result,
            {std::to_string(result.stats.completed),
             std::to_string(result.stats.rejected),
             std::to_string(result.stats.cancelled),
             std::to_string(result.stats.streamed_tokens),
             std::to_string(result.stats.prefix_matched_tokens)}};
}

/** The faulted double run (threads 1 vs 8). Empty string when every
 * invariant held and the event logs matched byte for byte. */
std::string
runDoubleReplay(const SoakSetup &setup,
                const std::vector<ChaosStep> &script)
{
    ThreadPool::setGlobalThreads(1);
    const SoakRun serial = runSoakScript(setup, script);
    ThreadPool::setGlobalThreads(8);
    const SoakRun pooled = runSoakScript(setup, script);
    ThreadPool::setGlobalThreads(0);

    if (!serial.verdict.ok)
        return "threads=1: " + serial.verdict.failure;
    if (!pooled.verdict.ok)
        return "threads=8: " + pooled.verdict.failure;
    if (serial.verdict.event_log != pooled.verdict.event_log)
        return "event logs diverge between threads=1 and threads=8";
    return "";
}

/** Shrinks a failing seed's script and prints the minimal repro. */
void
reportFailure(const SoakSetup &setup, const std::string &failure)
{
    const uint64_t seed = setup.config.seed;
    const int steps = setup.config.steps;
    std::fprintf(stderr,
                 "FAILING SEED %" PRIu64 " (steps=%d%s%s%s): %s\n",
                 seed, steps, setup.mode.prefix ? ", prefix" : "",
                 setup.mode.clustered ? ", cluster" : "",
                 setup.mode.tp ? ", tp" : "", failure.c_str());
    const std::vector<ChaosStep> script =
        generateChaosScript(setup.config);
    const auto fails = [&](const std::vector<ChaosStep> &candidate) {
        return !runSoakScript(setup, candidate).verdict.ok;
    };
    // Shrink against the single-threaded replay: cheap, and any
    // surviving violation reproduces by construction.
    ThreadPool::setGlobalThreads(1);
    const std::vector<ChaosStep> shrunk =
        shrinkChaosScript(script, fails, /*max_runs=*/48);
    ThreadPool::setGlobalThreads(0);
    const ChaosRunVerdict minimal =
        runSoakScript(setup, shrunk).verdict;
    if (!minimal.ok) {
        std::fprintf(stderr,
                     "minimal script (%zu of %zu steps), fails "
                     "with: %s\n%s",
                     shrunk.size(), script.size(),
                     minimal.failure.c_str(),
                     renderChaosScript(shrunk).c_str());
    } else {
        // The shrink budget ran out before isolating a subsequence
        // that still fails single-threaded (e.g. a threads=8-only
        // divergence); the full script is the repro.
        std::fprintf(stderr,
                     "script did not shrink single-threaded; full "
                     "%zu-step script is the repro\n",
                     script.size());
    }
    std::fprintf(stderr,
                 "repro: ./bench_chaos_soak --seed=%" PRIu64
                 " --seeds=1 --steps=%d%s%s%s\n",
                 seed, steps, setup.mode.prefix ? " --prefix" : "",
                 setup.mode.clustered ? " --cluster" : "",
                 setup.mode.tp ? " --tp" : "");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::handleArgs(
        argc, argv,
        "seeded fault-injection soak of the serving stack: invariant "
        "audits plus bit-identical replay across thread counts",
        {{"--smoke", "reduced shapes for CI (2 seeds x 500 steps)"},
         {"--prefix", "prefix-cache mode: shared-prompt scripts, the "
                      "cache on, and the graft failpoint armed"},
         {"--cluster", "cluster mode: route every script through a "
                       "4-replica ClusterRouter with cluster.route "
                       "and cluster.drain armed"},
         {"--tp", "tensor-parallel mode: TP=2 engine with "
                  "tp.allreduce armed (log must match tp=1); with "
                  "--cluster, heterogeneous replica degrees 1/2/4/2"},
         {"--seed=", "first seed (default 1)"},
         {"--seeds=", "number of consecutive seeds (default 1)"},
         {"--steps=", "script steps per seed (default 10000)"}});
    const bool smoke = bench::smokeRequested(argc, argv);
    SoakMode mode;
    for (int i = 1; i < argc; ++i) {
        mode.prefix =
            mode.prefix || std::strcmp(argv[i], "--prefix") == 0;
        mode.clustered =
            mode.clustered || std::strcmp(argv[i], "--cluster") == 0;
        mode.tp = mode.tp || std::strcmp(argv[i], "--tp") == 0;
    }
    const uint64_t first_seed = static_cast<uint64_t>(
        bench::flagValue(argc, argv, "--seed=", 1));
    const int64_t seeds =
        bench::flagValue(argc, argv, "--seeds=", smoke ? 2 : 1);
    const int steps = static_cast<int>(bench::flagValue(
        argc, argv, "--steps=", smoke ? 500 : 10000));

    const double disabled_ns = measureDisabledFailpointNs();
    std::printf("disabled failpoint: %.3f ns/hit (budget 1.0)\n",
                disabled_ns);
#if defined(NDEBUG) && !defined(COMET_BENCH_SANITIZED)
    if (disabled_ns > 1.0) {
        std::fprintf(stderr,
                     "FAIL: disabled failpoint costs %.3f ns/hit "
                     "(> 1 ns budget)\n",
                     disabled_ns);
        return 1;
    }
#endif

    Table table(
        mode.clustered
            ? std::vector<std::string>{"seed", "steps", "policy",
                                       "completed", "routed",
                                       "rerouted", "drains",
                                       "tokens", "replay"}
            : std::vector<std::string>{"seed", "steps", "completed",
                                       "rejected", "cancelled",
                                       "tokens", "grafted",
                                       "replay"});
    bool all_ok = true;
    for (int64_t i = 0; i < seeds; ++i) {
        const uint64_t seed = first_seed + static_cast<uint64_t>(i);
        const SoakSetup setup = soakSetup(seed, steps, mode);
        const std::vector<ChaosStep> script =
            generateChaosScript(setup.config);
        const std::string failure = runDoubleReplay(setup, script);
        if (!failure.empty()) {
            all_ok = false;
            reportFailure(setup, failure);
            continue;
        }
        if (!mode.clustered) {
            // The fuzzers ride the same seed for cheap extra coverage.
            const Status kv_fuzz =
                runKvModelFuzz(seed, smoke ? 300 : 2000, true);
            const Status sched_fuzz =
                runSchedulerFuzz(seed, smoke ? 300 : 2000, true);
            const Status prefix_fuzz =
                runPrefixFuzz(seed, smoke ? 300 : 2000, true);
            if (!kv_fuzz.isOk() || !sched_fuzz.isOk() ||
                !prefix_fuzz.isOk()) {
                all_ok = false;
                const Status &bad = !kv_fuzz.isOk()      ? kv_fuzz
                                    : !sched_fuzz.isOk() ? sched_fuzz
                                                         : prefix_fuzz;
                std::fprintf(stderr,
                             "FAILING SEED %" PRIu64 " (model fuzz): "
                             "%s\nrepro: ./bench_chaos_soak "
                             "--seed=%" PRIu64 " --seeds=1 --steps=%d\n",
                             seed, bad.toString().c_str(), seed, steps);
                continue;
            }
        }
        // Re-run once at the ambient thread count for the stats row.
        const SoakRun ambient = runSoakScript(setup, script);
        if (!ambient.verdict.ok) {
            all_ok = false;
            reportFailure(setup,
                          "ambient threads: " + ambient.verdict.failure);
            continue;
        }
        std::vector<std::string> row = {std::to_string(seed),
                                        std::to_string(steps)};
        row.insert(row.end(), ambient.cells.begin(),
                   ambient.cells.end());
        row.push_back("bit-identical");
        table.addRow(row);
    }
    table.print();
    if (!all_ok) {
        std::fprintf(stderr, "chaos soak FAILED\n");
        return 1;
    }
    std::printf("chaos soak OK: %lld seed(s) x %d steps\n",
                static_cast<long long>(seeds), steps);
    return 0;
}
