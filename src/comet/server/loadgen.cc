#include "comet/server/loadgen.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "comet/common/rng.h"
#include "comet/common/stats.h"
#include "comet/common/status.h"
#include "comet/common/table.h"

namespace comet {
namespace server {

namespace {

int64_t
sampleLength(Rng &rng, int64_t lo, int64_t hi)
{
    COMET_CHECK(lo > 0 && hi >= lo);
    return lo + static_cast<int64_t>(
                    rng.uniformInt(static_cast<uint64_t>(hi - lo + 1)));
}

/** Exponential length around a mean, clamped to [16, 4 * mean]. */
int64_t
sampleTraceLength(Rng &rng, int64_t mean)
{
    const double u = std::max(rng.uniform(), 1e-12);
    const double value = -std::log(u) * static_cast<double>(mean);
    // Round to nearest: truncation would bias sampled lengths low.
    return std::clamp<int64_t>(std::llround(value), 16, 4 * mean);
}

/** The first @p tokens ids of the deterministic stream seeded with
 * @p seed — pool prompts and unique tails are both "a prefix of a
 * seeded stream", so any two draws from one seed share a prefix by
 * construction and draws from different seeds diverge immediately. */
std::vector<int32_t>
tokenStream(uint64_t seed, int64_t tokens)
{
    Rng rng(seed);
    std::vector<int32_t> ids;
    ids.reserve(static_cast<size_t>(tokens));
    for (int64_t i = 0; i < tokens; ++i)
        ids.push_back(static_cast<int32_t>(rng.uniformInt(32000)));
    return ids;
}

} // namespace

std::vector<LoadgenRequest>
generateLoadgenWorkload(const LoadgenConfig &config)
{
    Rng base(config.seed);
    std::vector<LoadgenRequest> requests;
    for (size_t t = 0; t < config.tenants.size(); ++t) {
        const LoadgenTenant &tenant = config.tenants[t];
        COMET_CHECK(tenant.arrival_rate_per_s > 0.0);
        COMET_CHECK(tenant.requests > 0);
        // One independent stream per tenant, split in tenant order,
        // so adding a tenant never reshuffles the others' workloads.
        Rng rng = base.split();
        double arrival_us = 0.0;
        for (int64_t i = 0; i < tenant.requests; ++i) {
            // Exponential inter-arrival gap (Poisson process).
            const double u = rng.uniform();
            arrival_us += -std::log(1.0 - u) /
                          tenant.arrival_rate_per_s * 1e6;
            LoadgenRequest request;
            request.tenant = static_cast<int>(t);
            request.arrival_us = arrival_us;
            request.prompt_tokens = sampleLength(
                rng, tenant.prompt_min, tenant.prompt_max);
            request.eos_output_tokens = sampleLength(
                rng, tenant.output_min, tenant.output_max);
            // Clients declare the generous bound; EOS lands earlier
            // (the gap optimistic admission exploits).
            request.declared_output_tokens = tenant.output_max;
            if (tenant.shared_prompt_pools > 0) {
                // Shared head (pool prompt), unique tail: the prompt
                // is the pool stream's first prompt_min tokens, then
                // this request's own stream. Pool seeds fold the
                // tenant in so two tenants' pools never share content
                // by accident (isolation is still enforced by key
                // namespaces either way).
                const uint64_t pool = rng.uniformInt(
                    static_cast<uint64_t>(tenant.shared_prompt_pools));
                const uint64_t pool_seed =
                    config.seed * 1000003ull + t * 8191ull + pool;
                request.prompt_ids =
                    tokenStream(pool_seed,
                                std::min(tenant.prompt_min,
                                         request.prompt_tokens));
                const uint64_t tail_seed =
                    config.seed * 6700417ull + t * 524287ull +
                    static_cast<uint64_t>(i) + 1ull;
                const auto tail = tokenStream(
                    tail_seed,
                    request.prompt_tokens -
                        static_cast<int64_t>(request.prompt_ids.size()));
                request.prompt_ids.insert(request.prompt_ids.end(),
                                          tail.begin(), tail.end());
            }
            requests.push_back(request);
        }
    }
    std::stable_sort(requests.begin(), requests.end(),
                     [](const LoadgenRequest &a,
                        const LoadgenRequest &b) {
                         return a.arrival_us < b.arrival_us;
                     });
    return requests;
}

std::vector<LoadgenRequest>
generateTrace(const TraceConfig &config)
{
    COMET_CHECK(config.request_rate_per_s > 0.0);
    COMET_CHECK(config.num_requests > 0);
    Rng rng(config.seed);
    std::vector<LoadgenRequest> trace(
        static_cast<size_t>(config.num_requests));
    double clock_us = 0.0;
    for (LoadgenRequest &request : trace) {
        // Exponential inter-arrival gaps (Poisson process).
        const double u = std::max(rng.uniform(), 1e-12);
        clock_us += -std::log(u) / config.request_rate_per_s * 1e6;
        request.arrival_us = clock_us;
        request.prompt_tokens =
            sampleTraceLength(rng, config.mean_prompt_tokens);
        request.eos_output_tokens =
            sampleTraceLength(rng, config.mean_output_tokens);
        request.declared_output_tokens = request.eos_output_tokens;
    }
    return trace;
}

LoadgenConfig
traceLoadgenConfig()
{
    LoadgenConfig config;
    config.clients = 1;
    config.callbacks = true;
    config.tenants.resize(1);
    config.tenants[0].admission.name = "replay";
    return config;
}

ServerConfig
traceServerConfig(const EngineConfig &engine)
{
    ServerConfig server;
    server.tenants = loadgenTenants(traceLoadgenConfig());
    server.max_batch = engine.max_batch;
    server.admission = engine.admission;
    server.kv_watermark_blocks = engine.kv_watermark_blocks;
    return server;
}

void
recordLoadgenEvent(RequestOutcome *outcome, const StreamEvent &event)
{
    switch (event.kind) {
      case StreamEventKind::kToken:
        if (outcome->tokens == 0)
            outcome->first_token_us = event.virtual_us;
        outcome->last_token_us = event.virtual_us;
        ++outcome->tokens;
        break;
      case StreamEventKind::kFinished:
      case StreamEventKind::kRejected:
      case StreamEventKind::kCancelled:
        outcome->terminal = event.kind;
        outcome->reason = event.reject_reason;
        break;
    }
}

uint64_t
deriveReplicaSeed(uint64_t seed, int replica)
{
    // SplitMix64 round over seed + replica-scaled increment: a
    // platform-stable fold that keeps replica 0's stream distinct
    // from the base seed's own stream.
    uint64_t x = seed + (static_cast<uint64_t>(replica) + 1ull) *
                            0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::vector<TenantConfig>
loadgenTenants(const LoadgenConfig &config)
{
    std::vector<TenantConfig> tenants;
    tenants.reserve(config.tenants.size());
    for (const LoadgenTenant &tenant : config.tenants)
        tenants.push_back(tenant.admission);
    return tenants;
}

LoadgenReport
runLoadgen(Server *server, const LoadgenConfig &config,
           const std::vector<LoadgenRequest> &workload)
{
    std::vector<RequestOutcome> outcomes =
        driveLoadgenClients(server, config, workload);
    return finalizeLoadgenReport(config, std::move(outcomes),
                                 server->virtualClockUs());
}

LoadgenReport
runLoadgen(Server *server, const LoadgenConfig &config)
{
    return runLoadgen(server, config, generateLoadgenWorkload(config));
}

LoadgenReport
finalizeLoadgenReport(const LoadgenConfig &config,
                      std::vector<RequestOutcome> outcomes,
                      double makespan_us)
{
    LoadgenReport report;
    report.makespan_us = makespan_us;
    report.tenants.resize(config.tenants.size());
    std::vector<std::vector<double>> ttfts(config.tenants.size());
    std::vector<std::vector<double>> tpots(config.tenants.size());
    std::vector<double> slo_tokens(config.tenants.size(), 0.0);
    for (size_t t = 0; t < config.tenants.size(); ++t)
        report.tenants[t].name =
            config.tenants[t].admission.name;
    for (const RequestOutcome &outcome : outcomes) {
        const auto t = static_cast<size_t>(outcome.tenant);
        LoadgenTenantReport &row = report.tenants[t];
        ++row.submitted;
        row.tokens += outcome.tokens;
        switch (outcome.terminal) {
          case StreamEventKind::kFinished: {
            ++row.completed;
            const double ttft = outcome.ttftUs();
            ttfts[t].push_back(ttft);
            const double ttft_slo =
                config.tenants[t].admission.ttft_slo_us;
            const double tpot_slo =
                config.tenants[t].admission.tpot_slo_us;
            bool met = ttft_slo <= 0.0 || ttft <= ttft_slo;
            if (outcome.tokens > 1) {
                const double tpot = outcome.tpotUs();
                tpots[t].push_back(tpot);
                ++row.tpot_measured;
                if (tpot_slo <= 0.0 || tpot <= tpot_slo)
                    ++row.tpot_slo_met;
                else
                    met = false;
            }
            if (met) {
                ++row.slo_met;
                slo_tokens[t] +=
                    static_cast<double>(outcome.tokens);
            }
            break;
          }
          case StreamEventKind::kRejected:
            ++row.rejected;
            break;
          case StreamEventKind::kCancelled:
            ++row.cancelled;
            break;
          case StreamEventKind::kToken:
            COMET_CHECK_MSG(false,
                            "stream ended without a terminal event");
        }
    }
    for (size_t t = 0; t < config.tenants.size(); ++t) {
        LoadgenTenantReport &row = report.tenants[t];
        std::tie(row.ttft_p50_us, row.ttft_p99_us) =
            p50p99OrZero(ttfts[t]);
        std::tie(row.tpot_p50_us, row.tpot_p99_us) =
            p50p99OrZero(tpots[t]);
        row.goodput_tokens_per_s =
            report.makespan_us > 0.0
                ? slo_tokens[t] / (report.makespan_us * 1e-6)
                : 0.0;
        report.submitted += row.submitted;
        report.completed += row.completed;
        report.rejected += row.rejected;
        report.cancelled += row.cancelled;
        report.tokens += row.tokens;
    }
    report.outcomes = std::move(outcomes);
    return report;
}

std::string
renderLoadgenReport(const LoadgenReport &report)
{
    Table table({"tenant", "submit", "done", "reject", "tokens",
                 "ttft p50 (ms)", "ttft p99 (ms)", "tpot p50 (ms)",
                 "tpot p99 (ms)", "goodput (tok/s)", "slo met",
                 "tpot slo"});
    for (const LoadgenTenantReport &row : report.tenants) {
        table.addRow(
            {row.name, std::to_string(row.submitted),
             std::to_string(row.completed),
             std::to_string(row.rejected),
             std::to_string(row.tokens),
             formatDouble(row.ttft_p50_us * 1e-3, 3),
             formatDouble(row.ttft_p99_us * 1e-3, 3),
             formatDouble(row.tpot_p50_us * 1e-3, 3),
             formatDouble(row.tpot_p99_us * 1e-3, 3),
             formatDouble(row.goodput_tokens_per_s, 1),
             row.completed > 0
                 ? formatPercent(
                       static_cast<double>(row.slo_met) /
                           static_cast<double>(row.completed),
                       1)
                 : "-",
             row.tpot_measured > 0
                 ? formatPercent(
                       static_cast<double>(row.tpot_slo_met) /
                           static_cast<double>(row.tpot_measured),
                       1)
                 : "-"});
    }
    table.addSeparator();
    table.addRow({"total", std::to_string(report.submitted),
                  std::to_string(report.completed),
                  std::to_string(report.rejected),
                  std::to_string(report.tokens), "-", "-", "-", "-",
                  "-", "-", "-"});
    return table.render();
}

LoadgenConfig
mixedSloWorkload(uint64_t seed, bool smoke)
{
    LoadgenConfig config;
    config.seed = seed;
    config.clients = 4;

    // The ingestion tenant: few requests, multi-thousand-token
    // prompts, short outputs. Under monolithic prefill each of its
    // admissions stalls every decoding stream for the whole prompt;
    // under chunked prefill the same work interleaves.
    LoadgenTenant longctx;
    longctx.admission.name = "longctx";
    longctx.admission.weight = 1.0;
    longctx.admission.ttft_slo_us = 5e6; // 5 s: ingestion is patient
    longctx.arrival_rate_per_s = 1.5;
    longctx.requests = smoke ? 6 : 24;
    longctx.prompt_min = 1536;
    longctx.prompt_max = 3072;
    longctx.output_min = 8;
    longctx.output_max = 24;
    config.tenants.push_back(longctx);

    // Two interactive chat tenants with tight tail budgets — the
    // streams whose TPOT p99 monolithic prefill blows up.
    for (const char *name : {"chat-a", "chat-b"}) {
        LoadgenTenant chat;
        chat.admission.name = name;
        chat.admission.weight = 2.0;
        chat.admission.ttft_slo_us = 4e5;  // 400 ms to first token
        chat.admission.tpot_slo_us = 5e4;  // 50 ms per token
        chat.arrival_rate_per_s = 10.0;
        chat.requests = smoke ? 24 : 96;
        chat.prompt_min = 64;
        chat.prompt_max = 192;
        chat.output_min = 24;
        chat.output_max = 96;
        config.tenants.push_back(chat);
    }
    return config;
}

} // namespace server
} // namespace comet
