/**
 * @file
 * Tests for SLO attainment accounting: per-tenant TTFT/TPOT
 * ok/miss counters on the server (TenantSloStats and the
 * `server.tenant.<name>.slo.*` registry counters), the loadgen
 * report's attainment counts (finalizeLoadgenReport over hand-built
 * outcomes), and the load generator's TPOT-SLO columns.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "comet/obs/metrics.h"
#include "comet/serve/engine.h"
#include "comet/server/loadgen.h"
#include "comet/server/server.h"

namespace comet {
namespace server {
namespace {

EngineConfig
testEngineConfig(int64_t kv_blocks = 4096)
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 128;
    config.output_tokens = 32;
    return engineConfigWithKvBlocks(config, kv_blocks);
}

StreamRequest
streamRequest(int64_t id, double arrival_us, const std::string &tenant,
              int64_t prompt = 64, int64_t output = 4)
{
    StreamRequest request;
    request.id = id;
    request.tenant = tenant;
    request.prompt_tokens = prompt;
    request.max_output_tokens = output;
    request.eos_output_tokens = output;
    request.arrival_us = arrival_us;
    return request;
}

class SloTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::MetricsRegistry::global().reset();
    }
};

TEST_F(SloTest, TenantSloCountersPartitionFinishedStreams)
{
    const ServingEngine engine(testEngineConfig());
    ServerConfig config;
    // "tight" can never meet its budgets, "loose" always does, and
    // "none" has no budgets — its row stays all-zero except finished.
    TenantConfig tight;
    tight.name = "tight";
    tight.ttft_slo_us = 1e-3;
    tight.tpot_slo_us = 1e-3;
    TenantConfig loose;
    loose.name = "loose";
    loose.ttft_slo_us = 1e12;
    loose.tpot_slo_us = 1e12;
    TenantConfig none;
    none.name = "none";
    config.tenants = {tight, loose, none};
    config.max_batch = 16;
    Server server(&engine, config);

    Server::Client client = server.connect();
    int64_t id = 0;
    for (const char *tenant : {"tight", "loose", "none"}) {
        // Three multi-token streams (TPOT measurable) plus one
        // single-token stream (TPOT not measurable). Request n
        // arrives at 10 * (n - 1) us.
        for (int i = 0; i < 3; ++i) {
            const double arrival_us = 10.0 * id++;
            client.submit(streamRequest(id, arrival_us, tenant, 64,
                                        /*output=*/4));
        }
        const double arrival_us = 10.0 * id++;
        client.submit(
            streamRequest(id, arrival_us, tenant, 64, /*output=*/1));
    }
    client.close();
    server.drain();

    const ServerStats stats = server.stats();
    ASSERT_EQ(stats.tenant_slo.size(), 3u);

    const TenantSloStats &tight_row = stats.tenant_slo[0];
    EXPECT_EQ(tight_row.tenant, "tight");
    EXPECT_EQ(tight_row.finished, 4);
    EXPECT_EQ(tight_row.ttft_ok, 0);
    EXPECT_EQ(tight_row.ttft_miss, 4);
    EXPECT_EQ(tight_row.tpot_ok, 0);
    EXPECT_EQ(tight_row.tpot_miss, 3); // 1-token stream: no TPOT

    const TenantSloStats &loose_row = stats.tenant_slo[1];
    EXPECT_EQ(loose_row.tenant, "loose");
    EXPECT_EQ(loose_row.finished, 4);
    EXPECT_EQ(loose_row.ttft_ok, 4);
    EXPECT_EQ(loose_row.ttft_miss, 0);
    EXPECT_EQ(loose_row.tpot_ok, 3);
    EXPECT_EQ(loose_row.tpot_miss, 0);

    const TenantSloStats &none_row = stats.tenant_slo[2];
    EXPECT_EQ(none_row.tenant, "none");
    EXPECT_EQ(none_row.finished, 4);
    EXPECT_EQ(none_row.ttft_ok + none_row.ttft_miss, 0);
    EXPECT_EQ(none_row.tpot_ok + none_row.tpot_miss, 0);

    // The registry mirrors the stats rows.
    const obs::MetricsRegistry &registry =
        obs::MetricsRegistry::global();
    EXPECT_EQ(
        registry.counterValue("server.tenant.tight.slo.ttft_miss"),
        4);
    EXPECT_EQ(
        registry.counterValue("server.tenant.tight.slo.tpot_miss"),
        3);
    EXPECT_EQ(registry.counterValue("server.tenant.loose.slo.ttft_ok"),
              4);
    EXPECT_EQ(registry.counterValue("server.tenant.loose.slo.tpot_ok"),
              3);
    server.stop();
}

TEST_F(SloTest, SloCountersAreIdenticalChunkedAndMonolithic)
{
    // Attainment verdicts depend on virtual time, so they are NOT
    // part of the byte-identical-stream guarantee — but the set of
    // finished streams is, and the ok+miss partitions must always
    // cover it exactly.
    const ServingEngine engine(testEngineConfig());
    for (const int64_t chunk : {int64_t{0}, int64_t{64}}) {
        obs::MetricsRegistry::global().reset();
        const LoadgenConfig workload =
            mixedSloWorkload(/*seed=*/5, /*smoke=*/true);
        ServerConfig config;
        config.tenants = loadgenTenants(workload);
        config.max_batch = 16;
        config.chunked_prefill_tokens = chunk;
        Server server(&engine, config);
        const LoadgenReport report = runLoadgen(&server, workload);
        const ServerStats stats = server.stats();
        server.stop();

        ASSERT_EQ(stats.tenant_slo.size(), report.tenants.size());
        int64_t finished = 0;
        for (size_t t = 0; t < stats.tenant_slo.size(); ++t) {
            const TenantSloStats &row = stats.tenant_slo[t];
            finished += row.finished;
            EXPECT_EQ(row.finished, report.tenants[t].completed);
            // Every tenant of the mixed workload has a TTFT budget:
            // the ok/miss partition covers every finished stream.
            EXPECT_EQ(row.ttft_ok + row.ttft_miss, row.finished);
            // The TPOT partition covers the measurable completions —
            // but only for tenants that configured a TPOT budget.
            if (workload.tenants[t].admission.tpot_slo_us > 0.0) {
                EXPECT_EQ(row.tpot_ok + row.tpot_miss,
                          report.tenants[t].tpot_measured);
            } else {
                EXPECT_EQ(row.tpot_ok + row.tpot_miss, 0);
            }
        }
        EXPECT_EQ(finished, stats.completed);
    }
}

/** A finished outcome of @p tokens tokens, the first at @p ttft_us
 * after a zero arrival and the rest @p tpot_us apart. */
RequestOutcome
finished(int tenant, double ttft_us, int64_t tokens, double tpot_us)
{
    RequestOutcome outcome;
    outcome.tenant = tenant;
    outcome.terminal = StreamEventKind::kFinished;
    outcome.tokens = tokens;
    outcome.first_token_us = ttft_us;
    outcome.last_token_us =
        ttft_us + tpot_us * static_cast<double>(tokens - 1);
    return outcome;
}

TEST_F(SloTest, FinalizeReportCountsAttainment)
{
    // Three tenants see the same three completions under different
    // budgets: (TTFT 100, 4 tokens at TPOT 10), (TTFT 300, 1 token:
    // no measurable TPOT), (TTFT 500, 2 tokens at TPOT 50).
    LoadgenConfig config;
    const double budgets[3][2] = {{1000.0, 40.0}, {250.0, 60.0},
                                  {50.0, 0.0}};
    std::vector<RequestOutcome> outcomes;
    for (int t = 0; t < 3; ++t) {
        LoadgenTenant tenant;
        tenant.admission.name = "t" + std::to_string(t);
        tenant.admission.ttft_slo_us = budgets[t][0];
        tenant.admission.tpot_slo_us = budgets[t][1];
        config.tenants.push_back(tenant);
        outcomes.push_back(finished(t, 100.0, 4, 10.0));
        outcomes.push_back(finished(t, 300.0, 1, 0.0));
        outcomes.push_back(finished(t, 500.0, 2, 50.0));
    }
    const LoadgenReport report =
        finalizeLoadgenReport(config, outcomes, 1e6);
    ASSERT_EQ(report.tenants.size(), 3u);
    for (const LoadgenTenantReport &row : report.tenants) {
        EXPECT_EQ(row.completed, 3);
        EXPECT_EQ(row.tokens, 7);
        // TTFT counts every completion, the 1-token one included...
        EXPECT_EQ(row.ttft_p50_us, 300.0);
        // ...TPOT only the two with >= 2 tokens.
        EXPECT_EQ(row.tpot_measured, 2);
        EXPECT_EQ(row.tpot_p50_us, 30.0);
    }
    // TTFT 1000 / TPOT 40: the 1-token completion meets the SLO (no
    // TPOT to miss); the TPOT-50 one misses.
    EXPECT_EQ(report.tenants[0].slo_met, 2);
    EXPECT_EQ(report.tenants[0].tpot_slo_met, 1);
    EXPECT_DOUBLE_EQ(report.tenants[0].goodput_tokens_per_s, 5.0);
    // TTFT 250 / TPOT 60: only the first completion is on time.
    EXPECT_EQ(report.tenants[1].slo_met, 1);
    EXPECT_EQ(report.tenants[1].tpot_slo_met, 2);
    // TTFT 50, no TPOT budget: nothing meets TTFT, all TPOTs pass.
    EXPECT_EQ(report.tenants[2].slo_met, 0);
    EXPECT_EQ(report.tenants[2].tpot_slo_met, 2);
    EXPECT_EQ(report.tenants[2].goodput_tokens_per_s, 0.0);

    // Only an unmeasurable completion: no TPOT sample, zero TPOT
    // percentiles, and the completion still meets the SLO.
    const LoadgenReport short_only =
        finalizeLoadgenReport(config, {finished(0, 300.0, 1, 0.0)}, 1e6);
    EXPECT_EQ(short_only.tenants[0].tpot_measured, 0);
    EXPECT_EQ(short_only.tenants[0].tpot_p50_us, 0.0);
    EXPECT_EQ(short_only.tenants[0].ttft_p50_us, 300.0);
    EXPECT_EQ(short_only.tenants[0].slo_met, 1);
}

TEST_F(SloTest, LoadgenReportsTpotSloColumn)
{
    const ServingEngine engine(testEngineConfig());
    const LoadgenConfig workload =
        mixedSloWorkload(/*seed=*/9, /*smoke=*/true);
    ServerConfig config;
    config.tenants = loadgenTenants(workload);
    config.max_batch = 16;
    config.chunked_prefill_tokens = 64;
    Server server(&engine, config);
    const LoadgenReport report = runLoadgen(&server, workload);
    server.stop();

    EXPECT_GT(report.completed, 0);
    bool chat_measured = false;
    for (const LoadgenTenantReport &row : report.tenants) {
        EXPECT_LE(row.tpot_slo_met, row.tpot_measured);
        EXPECT_LE(row.tpot_measured, row.completed);
        EXPECT_LE(row.slo_met, row.completed);
        if (row.name != "longctx" && row.tpot_measured > 0)
            chat_measured = true;
    }
    EXPECT_TRUE(chat_measured);
    const std::string rendered = renderLoadgenReport(report);
    EXPECT_NE(rendered.find("tpot slo"), std::string::npos);
}

} // namespace
} // namespace server
} // namespace comet
