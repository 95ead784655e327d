/**
 * @file
 * Tests for SLO attainment accounting: per-tenant TTFT/TPOT
 * ok/miss counters on the server (TenantSloStats and the
 * `server.tenant.<name>.slo.*` registry counters), the TraceMetrics
 * attainment helpers, and the load generator's TPOT-SLO columns.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "comet/obs/metrics.h"
#include "comet/serve/engine.h"
#include "comet/serve/trace.h"
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

TEST_F(SloTest, TraceMetricsAttainmentFractions)
{
    TraceMetrics metrics;
    RequestLatency a;
    a.ttft_us = 100.0;
    a.tpot_us = 10.0;
    a.output_tokens = 4;
    RequestLatency b;
    b.ttft_us = 300.0;
    b.tpot_us = 0.0;
    b.output_tokens = 1; // no measurable TPOT
    RequestLatency c;
    c.ttft_us = 500.0;
    c.tpot_us = 50.0;
    c.output_tokens = 2;
    metrics.per_request = {a, b, c};

    EXPECT_DOUBLE_EQ(metrics.ttftAttainment(1000.0), 1.0);
    EXPECT_DOUBLE_EQ(metrics.ttftAttainment(250.0), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(metrics.ttftAttainment(50.0), 0.0);
    // TPOT attainment is over the 2 requests with >= 2 tokens.
    EXPECT_DOUBLE_EQ(metrics.tpotAttainment(40.0), 0.5);
    EXPECT_DOUBLE_EQ(metrics.tpotAttainment(60.0), 1.0);

    const TraceMetrics empty;
    EXPECT_TRUE(std::isnan(empty.ttftAttainment(100.0)));
    EXPECT_TRUE(std::isnan(empty.tpotAttainment(100.0)));
    // Only unmeasurable completions -> TPOT attainment stays NaN.
    TraceMetrics short_only;
    short_only.per_request = {b};
    EXPECT_TRUE(std::isnan(short_only.tpotAttainment(100.0)));
    EXPECT_DOUBLE_EQ(short_only.ttftAttainment(300.0), 1.0);
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
