/**
 * @file
 * Example: latency-oriented serving under bursty arrivals.
 *
 * Replays the same Poisson request trace through COMET and the
 * TRT-LLM-style baselines and reports TTFT/TPOT percentiles — the
 * serving-quality dimension the paper's Section 7 connects to
 * scheduler work like Sarathi-Serve.
 *
 * Build & run:  ./build/examples/latency_trace
 */
#include <cstdio>
#include <utility>
#include <vector>

#include "comet/common/stats.h"
#include "comet/common/table.h"
#include "comet/server/loadgen.h"
#include "comet/server/server.h"

using namespace comet;

int
main()
{
    server::TraceConfig trace_config;
    trace_config.request_rate_per_s = 8.0;
    trace_config.num_requests = 48;
    trace_config.mean_prompt_tokens = 512;
    trace_config.mean_output_tokens = 128;
    const auto trace = server::generateTrace(trace_config);
    const server::LoadgenConfig loadgen = server::traceLoadgenConfig();
    std::printf("trace: %d requests, Poisson %.1f req/s, mean "
                "prompt/output %lld/%lld tokens, LLaMA-3-8B\n\n",
                trace_config.num_requests,
                trace_config.request_rate_per_s,
                static_cast<long long>(
                    trace_config.mean_prompt_tokens),
                static_cast<long long>(
                    trace_config.mean_output_tokens));

    Table table({"system", "TTFT p50 (ms)", "TTFT p95 (ms)",
                 "TPOT p50 (ms)", "TPOT p95 (ms)", "tokens/s"});
    for (ServingMode mode :
         {ServingMode::kTrtFp16, ServingMode::kTrtW4A16,
          ServingMode::kQserveW4A8Kv4, ServingMode::kCometW4AxKv4}) {
        EngineConfig config;
        config.model = LlmConfig::llama3_8b();
        config.mode = mode;
        config.input_tokens = trace_config.mean_prompt_tokens;
        config.output_tokens = trace_config.mean_output_tokens;
        const ServingEngine engine(config);
        server::Server server(&engine,
                              server::traceServerConfig(config));
        const server::LoadgenReport report =
            server::runLoadgen(&server, loadgen, trace);
        std::vector<double> ttfts, tpots;
        for (const server::RequestOutcome &outcome : report.outcomes) {
            if (outcome.terminal != server::StreamEventKind::kFinished)
                continue;
            ttfts.push_back(outcome.ttftUs());
            if (outcome.tokens > 1)
                tpots.push_back(outcome.tpotUs());
        }
        const std::vector<double> ttft =
            exactPercentiles(std::move(ttfts), {50, 95});
        const std::vector<double> tpot =
            exactPercentiles(std::move(tpots), {50, 95});
        const double tokens_per_s =
            static_cast<double>(report.tokens) /
            (report.makespan_us * 1e-6);
        table.addRow({servingModeName(mode),
                      formatDouble(ttft[0] / 1e3, 1),
                      formatDouble(ttft[1] / 1e3, 1),
                      formatDouble(tpot[0] / 1e3, 2),
                      formatDouble(tpot[1] / 1e3, 2),
                      formatDouble(tokens_per_s, 0)});
    }
    table.print();
    std::printf("\nReading: quantization helps tail latency twice — "
                "faster decode steps lower TPOT directly, and the "
                "smaller KV footprint admits queued requests sooner, "
                "lowering TTFT under load.\n");
    return 0;
}
