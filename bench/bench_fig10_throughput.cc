/**
 * @file
 * Reproduces Figure 10: maximum end-to-end serving throughput of
 * COMET vs TRT-LLM (FP16 / W4A16 / W8A8) and QServe, across the model
 * zoo, under two input/output settings (1024/512 and 128/128), all on
 * one A100-80G memory budget. Throughput is normalized to
 * TRT-LLM-W4A16 (= 1.00), matching the paper's presentation.
 */
#include <algorithm>

#include "bench_flags.h"
#include "bench_report.h"

#include <cstdio>
#include <string_view>
#include <vector>

#include "comet/common/table.h"
#include "comet/obs/metrics.h"
#include "comet/serve/engine.h"

using namespace comet;

namespace {

const ServingMode kModes[] = {
    ServingMode::kTrtFp16,    ServingMode::kTrtW4A16,
    ServingMode::kTrtW8A8,    ServingMode::kQserveW4A8Kv4,
    ServingMode::kCometW4AxKv4,
};

void
runSetting(int64_t input_tokens, int64_t output_tokens, bool smoke,
           bench::BenchReport *report)
{
    std::printf("--- input/output = %lld/%lld ---\n",
                static_cast<long long>(input_tokens),
                static_cast<long long>(output_tokens));
    Table table({"model", "TRT-LLM-FP16", "TRT-LLM-W4A16",
                 "TRT-LLM-W8A8", "QServe", "COMET", "COMET batch",
                 "COMET tok/s"});

    // Smoke mode (CI): two models spanning the fits/doesn't-fit-FP16
    // boundary instead of the full zoo.
    const std::vector<std::string> model_names =
        smoke ? std::vector<std::string>{"Mistral-7B", "LLaMA-2-70B"}
              : std::vector<std::string>{
                    "Mistral-7B",  "LLaMA-3-8B",  "LLaMA-2-13B",
                    "LLaMA-1-30B", "LLaMA-1-65B", "LLaMA-2-70B",
                    "LLaMA-3-70B", "Qwen2-72B"};

    double comet_sum = 0.0, qserve_sum = 0.0, baseline_sum = 0.0,
           best_base_comet_ratio_sum = 0.0;
    int counted = 0;

    for (const std::string &name : model_names) {
        EngineConfig config;
        config.model = LlmConfig::byName(name);
        config.input_tokens = input_tokens;
        config.output_tokens = output_tokens;

        double throughputs[5];
        ThroughputResult comet_result;
        for (size_t mi = 0; mi < 5; ++mi) {
            config.mode = kModes[mi];
            const ThroughputResult result =
                ServingEngine(config).measureThroughput();
            throughputs[mi] = result.tokens_per_second;
            if (kModes[mi] == ServingMode::kCometW4AxKv4)
                comet_result = result;
        }
        const double baseline = throughputs[1]; // TRT-LLM-W4A16
        std::vector<std::string> row{name};
        for (size_t mi = 0; mi < 5; ++mi) {
            row.push_back(
                baseline > 0.0 && throughputs[mi] > 0.0
                    ? formatDouble(throughputs[mi] / baseline, 2)
                    : std::string("OOM"));
        }
        row.push_back(std::to_string(comet_result.batch));
        row.push_back(formatDouble(comet_result.tokens_per_second, 0));
        table.addRow(std::move(row));

        if (baseline > 0.0) {
            comet_sum += throughputs[4] / baseline;
            qserve_sum += throughputs[3] / baseline;
            baseline_sum += 1.0;
            const double best_baseline =
                std::max({throughputs[0], throughputs[1],
                          throughputs[2]});
            best_base_comet_ratio_sum +=
                throughputs[4] / best_baseline;
            ++counted;
        }

        if (report != nullptr) {
            // Cost-model numbers are deterministic, so the absolute
            // COMET throughput per model is a gated metric.
            const std::string prefix =
                "io" + std::to_string(input_tokens) + "_" +
                std::to_string(output_tokens) + "." + name;
            report->addMetric(prefix + ".comet_tokens_per_s",
                              throughputs[4], "tokens/s",
                              /*gate=*/true,
                              /*higher_is_better=*/true);
            if (baseline > 0.0) {
                report->addMetric(prefix + ".comet_vs_w4a16",
                                  throughputs[4] / baseline, "x",
                                  /*gate=*/true,
                                  /*higher_is_better=*/true);
            }
        }
    }
    table.print();
    std::printf("\n  COMET vs TRT-LLM-W4A16 (avg):        %s\n",
                formatSpeedup(comet_sum / counted).c_str());
    std::printf("  COMET vs best TRT-LLM config (avg):  %s\n",
                formatSpeedup(best_base_comet_ratio_sum / counted)
                    .c_str());
    std::printf("  COMET vs QServe (avg):               %s\n\n",
                formatSpeedup(comet_sum / qserve_sum).c_str());

    if (report != nullptr) {
        const std::string prefix = "io" +
                                   std::to_string(input_tokens) + "_" +
                                   std::to_string(output_tokens);
        report->addMetric(prefix + ".comet_vs_w4a16_avg",
                          comet_sum / counted, "x", /*gate=*/true,
                          /*higher_is_better=*/true);
        report->addMetric(prefix + ".comet_vs_qserve_avg",
                          comet_sum / qserve_sum, "x", /*gate=*/true,
                          /*higher_is_better=*/true);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    comet::bench::handleArgs(
        argc, argv,
        "Figure 10: max end-to-end serving throughput vs TRT-LLM "
        "and QServe",
        {{"--smoke", "reduced shapes for CI (two models, one "
                     "setting)"},
         {comet::bench::BenchReport::kJsonFlag,
          comet::bench::BenchReport::kJsonFlagHelp}});
    const bool smoke = comet::bench::smokeRequested(argc, argv);
    std::printf("=== Figure 10: end-to-end max throughput on one "
                "A100-80G (normalized to TRT-LLM-W4A16)%s ===\n\n",
                smoke ? " [smoke]" : "");
    comet::bench::BenchReport report("bench_fig10_throughput");
    report.setConfig("smoke", smoke ? "true" : "false");
    if (smoke) {
        // Reduced shapes: one short setting, two models — exercises
        // the full engine stack in a few hundred milliseconds.
        runSetting(128, 64, /*smoke=*/true, &report);
    } else {
        runSetting(1024, 512, /*smoke=*/false, &report);
        runSetting(128, 128, /*smoke=*/false, &report);
        std::printf("Paper-shape checks: COMET ~2.02x TRT-W4A16 at "
                    "1024/512 and ~1.63x at 128/128; ~1.17x over "
                    "QServe; FP16 70B+ models do not fit (OOM).\n");
    }
    // Logical tiles the cost model scheduled (scheduleTileGrid): a
    // deterministic count of the simulator's costing work, gated
    // lower-is-better at its measured value, so a costing path that
    // starts scheduling more grids than it needs fails the gate.
    report.addMetric("gpusim.tiles_scheduled",
                     static_cast<double>(
                         obs::MetricsRegistry::global()
                             .counter("gpusim.tiles_scheduled")
                             .value()),
                     "tiles", /*gate=*/true,
                     /*higher_is_better=*/false);
    report.writeIfRequested(argc, argv);
    return 0;
}
