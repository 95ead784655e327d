/**
 * @file
 * Reproduces Figure 14: the fine-grained SM scheduling ladder. For
 * LLaMA-3-8B and LLaMA-3-70B GEMMs, speedup over the uniform W4A8
 * kernel is reported for the naive W4Ax kernel, +tile remapping,
 * +tile decomposition (task stealing, the full COMET-W4Ax), and the
 * Oracle pure-W4A4 kernel — plus COMET's fraction of Oracle
 * performance (paper: 92.7%-97.8%).
 */
#include <cstdio>

#include "bench_flags.h"
#include <vector>

#include "comet/common/table.h"
#include "comet/gpusim/cost_model.h"
#include "comet/model/layer_shapes.h"

using namespace comet;

int
main(int argc, char **argv)
{
    comet::bench::handleArgs(argc, argv,
                             "Figure 14: fine-grained SM scheduling ladder vs the Oracle W4A4 kernel");
    const GemmCostModel cost_model(GpuSpec::a100Sxm480G());
    std::printf("=== Figure 14: SM scheduling ablation (speedup over "
                "the W4A8 kernel; higher is better) ===\n\n");

    const auto variants = figure14Variants();
    std::vector<std::string> headers{"model"};
    for (const W4AxVariant &variant : variants)
        headers.push_back(variant.name);
    headers.push_back("Oracle W4A4");
    headers.push_back("COMET/Oracle");
    Table table(headers);

    const LlmConfig models[] = {LlmConfig::llama3_8b(),
                                LlmConfig::llama3_70b()};
    for (const LlmConfig &model : models) {
        // Aggregate the decoder GEMMs at the paper's large-batch
        // operating point.
        constexpr int64_t kBatch = 128;
        // The W4A8 reference is COMET's own kernel with every tile
        // forced to the INT8 path — the paper's "W4A8 GEMM kernel",
        // sharing the exact tile/pipeline machinery.
        CometKernelFeatures all_int8;
        all_int8.w4a4_fraction = 0.0;
        double w4a8 = 0.0, oracle = 0.0;
        std::vector<double> latency(variants.size(), 0.0);
        for (const LayerGemm &gemm :
             decoderLayerGemms(model, kBatch)) {
            w4a8 += cost_model
                        .estimate(gemm.shape, GemmKernelKind::kCometW4Ax,
                                  all_int8)
                        .total_us;
            oracle += cost_model
                          .estimate(gemm.shape,
                                    GemmKernelKind::kOracleW4A4)
                          .total_us;
            for (size_t vi = 0; vi < variants.size(); ++vi) {
                latency[vi] += cost_model
                                   .estimate(gemm.shape,
                                             GemmKernelKind::kCometW4Ax,
                                             variants[vi].features)
                                   .total_us;
            }
        }
        std::vector<std::string> row{model.name};
        for (size_t vi = 0; vi < variants.size(); ++vi)
            row.push_back(formatSpeedup(w4a8 / latency[vi]));
        row.push_back(formatSpeedup(w4a8 / oracle));
        row.push_back(formatPercent(oracle / latency.back()));
        table.addRow(std::move(row));
    }
    table.print();

    std::printf("\nPaper-shape checks: naive W4Ax ~1.2-1.3x over "
                "W4A8; remapping lifts it to ~1.56-1.60x; tile "
                "decomposition reaches ~1.67-1.71x; Oracle W4A4 "
                "stays below 2x; COMET lands at >90%% of Oracle.\n");
    return 0;
}
