/**
 * @file
 * Reproduces Figure 13: ablation of the W4Ax kernel optimizations —
 * SIMT-enhanced software pipeline, weight interleaving, and fast
 * INT4->INT8 conversion — on LLaMA-3 GEMM shapes across batch sizes
 * 16-256. Reported as latency normalized to the fully optimized
 * kernel (lower is better; the paper measures 1.69x / 1.27x / 1.53x
 * degradations).
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
                             "Figure 13: W4Ax kernel optimization ablation (pipeline/interleave/fast-convert)");
    const GemmCostModel cost_model(GpuSpec::a100Sxm480G());
    std::printf("=== Figure 13: W4Ax kernel optimization ablation "
                "(normalized latency, lower is better) ===\n\n");

    const auto variants = figure13Variants();
    std::vector<std::string> headers{"model", "batch"};
    for (const W4AxVariant &variant : variants)
        headers.push_back(variant.name);
    Table table(headers);

    const LlmConfig models[] = {LlmConfig::llama3_8b(),
                                LlmConfig::llama3_70b()};

    std::vector<double> sums(variants.size(), 0.0);
    for (const LlmConfig &model : models) {
        for (int64_t batch : {16, 64, 256}) {
            // Aggregate over the model's decoder GEMMs, as the paper
            // profiles whole linear layers.
            std::vector<double> latency(variants.size(), 0.0);
            for (const LayerGemm &gemm :
                 decoderLayerGemms(model, batch)) {
                for (size_t vi = 0; vi < variants.size(); ++vi) {
                    latency[vi] +=
                        cost_model
                            .estimate(gemm.shape,
                                      GemmKernelKind::kCometW4Ax,
                                      variants[vi].features)
                            .total_us;
                }
            }
            std::vector<std::string> row{model.name,
                                         std::to_string(batch)};
            for (size_t vi = 0; vi < variants.size(); ++vi) {
                row.push_back(
                    formatDouble(latency[vi] / latency[0], 2));
                sums[vi] += latency[vi] / latency[0];
            }
            table.addRow(std::move(row));
        }
        table.addSeparator();
    }
    table.print();

    const double count = 6.0;
    std::printf("\nAverage degradation when removing each "
                "optimization:\n");
    std::printf("  w/o software pipeline:   %s (paper: 1.69x)\n",
                formatSpeedup(sums[1] / count).c_str());
    std::printf("  w/o weight interleaving: %s (paper: 1.27x)\n",
                formatSpeedup(sums[2] / count).c_str());
    std::printf("  w/o fast conversion:     %s (paper: 1.53x)\n",
                formatSpeedup(sums[3] / count).c_str());
    return 0;
}
