/**
 * @file
 * Reproduces Figure 9: kernel-level latency of COMET-W4Ax against
 * cuBLAS-W16A16, TRT-LLM-W4A16 and TRT-LLM-W8A8 across GEMM shapes
 * and batch sizes — (a) small batches 2/4/8, (b) large batches
 * 16/64/256. Latencies are normalized to cuBLAS (= 1.00), exactly as
 * the paper plots them. The W4A4 tile fraction is pinned to 75%, the
 * paper's stated lower bound for the kernel study.
 */
#include <cstdio>

#include "bench_flags.h"
#include <vector>

#include "comet/common/table.h"
#include "comet/gpusim/cost_model.h"
#include "comet/model/layer_shapes.h"

using namespace comet;

namespace {

const GemmKernelKind kKernels[] = {
    GemmKernelKind::kCublasW16A16,
    GemmKernelKind::kTrtLlmW4A16,
    GemmKernelKind::kTrtLlmW8A8,
    GemmKernelKind::kCometW4Ax,
};

void
runBatchSet(const GemmCostModel &model, const char *title,
            const std::vector<int64_t> &batches)
{
    std::printf("--- %s ---\n", title);
    CometKernelFeatures features;
    features.w4a4_fraction = 0.75;

    // speedup of COMET over each baseline, averaged across the set.
    double sums[4] = {0, 0, 0, 0};
    int count = 0;

    for (int64_t batch : batches) {
        Table table({"GEMM (NxK)", "cuBLAS-W16A16", "TRT-LLM-W4A16",
                     "TRT-LLM-W8A8", "COMET-W4Ax",
                     "COMET speedup"});
        std::printf("batch size %lld (normalized latency, lower is "
                    "better):\n",
                    static_cast<long long>(batch));
        for (const LayerGemm &gemm : figure9Shapes(batch)) {
            const double cublas =
                model.estimate(gemm.shape, GemmKernelKind::kCublasW16A16)
                    .total_us;
            std::vector<std::string> row{gemm.name};
            double comet_latency = 0.0;
            for (size_t ki = 0; ki < 4; ++ki) {
                const double latency =
                    model.estimate(gemm.shape, kKernels[ki], features)
                        .total_us;
                row.push_back(formatDouble(latency / cublas, 2));
                sums[ki] += latency;
                if (kKernels[ki] == GemmKernelKind::kCometW4Ax)
                    comet_latency = latency;
            }
            row.push_back(formatSpeedup(cublas / comet_latency));
            table.addRow(std::move(row));
            ++count;
        }
        table.print();
        std::printf("\n");
    }

    std::printf("Average COMET-W4Ax speedups over the set:\n");
    const char *names[] = {"cuBLAS-W16A16", "TRT-LLM-W4A16",
                           "TRT-LLM-W8A8"};
    for (int i = 0; i < 3; ++i) {
        std::printf("  vs %-14s %s\n", names[i],
                    formatSpeedup(sums[i] / sums[3]).c_str());
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    comet::bench::handleArgs(argc, argv,
                             "Figure 9: W4Ax kernel latency vs cuBLAS/TRT-LLM baselines across shapes and batches");
    const GemmCostModel model(GpuSpec::a100Sxm480G());
    std::printf("=== Figure 9: kernel performance (W4A4 ratio 75%%) "
                "===\n\n");
    runBatchSet(model, "Figure 9(a): small batch sizes", {2, 4, 8});
    runBatchSet(model, "Figure 9(b): large batch sizes",
                {16, 64, 256});
    std::printf("Paper-shape checks: small-batch averages ~1.48x / "
                "1.25x / 1.37x; large-batch averages ~2.88x / 1.77x / "
                "1.33x over cuBLAS / W4A16 / W8A8.\n");
    return 0;
}
