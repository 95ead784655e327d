/**
 * @file
 * Extension benches beyond the paper's figures (DESIGN.md Section 5):
 *
 *  1. Decode-attention KV-precision sweep — quantifies the Figure 2
 *     claim on the real operator: the act-act kernel is bandwidth-
 *     bound, so its modeled time scales with stored KV bits while the
 *     *numerical* error of the quantized-cache path stays small
 *     (measured on the bit-faithful emulation).
 *  2. A100 vs H100 outlook — Hopper drops the INT4 tensor cores
 *     (Section 4.3's FP4 discussion targets it), so COMET's W4Ax
 *     kernel advantage over W4A8 shrinks to its memory savings there,
 *     while the KV4 serving gains persist.
 */
#include <cmath>

#include "bench_flags.h"
#include <cstdio>

#include "comet/attention/decode_attention.h"
#include "comet/common/rng.h"
#include "comet/common/table.h"
#include "comet/gpusim/cost_model.h"
#include "comet/model/layer_shapes.h"

using namespace comet;

namespace {

void
attentionSweep()
{
    std::printf("--- decode attention: KV precision sweep "
                "(LLaMA-3-8B geometry, batch 1) ---\n");
    AttentionConfig config;
    config.num_heads = 32;
    config.num_kv_heads = 8;
    config.head_dim = 128;

    const GpuSpec spec = GpuSpec::a100Sxm480G();
    Rng rng(3);

    Table table({"context", "KV bits", "KV bytes (MB)",
                 "modeled time (us)", "max |err| vs FP cache"});
    for (int64_t context : {512, 2048, 8192}) {
        // Bit-faithful numerical error on a downscaled cache (the
        // error is per-value and context-independent).
        const int64_t probe_tokens = 128;
        Tensor k(probe_tokens, config.kvDim());
        Tensor v(probe_tokens, config.kvDim());
        for (int64_t i = 0; i < k.numel(); ++i) {
            k[i] = static_cast<float>(rng.gaussian(0, 1));
            v[i] = static_cast<float>(rng.gaussian(0, 1));
        }
        std::vector<float> q(static_cast<size_t>(config.qDim()));
        for (auto &x : q)
            x = static_cast<float>(rng.gaussian(0, 1));
        const auto exact =
            decodeAttentionReference(config, q, k, v);

        for (int bits : {16, 8, 4}) {
            const double bytes = decodeAttentionKvBytes(
                config, context, static_cast<double>(bits));
            const double time_us =
                bytes / (spec.hbm_bandwidth * 0.85) * 1e6;
            double max_err = 0.0;
            if (bits < 16) {
                const KvCacheQuantizer quantizer(
                    KvQuantConfig{bits, 64, true});
                const auto approx = decodeAttentionQuantized(
                    config, q, quantizer.quantize(k),
                    quantizer.quantize(v), quantizer);
                for (size_t i = 0; i < exact.size(); ++i) {
                    max_err = std::max(
                        max_err,
                        std::fabs(static_cast<double>(exact[i]) -
                                  approx[i]));
                }
            }
            table.addRow({std::to_string(context),
                          std::to_string(bits),
                          formatDouble(bytes / 1e6, 2),
                          formatDouble(time_us, 2),
                          bits == 16 ? std::string("-")
                                     : formatDouble(max_err, 4)});
        }
        table.addSeparator();
    }
    table.print();
    std::printf("\nReading: time scales with stored bits (memory "
                "bound); KV4 numerical error stays ~1e-2 on unit-"
                "scale values — the Section 3.2 rationale.\n\n");
}

void
gpuOutlook()
{
    std::printf("--- A100 vs H100 outlook: COMET kernel speedup "
                "over its own W4A8 configuration ---\n");
    CometKernelFeatures all_int8;
    all_int8.w4a4_fraction = 0.0;

    Table table({"GPU", "GEMM", "W4A8 (us)", "COMET-W4Ax (us)",
                 "speedup"});
    for (const GpuSpec &spec :
         {GpuSpec::a100Sxm480G(), GpuSpec::h100Sxm80G()}) {
        const GemmCostModel model(spec);
        for (const LayerGemm &gemm : figure9Shapes(128)) {
            if (gemm.name != "8Kx8K" && gemm.name != "13.5Kx5K")
                continue;
            const double w4a8 =
                model.estimate(gemm.shape, GemmKernelKind::kCometW4Ax,
                               all_int8)
                    .total_us;
            const double comet =
                model.estimate(gemm.shape, GemmKernelKind::kCometW4Ax)
                    .total_us;
            table.addRow({spec.name, gemm.name,
                          formatDouble(w4a8, 1),
                          formatDouble(comet, 1),
                          formatSpeedup(w4a8 / comet)});
        }
        table.addSeparator();
    }
    table.print();
    std::printf("\nReading: on A100 the INT4 tensor cores buy "
                "~1.4-1.5x over W4A8; on H100 (no INT4 tensor "
                "cores, 4-bit runs at the INT8 rate after the FP4/"
                "INT4 conversion of Section 4.3) the advantage "
                "reduces to the activation-traffic savings.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    comet::bench::handleArgs(argc, argv,
                             "Extension: decode-attention KV-precision sweep (latency vs numerical error)");
    std::printf("=== Extension ablations: attention KV precision & "
                "next-gen GPU outlook ===\n\n");
    attentionSweep();
    gpuOutlook();
    return 0;
}
