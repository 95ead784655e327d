/**
 * @file
 * Tensor-parallel scaling bench: decode-step latency at TP=1/2/4 on
 * LLaMA-3-70B against the modeled all-reduce cost curve (DESIGN.md
 * §16). Every metric is a deterministic cost-model evaluation, so the
 * interesting ones are gated via `--json` + scripts/check_bench.py.
 *
 * Before reporting, the binary re-proves the bitwise differential
 * contract in situ (column and row GEMM shards and head-sharded
 * decode attention against their TP=1 counterparts): scaling numbers
 * from a sharding that changed the math would be meaningless.
 */
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_flags.h"
#include "bench_report.h"

#include "comet/attention/decode_attention.h"
#include "comet/common/rng.h"
#include "comet/common/table.h"
#include "comet/kernel/gemm_w4ax.h"
#include "comet/model/synthetic.h"
#include "comet/quant/kv_quant.h"
#include "comet/serve/engine.h"
#include "comet/tp/interconnect.h"
#include "comet/tp/shard.h"

namespace {

using namespace comet;

/** Bitwise equality or abort: the bench's own differential layer. */
void
requireBitIdentical(const float *a, const float *b, size_t count,
                    const char *what)
{
    COMET_CHECK_MSG(std::memcmp(a, b, count * sizeof(float)) == 0,
                    what);
}

/** Re-proves that sharded operators are bit-identical to TP=1 before
 * any scaling number is printed. */
void
proveShardingExact()
{
    Rng rng(5);
    SyntheticActivationConfig act_config;
    act_config.channels = 256;
    act_config.outlier_fraction = 0.03;
    act_config.outlier_scale = 30.0;
    act_config.seed = 6;
    const SyntheticActivationModel model(act_config);
    FmpqConfig fmpq_config;
    fmpq_config.block_size = 32;
    auto quantizer = FmpqActivationQuantizer::calibrate(
        model.sample(64, rng), fmpq_config);
    const auto activation =
        quantizer.quantize(model.sample(16, rng));
    const auto weight =
        quantizer.quantizeWeight(sampleWeights(32, 256, rng));
    W4AxGemmConfig tiles;
    tiles.tile_m = 8;
    tiles.tile_n = 8;
    tiles.tile_k = 32;
    const W4AxGemm reference(weight, quantizer.blockPrecisions(),
                             tiles);
    const Tensor expected = reference.run(activation);
    for (tp::TpPartition partition :
         {tp::TpPartition::kColumn, tp::TpPartition::kRow}) {
        auto sharded = tp::ShardedW4AxGemm::create(
            weight, quantizer.blockPrecisions(), partition, 4,
            tiles);
        COMET_CHECK_MSG(sharded.isOk(),
                        "sharded gemm construction failed");
        const Tensor got = sharded.value().run(activation);
        COMET_CHECK(got.numel() == expected.numel());
        requireBitIdentical(
            expected.data(), got.data(),
            static_cast<size_t>(expected.numel()),
            "sharded W4Ax gemm diverged from TP=1");
    }

    AttentionConfig attn;
    attn.num_heads = 8;
    attn.num_kv_heads = 4;
    attn.head_dim = 16;
    std::vector<float> q(static_cast<size_t>(attn.qDim()));
    for (float &v : q)
        v = static_cast<float>(rng.gaussian());
    Tensor k(96, attn.kvDim());
    Tensor v(96, attn.kvDim());
    for (int64_t t = 0; t < 96; ++t) {
        for (int64_t c = 0; c < attn.kvDim(); ++c) {
            k.at(t, c) = static_cast<float>(rng.gaussian());
            v.at(t, c) = static_cast<float>(rng.gaussian());
        }
    }
    const std::vector<float> expected_attn =
        decodeAttentionOnline(attn, q, k, v);
    const KvCacheQuantizer kv_quantizer;
    const QuantizedKv qk = kv_quantizer.quantize(k);
    const QuantizedKv qv = kv_quantizer.quantize(v);
    const std::vector<float> expected_quant =
        decodeAttentionQuantized(attn, q, qk, qv, kv_quantizer);
    for (int degree : {2, 4}) {
        auto sharded = tp::ShardedDecodeAttention::create(attn, degree);
        COMET_CHECK_MSG(sharded.isOk(),
                        "sharded attention construction failed");
        const std::vector<float> got = sharded.value().run(q, k, v);
        requireBitIdentical(
            expected_attn.data(), got.data(), got.size(),
            "sharded decode attention diverged from TP=1");
        const std::vector<float> got_quant =
            sharded.value().runQuantized(q, qk, qv, kv_quantizer);
        requireBitIdentical(
            expected_quant.data(), got_quant.data(),
            got_quant.size(),
            "sharded quantized attention diverged from TP=1");
    }
}

/** Decode-step latency for one model at one degree. */
double
stepUs(const LlmConfig &model, int tp, int64_t batch,
       int64_t context)
{
    EngineConfig config;
    config.model = model;
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 1024;
    config.output_tokens = 512;
    config.tensor_parallel = tp;
    StepPlan plan;
    plan.decode_batch = batch;
    plan.decode_context_sum = batch * context;
    StepGemmMemo gemm_memo;
    return ServingEngine(config).stepLatencyUs(plan, gemm_memo);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::handleArgs(
        argc, argv,
        "tensor-parallel decode scaling vs the all-reduce cost curve "
        "(bitwise differential asserts run first)",
        {{"--smoke", "reduced shapes for CI"},
         {bench::BenchReport::kJsonFlag,
          bench::BenchReport::kJsonFlagHelp}});
    const bool smoke = bench::smokeRequested(argc, argv);
    proveShardingExact();
    std::printf("sharded operators: bit-identical to TP=1\n\n");

    const int64_t batch = smoke ? 32 : 64;
    const int64_t context = 1280;
    const LlmConfig large = LlmConfig::llama3_70b();
    const LlmConfig small = LlmConfig::llama3_8b();

    bench::BenchReport report("bench_tp_scaling");
    report.setConfig("smoke", smoke ? "true" : "false");
    report.setConfig("batch", batch);
    report.setConfig("context", context);
    report.setConfig("model", "llama3_70b");

    const double tp1 = stepUs(large, 1, batch, context);
    const double tp2 = stepUs(large, 2, batch, context);
    const double tp4 = stepUs(large, 4, batch, context);
    const double speedup2 = tp1 / tp2;
    const double speedup4 = tp1 / tp4;

    EngineConfig ar_config;
    ar_config.model = large;
    ar_config.mode = ServingMode::kCometW4AxKv4;
    ar_config.tensor_parallel = 4;
    const ServingEngine ar_engine(ar_config);
    const double allreduce4 = ar_engine.allReduceLatencyUs(batch);
    const tp::InterconnectModel link(ar_engine.gpu());
    const double crossover4 = link.ringDirectCrossoverBytes(4);

    const double small1 = stepUs(small, 1, batch, context);
    const double small4 = stepUs(small, 4, batch, context);
    const double small_speedup4 = small1 / small4;

    // The crossover claim in one assert: a 70B layer amortizes its
    // all-reduce tax far better than an 8B layer, so scaling must
    // favor the large model at equal degree.
    COMET_CHECK_MSG(speedup4 > small_speedup4,
                    "TP=4 speedup did not grow with model scale");
    COMET_CHECK_MSG(speedup2 > 1.0,
                    "TP=2 slowed the 70B decode step down");

    Table table({"model", "TP", "step us", "speedup",
                 "all-reduce us/step"});
    table.addRow({"llama3_70b", "1", formatDouble(tp1, 1), "1.00",
                  "0.0"});
    table.addRow({"llama3_70b", "2", formatDouble(tp2, 1),
                  formatDouble(speedup2, 2), "-"});
    table.addRow({"llama3_70b", "4", formatDouble(tp4, 1),
                  formatDouble(speedup4, 2),
                  formatDouble(allreduce4, 1)});
    table.addRow({"llama3_8b", "4", formatDouble(small4, 1),
                  formatDouble(small_speedup4, 2), "-"});
    table.print();
    std::printf("\nring/direct crossover at TP=4: %.0f bytes\n",
                crossover4);

    report.addMetric("decode_step_us_tp1", tp1, "us", true, false);
    report.addMetric("decode_step_us_tp2", tp2, "us", true, false);
    report.addMetric("decode_step_us_tp4", tp4, "us", true, false);
    report.addMetric("speedup_tp2", speedup2, "x", true, true);
    report.addMetric("speedup_tp4", speedup4, "x", true, true);
    report.addMetric("allreduce_us_tp4", allreduce4, "us", true,
                     false);
    report.addMetric("ring_direct_crossover_bytes_tp4", crossover4,
                     "bytes", true, false);
    report.addMetric("small_model_speedup_tp4", small_speedup4, "x",
                     false, true);
    report.writeIfRequested(argc, argv);
    return 0;
}
