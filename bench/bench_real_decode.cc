/**
 * @file
 * Real-decode bench: host time per token of the W4A4KV4
 * QuantizedDecoder against context length, plus the KV store's
 * deterministic work and size counters.
 *
 * The model is the tiny decoder the repository benchmark uses (hidden
 * 128, 4 heads over 2 KV heads, 2 layers, vocab 512). A seeded prompt
 * of 128 tokens is prefilled in one batched forward, then random
 * tokens are decoded one at a time up to 2048 context.
 *
 * Reported:
 *  - per-token host ms (median of the 64 decode steps ending at
 *    contexts 256, 1024 and 2048) and the prefill time (median of 11
 *    prefills of the prompt): raw CPU timings, ungated;
 *  - KV values quantized per append (one K or V row) at 2048 context,
 *    from the `quant.kv_values_quantized` counter: the append-only
 *    store quantizes the row and re-quantizes only the held values of
 *    the open-group channels whose range the row moved, so this stays
 *    at most the group size times the channels at any context.
 *    Gated;
 *  - K/V rows widened per decode step at 2048 context, from the
 *    `attention.kv_rows_widened` counter: the store attention widens
 *    each raw K and V row once per kv head for all the query heads
 *    sharing it, so one step widens tokens x kv heads x 2 x layers
 *    rows. Gated;
 *  - K/V rows widened by the 128-token prefill, from the same
 *    counter: the batched prefill attention folds each group closed
 *    before a block of rows once for the block's query vectors, and
 *    each row's own open group alone. Gated;
 *  - KV store bytes per token at 2048 context, from
 *    QuantizedDecoder::kvCacheBytes() (packed values plus per-group
 *    parameters). Gated;
 *  - W4Ax GEMM runs, activation quantizations and W4Ax tiles per
 *    decode step, from the `kernel.w4ax.runs`,
 *    `quant.act_quantize_calls` and `kernel.w4ax.int{4,8}_tiles`
 *    counters: fusing the projections that share an activation site
 *    (q|k|v, gate|up) runs 4 GEMMs and 4 quantizations per layer
 *    over the same tiles. Gated;
 *  - column-block dot passes of the layer-0 q|k|v GEMM at M = 128,
 *    from the `kernel.w4ax.dot_passes` counter: one pass over each
 *    widened column block serves simd::kColumnBlockRows activation
 *    rows. Gated;
 *  - resident weight bytes of the layer-0 q|k|v GEMM, from
 *    W4AxGemm::weightBytes(): one INT4 copy in the kernel layout plus
 *    the per-k-tile scales. Gated;
 *  - the per-layer host split of the 64 steps ending at 2048 context,
 *    replayed once with the decoder's spans recorded (decoder/qkv,
 *    attention, o, mlp, lm_head), the same split of one 128-token
 *    prefill, the host time of the layer-0 FMPQ quantization and
 *    q|k|v GEMM at M = 1 and M = 128, and of the store attention at
 *    256 and 2048 context and one K+V append, on stores of the
 *    model's K/V width filled with Gaussian rows: ungated.
 *
 * Checks (any failure exits 1): every logit is finite, the values
 * quantized per append never exceed one open group's, the last
 * step widens exactly tokens x kv heads x 2 x layers K/V rows, and the
 * 128-row GEMM takes one dot pass per column block and
 * simd::kColumnBlockRows rows.
 */
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "bench_report.h"

#include "comet/model/quantized_decoder.h"
#include "comet/obs/metrics.h"
#include "comet/obs/trace_session.h"
#include "comet/simd/simd.h"

using namespace comet;

namespace {

constexpr int64_t kPromptTokens = 128;
constexpr int64_t kMaxContext = 2048;
constexpr int64_t kWindowTokens = 64;
/** Prefills whose median is the reported prefill time. */
constexpr size_t kPrefillRuns = 11;
const int64_t kReportContexts[] = {256, 1024, kMaxContext};

TinyTransformerConfig
modelConfig()
{
    TinyTransformerConfig config;
    config.vocab_size = 512;
    config.hidden_size = 128;
    config.num_heads = 4;
    config.num_kv_heads = 2;
    config.num_layers = 2;
    config.intermediate_size = 256;
    config.seed = 7;
    return config;
}

bool
allFinite(const std::vector<float> &logits)
{
    return std::all_of(logits.begin(), logits.end(),
                       [](float v) { return std::isfinite(v); });
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Median host microseconds of @p calls calls of @p fn. */
template <typename Fn>
double
medianCallUs(int calls, Fn &&fn)
{
    std::vector<double> us;
    for (int i = 0; i < calls; ++i) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        us.push_back(1e3 * msSince(start));
    }
    return median(std::move(us));
}

/** The decoder stages in forward order; each records a
 * "decoder/<stage>" span. */
const char *const kStages[] = {"qkv", "attention", "o", "mlp", "lm_head"};
constexpr size_t kNumStages = std::size(kStages);

/** Host microseconds per stage of the decoder work @p fn does, run
 * once with spans recorded, divided by @p per. */
template <typename Fn>
std::array<double, kNumStages>
stageSplitUs(double per, Fn &&fn)
{
    obs::TraceSession &trace = obs::TraceSession::global();
    trace.drain();
    trace.start();
    fn();
    trace.stop();
    std::array<double, kNumStages> us{};
    for (const obs::SpanRecord &span : trace.drain()) {
        for (size_t i = 0; i < kNumStages; ++i) {
            if (span.name == std::string("decoder/") + kStages[i])
                us[i] += 1e-3 *
                         static_cast<double>(span.end_ns - span.begin_ns) /
                         per;
        }
    }
    return us;
}

/** Prints one stage split with each stage's share of the total. */
void
printStageSplit(const std::array<double, kNumStages> &us)
{
    double total = 0.0;
    for (const double stage : us)
        total += stage;
    for (size_t i = 0; i < kNumStages; ++i) {
        std::printf("  decoder/%-10s %8.1f  (%4.1f%%)\n", kStages[i], us[i],
                    100.0 * us[i] / total);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::handleArgs(
        argc, argv,
        "host time per token of the real W4A4KV4 decoder against "
        "context length, with the KV store's values-quantized, "
        "rows-widened and bytes-per-token counters",
        {{"--seed=", "token stream seed (default 1)"},
         {bench::BenchReport::kJsonFlag,
          bench::BenchReport::kJsonFlagHelp}});
    const auto seed = static_cast<uint64_t>(
        bench::flagValue(argc, argv, "--seed=", 1));

    const TinyTransformer teacher = TinyTransformer::random(modelConfig());
    Rng calib_rng(11);
    const Dataset calib = sampleDataset(teacher, 3, 32, calib_rng);
    const CalibrationData calibration =
        CalibrationData::collect(teacher, calib);
    const QuantizedDecoderConfig qconfig;
    QuantizedDecoder decoder(teacher, calibration, qconfig);

    const int64_t vocab = teacher.config().vocab_size;
    const int64_t stores = 2 * teacher.config().num_layers;
    Rng rng(seed);
    std::vector<int32_t> stream;
    for (int64_t i = 0; i < kMaxContext; ++i)
        stream.push_back(static_cast<int32_t>(
            rng.uniformInt(static_cast<uint64_t>(vocab))));

    int failures = 0;
    const auto check = [&](bool ok, const std::string &what) {
        if (!ok) {
            std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
            ++failures;
        }
    };

    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    obs::Counter &values_quantized =
        registry.counter("quant.kv_values_quantized");
    obs::Counter &rows_widened =
        registry.counter("attention.kv_rows_widened");
    // Per-step work counters, read over the last window's steps.
    obs::Counter *const work[] = {
        &registry.counter("kernel.w4ax.runs"),
        &registry.counter("quant.act_quantize_calls"),
        &registry.counter("kernel.w4ax.int4_tiles"),
        &registry.counter("kernel.w4ax.int8_tiles")};
    int64_t work_before[4] = {};
    std::optional<QuantizedDecoder> window_start;
    const QuantizedDecoder fresh = decoder;
    const int64_t prefill_widened_before = rows_widened.value();
    const auto prefill_start = std::chrono::steady_clock::now();
    std::vector<float> logits = decoder.prefill(
        {stream.begin(), stream.begin() + kPromptTokens});
    std::vector<double> prefill_runs_ms{msSince(prefill_start)};
    const int64_t prefill_rows_widened =
        rows_widened.value() - prefill_widened_before;
    check(allFinite(logits), "prefill logits are finite");
    // The counted prefill above is the first of kPrefillRuns; the rest
    // each prefill a copy of the fresh decoder made outside the timing.
    while (prefill_runs_ms.size() < kPrefillRuns) {
        QuantizedDecoder prefiller = fresh;
        const auto start = std::chrono::steady_clock::now();
        (void)prefiller.prefill(
            {stream.begin(), stream.begin() + kPromptTokens});
        prefill_runs_ms.push_back(msSince(start));
    }
    const double prefill_ms = median(std::move(prefill_runs_ms));

    // step_ms[t]: the decode step that feeds the token at position t.
    std::vector<double> step_ms(static_cast<size_t>(kMaxContext), 0.0);
    int64_t window_values = 0;
    int64_t max_values = 0;
    int64_t last_step_rows_widened = 0;
    for (int64_t t = kPromptTokens; t < kMaxContext; ++t) {
        if (t == kMaxContext - kWindowTokens) {
            window_start.emplace(decoder);
            for (size_t c = 0; c < std::size(work); ++c)
                work_before[c] = work[c]->value();
        }
        const int64_t values_before = values_quantized.value();
        const int64_t widened_before = rows_widened.value();
        const auto start = std::chrono::steady_clock::now();
        logits = decoder.step(stream[static_cast<size_t>(t)]);
        step_ms[static_cast<size_t>(t)] = msSince(start);
        const int64_t values = values_quantized.value() - values_before;
        last_step_rows_widened = rows_widened.value() - widened_before;
        max_values = std::max(max_values, values);
        if (t >= kMaxContext - kWindowTokens)
            window_values += values;
        check(allFinite(logits),
              "decode logits are finite at position " + std::to_string(t));
    }
    const int64_t kv_dim = teacher.config().num_kv_heads *
                           teacher.config().headDim();
    check(max_values <= stores * qconfig.kv.group_size * kv_dim,
          "each append re-quantizes at most one group");
    check(last_step_rows_widened ==
              kMaxContext * teacher.config().num_kv_heads * 2 *
                  teacher.config().num_layers,
          "the last step widens each K/V row once per kv head");
    const auto per_step = [&](size_t c) {
        return static_cast<double>(work[c]->value() - work_before[c]) /
               static_cast<double>(kWindowTokens);
    };
    const double gemms_per_step = per_step(0);
    const double quantizations_per_step = per_step(1);
    const double tiles_per_step = per_step(2) + per_step(3);

    // The per-layer splits: the last window replayed with the
    // decoder's spans recorded (each stage's span time per step), and
    // the prompt prefilled again from the fresh decoder.
    const std::array<double, kNumStages> stage_us =
        stageSplitUs(static_cast<double>(kWindowTokens), [&] {
            for (int64_t t = kMaxContext - kWindowTokens; t < kMaxContext;
                 ++t)
                (void)window_start->step(stream[static_cast<size_t>(t)]);
        });
    const std::array<double, kNumStages> prefill_stage_us =
        stageSplitUs(1.0, [&] {
            QuantizedDecoder prefiller = fresh;
            (void)prefiller.prefill(
                {stream.begin(), stream.begin() + kPromptTokens});
        });

    // The layer-0 q|k|v GEMM, the decoder's widest site, alone.
    const FmpqActivationQuantizer quantizer =
        FmpqActivationQuantizer::calibrate(
            calibration.activations(0, ActSite::kQkv), qconfig.fmpq);
    W4AxGemmConfig gemm_config;
    gemm_config.tile_m = qconfig.tile_m;
    gemm_config.tile_n = qconfig.tile_n;
    gemm_config.tile_k = qconfig.tile_k;
    gemm_config.threads = qconfig.gemm_threads;
    const Tensor qkv_weight =
        stackRows({&teacher.weight({0, WeightKind::kQ}),
                   &teacher.weight({0, WeightKind::kK}),
                   &teacher.weight({0, WeightKind::kV})});
    const W4AxGemm qkv(quantizer.quantizeWeight(qkv_weight),
                       quantizer.blockPrecisions(), gemm_config);
    Rng act_rng(seed + 1);
    Tensor acts(kPromptTokens, teacher.config().hidden_size);
    for (int64_t i = 0; i < acts.numel(); ++i)
        acts[i] = static_cast<float>(act_rng.gaussian());
    Tensor act_row(1, acts.cols());
    std::copy(acts.data(), acts.data() + acts.cols(), act_row.data());
    const MixedQuantizedActivation q_row = quantizer.quantize(act_row);
    const MixedQuantizedActivation q_rows = quantizer.quantize(acts);
    const double quantize_m1_us =
        medianCallUs(201, [&] { (void)quantizer.quantize(act_row); });
    const double quantize_m128_us =
        medianCallUs(21, [&] { (void)quantizer.quantize(acts); });
    const double w4ax_m1_us =
        medianCallUs(201, [&] { (void)qkv.run(q_row); });
    const double w4ax_m128_us =
        medianCallUs(21, [&] { (void)qkv.run(q_rows); });
    obs::Counter &dot_passes_counter =
        registry.counter("kernel.w4ax.dot_passes");
    const int64_t passes_before = dot_passes_counter.value();
    (void)qkv.run(q_rows);
    const int64_t dot_passes_m128 = dot_passes_counter.value() - passes_before;
    const int64_t column_blocks =
        (qkv_weight.rows() + simd::kColumnBlock - 1) / simd::kColumnBlock;
    check(dot_passes_m128 ==
              (kPromptTokens + simd::kColumnBlockRows - 1) /
                  simd::kColumnBlockRows * column_blocks,
          "a 128-row GEMM takes one dot pass per column block and "
          "kColumnBlockRows rows");

    // The store attention and the K+V append alone, on stores of the
    // model's K/V shape filled with Gaussian rows.
    AttentionConfig attention_config;
    attention_config.num_heads = teacher.config().num_heads;
    attention_config.num_kv_heads = teacher.config().num_kv_heads;
    attention_config.head_dim = teacher.config().headDim();
    Rng kv_rng(seed + 2);
    Tensor kv_rows(2 * kMaxContext, kv_dim);
    for (int64_t i = 0; i < kv_rows.numel(); ++i)
        kv_rows[i] = static_cast<float>(kv_rng.gaussian());
    std::vector<float> query(static_cast<size_t>(attention_config.qDim()));
    for (float &x : query)
        x = static_cast<float>(kv_rng.gaussian());
    KvStore k_store(kv_dim, qconfig.kv), v_store(kv_dim, qconfig.kv);
    int64_t filled = 0;
    const double append_us = medianCallUs(kPromptTokens * 4, [&] {
        k_store.append(kv_rows.data() + filled * kv_dim);
        v_store.append(kv_rows.data() + (kMaxContext + filled) * kv_dim);
        ++filled;
    });
    std::vector<double> attention_us;
    for (const int64_t context : {int64_t{256}, kMaxContext}) {
        for (; filled < context; ++filled) {
            k_store.append(kv_rows.data() + filled * kv_dim);
            v_store.append(kv_rows.data() + (kMaxContext + filled) * kv_dim);
        }
        attention_us.push_back(medianCallUs(201, [&] {
            (void)decodeAttentionQuantized(attention_config, query, k_store,
                                           v_store);
        }));
    }

    const double values_per_append =
        static_cast<double>(window_values) /
        static_cast<double>(kWindowTokens * stores);
    const double bytes_per_token =
        static_cast<double>(decoder.kvCacheBytes()) /
        static_cast<double>(decoder.position());

    std::printf("=== Real W4A4KV4 decode (hidden %lld, %lld layers, "
                "KV%d group %lld, seed %llu) ===\n\n",
                static_cast<long long>(teacher.config().hidden_size),
                static_cast<long long>(teacher.config().num_layers),
                qconfig.kv.bits,
                static_cast<long long>(qconfig.kv.group_size),
                static_cast<unsigned long long>(seed));
    std::printf("prefill of %lld tokens: %.2f ms\n",
                static_cast<long long>(kPromptTokens), prefill_ms);

    bench::BenchReport report("bench_real_decode");
    report.setConfig("seed", static_cast<int64_t>(seed));
    report.setConfig("prompt_tokens", kPromptTokens);
    report.setConfig("max_context", kMaxContext);
    report.setConfig("kv_bits", qconfig.kv.bits);
    report.setConfig("kv_group_size", qconfig.kv.group_size);
    for (const int64_t context : kReportContexts) {
        const double ms = median(std::vector<double>(
            step_ms.begin() + (context - kWindowTokens),
            step_ms.begin() + context));
        std::printf("context %5lld: %.3f ms/token\n",
                    static_cast<long long>(context), ms);
        report.addMetric("tok_ms_ctx" + std::to_string(context), ms, "ms",
                         /*gate=*/false, /*higher_is_better=*/false);
    }
    std::printf("KV values quantized per append at %lld context: %.2f "
                "(group size %lld x %lld channels)\n",
                static_cast<long long>(kMaxContext), values_per_append,
                static_cast<long long>(qconfig.kv.group_size),
                static_cast<long long>(kv_dim));
    std::printf("K/V rows widened by the step at %lld context: %lld\n",
                static_cast<long long>(kMaxContext),
                static_cast<long long>(last_step_rows_widened));
    std::printf("K/V rows widened by the %lld-token prefill: %lld\n",
                static_cast<long long>(kPromptTokens),
                static_cast<long long>(prefill_rows_widened));
    std::printf("KV store bytes per token: %.1f\n", bytes_per_token);
    std::printf("per decode step: %.0f W4Ax GEMMs, %.0f activation "
                "quantizations, %.0f W4Ax tiles\n",
                gemms_per_step, quantizations_per_step, tiles_per_step);
    std::printf("layer-0 q|k|v W4Ax GEMM (N %lld, K %lld): %.1f us at "
                "M=1, %.1f us at M=%lld\n",
                static_cast<long long>(qkv_weight.rows()),
                static_cast<long long>(qkv_weight.cols()), w4ax_m1_us,
                w4ax_m128_us, static_cast<long long>(kPromptTokens));
    std::printf("layer-0 q|k|v W4Ax column-block dot passes at M=%lld: "
                "%lld (%lld column blocks)\n",
                static_cast<long long>(kPromptTokens),
                static_cast<long long>(dot_passes_m128),
                static_cast<long long>(column_blocks));
    std::printf("layer-0 q|k|v W4Ax weight bytes: %lld (%lld INT4 "
                "values)\n",
                static_cast<long long>(qkv.weightBytes()),
                static_cast<long long>(qkv_weight.numel()));
    std::printf("layer-0 q|k|v FMPQ quantization (K %lld): %.2f us at "
                "M=1, %.1f us at M=%lld\n",
                static_cast<long long>(qkv_weight.cols()), quantize_m1_us,
                quantize_m128_us, static_cast<long long>(kPromptTokens));
    std::printf("store attention: %.1f us at 256 context, %.1f us at "
                "%lld; one K+V append: %.2f us\n",
                attention_us[0], attention_us[1],
                static_cast<long long>(kMaxContext), append_us);
    std::printf("\nper-layer host split, 64 steps ending at %lld "
                "context (us/step):\n",
                static_cast<long long>(kMaxContext));
    printStageSplit(stage_us);
    std::printf("\nper-layer host split of one %lld-token prefill (us):\n",
                static_cast<long long>(kPromptTokens));
    printStageSplit(prefill_stage_us);
    report.addMetric("prefill_ms", prefill_ms, "ms", false, false);
    report.addMetric("kv_values_quantized_per_append_ctx2048",
                     values_per_append, "values", true, false);
    report.addMetric("kv_rows_widened_per_step_ctx2048",
                     static_cast<double>(last_step_rows_widened), "rows",
                     true, false);
    report.addMetric("kv_rows_widened_per_prefill",
                     static_cast<double>(prefill_rows_widened), "rows", true,
                     false);
    report.addMetric("kv_store_bytes_per_token", bytes_per_token, "B",
                     true, false);
    report.addMetric("w4ax_runs_per_step", gemms_per_step, "runs", true,
                     false);
    report.addMetric("act_quantizations_per_step", quantizations_per_step,
                     "calls", true, false);
    report.addMetric("w4ax_tiles_per_step", tiles_per_step, "tiles", true,
                     false);
    report.addMetric("w4ax_dot_passes_m128",
                     static_cast<double>(dot_passes_m128), "passes", true,
                     false);
    report.addMetric("w4ax_weight_bytes",
                     static_cast<double>(qkv.weightBytes()), "B", true,
                     false);
    report.addMetric("w4ax_m1_us", w4ax_m1_us, "us", false, false);
    report.addMetric("w4ax_m128_us", w4ax_m128_us, "us", false, false);
    report.addMetric("act_quantize_m1_us", quantize_m1_us, "us", false,
                     false);
    report.addMetric("act_quantize_m128_us", quantize_m128_us, "us", false,
                     false);
    report.addMetric("store_attention_us_ctx256", attention_us[0], "us",
                     false, false);
    report.addMetric("store_attention_us_ctx2048", attention_us[1], "us",
                     false, false);
    report.addMetric("kv_append_us", append_us, "us", false, false);
    for (size_t i = 0; i < kNumStages; ++i) {
        report.addMetric(std::string("host_us_") + kStages[i],
                         stage_us[i], "us", false, false);
        report.addMetric(std::string("prefill_host_us_") + kStages[i],
                         prefill_stage_us[i], "us", false, false);
    }
    report.writeIfRequested(argc, argv);

    if (failures > 0) {
        std::fprintf(stderr, "\n%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("\nAll checks passed.\n");
    return 0;
}
