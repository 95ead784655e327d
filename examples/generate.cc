/**
 * @file
 * Example: token generation through the incremental decoder with
 * float weights and an FP16 or an INT4 KV cache, on the tiny model.
 *
 * Compares the FP16-cache decoder against the INT4-cache one on the
 * same prompt: generated continuations, measured KV cache footprints,
 * and the logit perturbation the 4-bit cache introduces.
 *
 * Build & run:  ./build/examples/generate
 */
#include <cmath>
#include <cstdio>

#include "comet/model/quantized_decoder.h"

using namespace comet;

int
main()
{
    TinyTransformerConfig config;
    config.vocab_size = 96;
    config.hidden_size = 64;
    config.num_heads = 4;
    config.num_kv_heads = 2;
    config.num_layers = 2;
    config.intermediate_size = 128;
    config.outlier_fraction = 0.05;
    config.outlier_scale = 15.0;
    config.seed = 99;
    const auto model = TinyTransformer::random(config);
    const std::vector<int32_t> prompt{5, 23, 41, 7, 66, 12};

    QuantizedDecoder fp16(model);
    QuantizedDecoder kv4(model, KvQuantConfig{4, 32, true});

    const std::vector<float> fp16_logits = fp16.prefill(prompt);
    const std::vector<float> kv4_logits = kv4.prefill(prompt);
    double max_diff = 0.0;
    for (size_t v = 0; v < fp16_logits.size(); ++v) {
        max_diff = std::max(
            max_diff, std::fabs(static_cast<double>(fp16_logits[v]) -
                                kv4_logits[v]));
    }
    std::printf("prompt of %zu tokens prefilled through both "
                "decoders\n",
                prompt.size());
    std::printf("next-token logit perturbation from the INT4 cache: "
                "max |delta| = %.4f\n\n",
                max_diff);

    Rng rng_a(7), rng_b(7);
    QuantizedDecoder gen_fp(model);
    QuantizedDecoder gen_kv4(model, KvQuantConfig{4, 32, true});
    std::vector<int32_t> seq_fp = prompt, seq_kv4 = prompt;
    const auto length = static_cast<int64_t>(prompt.size()) + 12;
    gen_fp.generate(seq_fp, length, rng_a);
    gen_kv4.generate(seq_kv4, length, rng_b);

    auto print_seq = [](const char *label,
                        const std::vector<int32_t> &seq) {
        std::printf("%-12s", label);
        for (int32_t token : seq)
            std::printf(" %2d", token);
        std::printf("\n");
    };
    print_seq("FP16 cache:", seq_fp);
    print_seq("INT4 cache:", seq_kv4);

    // INT4 values take a quarter of the FP16 bytes, but every token
    // group of 32 also keeps a scale and zero point per channel.
    const int64_t fp_bytes = gen_fp.kvCacheBytes();
    const int64_t kv4_bytes = gen_kv4.kvCacheBytes();
    std::printf("\nKV cache footprints after generation: FP16 %lld B, "
                "INT4 %lld B (%.1fx smaller)\n",
                static_cast<long long>(fp_bytes),
                static_cast<long long>(kv4_bytes),
                static_cast<double>(fp_bytes) /
                    static_cast<double>(kv4_bytes));
    std::printf("(identical sampling seeds; divergence, if any, is "
                "pure KV-quantization effect)\n");
    return 0;
}
