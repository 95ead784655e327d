#include "comet/model/zeroshot.h"

#include <algorithm>
#include <numeric>

#include "comet/model/quantized_decoder.h"

namespace comet {

ZeroshotTask
buildZeroshotTask(const TinyTransformer &teacher,
                  const ZeroshotTaskConfig &config)
{
    COMET_CHECK(config.num_candidates >= 2);
    COMET_CHECK(config.context_length >= 2);
    Rng rng(config.seed);
    ZeroshotTask task;
    task.name = config.name;
    task.examples.reserve(static_cast<size_t>(config.num_examples));

    const int64_t vocab = teacher.config().vocab_size;
    const QuantizedDecoder decoder(teacher);
    for (int i = 0; i < config.num_examples; ++i) {
        // The context is sampled from a random BOS token; the logits
        // after its last token give the label's distribution.
        ZeroshotExample example;
        example.context = {static_cast<int32_t>(
            rng.uniformInt(static_cast<uint64_t>(vocab)))};
        const std::vector<float> logits = QuantizedDecoder(decoder).generate(
            example.context, config.context_length, rng);
        const std::vector<double> probs = softmaxDouble(logits.data(), vocab);

        const int32_t label_token = sampleToken(probs, rng);
        example.candidates.push_back(label_token);

        if (config.hard_distractors) {
            // Distractors = the teacher's highest-probability tokens
            // other than the label (near-misses; ARC-c style).
            std::vector<int32_t> order(static_cast<size_t>(vocab));
            std::iota(order.begin(), order.end(), 0);
            std::sort(order.begin(), order.end(),
                      [&](int32_t a, int32_t b) {
                          return probs[static_cast<size_t>(a)] >
                                 probs[static_cast<size_t>(b)];
                      });
            for (int32_t token : order) {
                if (static_cast<int>(example.candidates.size()) >=
                    config.num_candidates)
                    break;
                if (token != label_token)
                    example.candidates.push_back(token);
            }
        } else {
            while (static_cast<int>(example.candidates.size()) <
                   config.num_candidates) {
                const auto token = static_cast<int32_t>(
                    rng.uniformInt(static_cast<uint64_t>(vocab)));
                if (token != label_token &&
                    std::find(example.candidates.begin(),
                              example.candidates.end(),
                              token) == example.candidates.end()) {
                    example.candidates.push_back(token);
                }
            }
        }
        // Shuffle so the label is not always candidate 0.
        std::vector<size_t> perm(example.candidates.size());
        std::iota(perm.begin(), perm.end(), 0);
        rng.shuffle(perm);
        std::vector<int32_t> shuffled(example.candidates.size());
        for (size_t j = 0; j < perm.size(); ++j)
            shuffled[j] = example.candidates[perm[j]];
        example.label = static_cast<int>(
            std::find(shuffled.begin(), shuffled.end(), label_token) -
            shuffled.begin());
        example.candidates = std::move(shuffled);
        task.examples.push_back(std::move(example));
    }
    return task;
}

std::vector<ZeroshotTask>
buildZeroshotSuite(const TinyTransformer &teacher, uint64_t seed)
{
    std::vector<ZeroshotTaskConfig> configs(5);
    configs[0] = {"PIQA-syn", 60, 20, 2, false, seed + 1};
    configs[1] = {"ARC-e-syn", 60, 16, 4, false, seed + 2};
    configs[2] = {"ARC-c-syn", 60, 16, 4, true, seed + 3};
    configs[3] = {"HellaSwag-syn", 60, 28, 4, false, seed + 4};
    configs[4] = {"Winogrande-syn", 60, 24, 2, true, seed + 5};

    std::vector<ZeroshotTask> suite;
    suite.reserve(configs.size());
    for (const auto &config : configs)
        suite.push_back(buildZeroshotTask(teacher, config));
    return suite;
}

double
evaluateZeroshotAccuracy(const TinyTransformer &model,
                         QuantSimulator *sim, const ZeroshotTask &task)
{
    COMET_CHECK(!task.examples.empty());
    const QuantizedDecoder decoder(model);
    const int64_t vocab = model.config().vocab_size;
    int correct = 0;
    for (const ZeroshotExample &example : task.examples) {
        const std::vector<float> logits =
            QuantizedDecoder(decoder).prefill(example.context, sim);
        const std::vector<double> probs = softmaxDouble(logits.data(), vocab);
        int best = 0;
        for (size_t c = 1; c < example.candidates.size(); ++c) {
            if (probs[static_cast<size_t>(example.candidates[c])] >
                probs[static_cast<size_t>(
                    example.candidates[static_cast<size_t>(best)])]) {
                best = static_cast<int>(c);
            }
        }
        if (best == example.label)
            ++correct;
    }
    return static_cast<double>(correct) /
           static_cast<double>(task.examples.size());
}

} // namespace comet
