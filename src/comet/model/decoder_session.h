/**
 * @file
 * The former name of the float reference decoder. The FP16 reference
 * (float weights, FP16 cache) and float weights with a KV4 cache are
 * QuantizedDecoder's model-only constructor; this alias stays because
 * the repository benchmark (perfbench/perfbench.cc) includes this
 * header and constructs DecoderSession(model).
 */
#pragma once

#include "comet/model/quantized_decoder.h"

namespace comet {

/** The float reference decoder under its former name. */
using DecoderSession = QuantizedDecoder;

} // namespace comet
