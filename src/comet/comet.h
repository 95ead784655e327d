/**
 * @file
 * Umbrella header: includes the whole public COMET API.
 *
 * Fine-grained includes are preferred inside the library itself;
 * downstream users who just want everything can include this one
 * header (mirroring the single-header convenience of the paper's
 * shipped C++ API).
 */
#pragma once

#include "comet/common/logging.h"
#include "comet/common/rng.h"
#include "comet/common/stats.h"
#include "comet/common/status.h"
#include "comet/common/table.h"

#include "comet/obs/metrics.h"
#include "comet/obs/obs.h"
#include "comet/obs/trace_session.h"

#include "comet/runtime/thread_pool.h"

#include "comet/tensor/packed.h"
#include "comet/tensor/tensor.h"

#include "comet/quant/fmpq.h"
#include "comet/quant/kv_quant.h"
#include "comet/quant/outlier.h"
#include "comet/quant/permutation.h"
#include "comet/quant/qoq.h"
#include "comet/quant/quantizer.h"
#include "comet/quant/rotation.h"
#include "comet/quant/smooth_quant.h"
#include "comet/quant/weight_quant.h"

#include "comet/kernel/convert.h"
#include "comet/kernel/gemm_ref.h"
#include "comet/kernel/gemm_w4ax.h"
#include "comet/kernel/int4_pack.h"
#include "comet/kernel/interleave.h"
#include "comet/kernel/mma.h"
#include "comet/kernel/pipeline.h"

#include "comet/attention/decode_attention.h"

#include "comet/io/serialize.h"

#include "comet/gpusim/cost_model.h"
#include "comet/gpusim/gpu_spec.h"
#include "comet/gpusim/planner.h"
#include "comet/gpusim/roofline.h"
#include "comet/gpusim/sm_scheduler.h"

#include "comet/model/decoder_session.h"
#include "comet/model/layer_shapes.h"
#include "comet/model/llm_config.h"
#include "comet/model/perplexity.h"
#include "comet/model/quantized_decoder.h"
#include "comet/model/synthetic.h"
#include "comet/model/tiny_transformer.h"
#include "comet/model/zeroshot.h"

#include "comet/kvcache/block_allocator.h"
#include "comet/kvcache/kv_cache.h"

#include "comet/prefix/block_key.h"
#include "comet/prefix/prefix_cache.h"
#include "comet/prefix/radix_index.h"

#include "comet/serve/batch_scheduler.h"
#include "comet/serve/engine.h"
#include "comet/serve/request.h"

#include "comet/server/admission.h"
#include "comet/server/loadgen.h"
#include "comet/server/server.h"
#include "comet/server/streaming.h"

#include "comet/cluster/cluster_loadgen.h"
#include "comet/cluster/placement.h"
#include "comet/cluster/router.h"

#include "comet/tp/interconnect.h"
#include "comet/tp/shard.h"

#include "comet/chaos/failpoint.h"
#include "comet/chaos/harness.h"
#include "comet/chaos/invariants.h"
#include "comet/chaos/script.h"
