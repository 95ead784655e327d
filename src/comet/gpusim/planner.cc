#include "comet/gpusim/planner.h"

#include "comet/common/table.h"
#include "comet/model/layer_shapes.h"
#include "comet/obs/trace_session.h"
#include "comet/tp/interconnect.h"
#include "comet/tp/shard.h"

namespace comet {

CompilePlanner::CompilePlanner() : model_(GpuSpec::a100Sxm480G()) {}

ModelPlan
CompilePlanner::plan(const LlmConfig &model, int64_t batch,
                     double w4a4_fraction, int tensor_parallel) const
{
    COMET_SPAN("gpusim/plan");
    COMET_CHECK(batch > 0);
    COMET_CHECK(w4a4_fraction >= 0.0 && w4a4_fraction <= 1.0);
    const Status tp_ok = tp::validateTpDegree(model, tensor_parallel);
    COMET_CHECK_MSG(tp_ok.isOk(), tp_ok.message().c_str());

    ModelPlan result;
    result.model_name = model.name;
    result.batch = batch;
    result.tensor_parallel = tensor_parallel;

    double naive_total = 0.0;
    for (const LayerGemm &gemm :
         decoderLayerGemms(model, batch, tensor_parallel)) {
        LayerPlan layer;
        layer.name = gemm.name;
        layer.shape = gemm.shape;
        layer.total_tiles = tileCounts(layer.shape).total();
        layer.w4a4_tile_fraction = w4a4_fraction;

        double best = 0.0;
        for (SchedulingStrategy strategy :
             {SchedulingStrategy::kNaiveSync,
              SchedulingStrategy::kBarrierMinimized,
              SchedulingStrategy::kTileRemapping,
              SchedulingStrategy::kTaskStealing}) {
            CometKernelFeatures features;
            features.scheduling = strategy;
            features.w4a4_fraction = w4a4_fraction;
            const KernelCost cost = model_.estimate(
                layer.shape, GemmKernelKind::kCometW4Ax, features);
            if (strategy == SchedulingStrategy::kNaiveSync)
                layer.naive_us = cost.total_us;
            if (best == 0.0 || cost.total_us < best) {
                best = cost.total_us;
                layer.strategy = strategy;
                layer.predicted_us = cost.total_us;
                layer.sm_utilization = cost.sm_utilization;
            }
        }
        naive_total += layer.naive_us;
        result.step_gemm_us += layer.predicted_us;
        result.layers.push_back(std::move(layer));
    }

    result.bottleneck_layer = 0;
    for (size_t i = 1; i < result.layers.size(); ++i) {
        if (result.layers[i].predicted_us >
            result.layers[result.bottleneck_layer].predicted_us) {
            result.bottleneck_layer = i;
        }
    }
    result.speedup_over_naive =
        result.step_gemm_us > 0.0 ? naive_total / result.step_gemm_us
                                  : 1.0;
    if (tensor_parallel > 1)
        result.allreduce_us = tp::layerAllReduceUs(
            model_.spec(), batch, model.hidden_size, tensor_parallel);
    return result;
}

std::string
CompilePlanner::report(const ModelPlan &plan)
{
    Table table({"layer GEMM", "shape (MxNxK)", "tiles",
                 "chosen schedule", "predicted (us)", "SM util",
                 "vs naive"});
    for (size_t i = 0; i < plan.layers.size(); ++i) {
        const LayerPlan &layer = plan.layers[i];
        std::string name = layer.name;
        if (i == plan.bottleneck_layer)
            name += " *";
        table.addRow(
            {name,
             std::to_string(layer.shape.m) + "x" +
                 std::to_string(layer.shape.n) + "x" +
                 std::to_string(layer.shape.k),
             std::to_string(layer.total_tiles),
             schedulingStrategyName(layer.strategy),
             formatDouble(layer.predicted_us, 1),
             formatPercent(layer.sm_utilization),
             formatSpeedup(layer.naive_us / layer.predicted_us)});
    }
    std::string out = "compile plan: " + plan.model_name +
                      ", decode batch " +
                      std::to_string(plan.batch);
    if (plan.tensor_parallel > 1) {
        out += ", TP " + std::to_string(plan.tensor_parallel);
    }
    out += "\n";
    out += table.render();
    if (plan.tensor_parallel > 1) {
        out += "tensor parallel " +
               std::to_string(plan.tensor_parallel) + ": +" +
               formatDouble(plan.allreduce_us, 1) +
               " us/layer all-reduce\n";
    }
    out += "per-layer GEMM time " +
           formatDouble(plan.step_gemm_us, 1) +
           " us; scheduling buys " +
           formatSpeedup(plan.speedup_over_naive) +
           " over naive mapping; * marks the bottleneck layer\n";
    return out;
}

} // namespace comet
