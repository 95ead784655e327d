/**
 * @file
 * Compile-time kernel planning (paper Sections 4.4 and 5).
 *
 * The paper applies its fine-grained SM scheduling "during LLM
 * compilation stages": before serving, every linear layer's
 * mixed-precision tile grid is examined and a tile-to-SM mapping is
 * fixed. This module is that compilation pass: given a model, a batch
 * size and the deployed W4A4 fraction, it enumerates each decoder
 * GEMM, evaluates all four scheduling strategies on its tile grid,
 * picks the fastest, and emits a per-layer plan plus a human-readable
 * report (predicted step latency, utilization, bottleneck layer).
 */
#pragma once

#include <string>
#include <vector>

#include "comet/gpusim/cost_model.h"
#include "comet/model/llm_config.h"

namespace comet {

/** The compiled plan of one linear layer's GEMM. */
struct LayerPlan {
    std::string name;                 ///< e.g. "gate_up_proj"
    GemmShape shape;
    int64_t total_tiles = 0;
    double w4a4_tile_fraction = 0.0;
    SchedulingStrategy strategy =
        SchedulingStrategy::kTaskStealing; ///< chosen mapping
    double predicted_us = 0.0;             ///< with the chosen strategy
    double naive_us = 0.0;                 ///< naive-sync reference
    double sm_utilization = 0.0;
};

/** The compiled plan of a whole decoder step. */
struct ModelPlan {
    std::string model_name;
    int64_t batch = 0;
    /** Tensor-parallel degree the GEMM extents were sharded at. */
    int tensor_parallel = 1;
    std::vector<LayerPlan> layers;    ///< one per distinct layer GEMM
    double step_gemm_us = 0.0;        ///< per decode step, all layers
    /** Per-layer all-reduce cost the TP group pays on top of
     * step_gemm_us (two collectives per decoder layer, priced by
     * tp::InterconnectModel at the cheaper ring/direct algorithm;
     * 0 at degree 1). */
    double allreduce_us = 0.0;
    size_t bottleneck_layer = 0;      ///< index of the costliest GEMM
    double speedup_over_naive = 1.0;  ///< scheduling gain of the plan
};

/**
 * The compilation pass, on the A100-80G the paper evaluates.
 */
class CompilePlanner
{
  public:
    CompilePlanner();

    /**
     * Plans every decoder-layer GEMM of @p model at decode batch
     * @p batch. @p w4a4_fraction is the deployed FMPQ statistic
     * (Section 6.2; defaults to kDeployedW4A4Fraction).
     * @p tensor_parallel shards each GEMM Megatron-style before
     * planning (column-parallel first projections, row-parallel
     * second; must pass tp::validateTpDegree for the model) and adds
     * the per-layer all-reduce cost to the plan.
     */
    ModelPlan plan(const LlmConfig &model, int64_t batch,
                   double w4a4_fraction = kDeployedW4A4Fraction,
                   int tensor_parallel = 1) const;

    /** Renders a plan as an aligned text report. */
    static std::string report(const ModelPlan &plan);

  private:
    GemmCostModel model_;
};

} // namespace comet
