/**
 * @file
 * Deterministic interconnect cost model for intra-replica tensor
 * parallelism (DESIGN.md Section 16).
 *
 * The model prices the two collectives Megatron-style sharding needs —
 * all-reduce after every row-parallel GEMM, all-gather after a
 * column-parallel one — over an NVLink-class clique of N identical
 * devices, parameterized by the two GpuSpec link constants (paper
 * Section 2.3 platform: 600 GB/s per-GPU NVLink 3 on the A100):
 *
 *  - `nvlink_bandwidth`: per-GPU link bandwidth, bytes/second;
 *  - `nvlink_latency_us`: fixed per-hop collective round cost.
 *
 * Two algorithms are modeled, mirroring the NCCL choice:
 *
 *  - *ring*: reduce-scatter + all-gather in 2*(N-1) hops, each moving
 *    bytes/N per link. Bandwidth-optimal (2*(N-1)/N of the tensor per
 *    link) but pays 2*(N-1) latency hops.
 *  - *direct*: one full-tensor exchange round — every device pushes
 *    its whole partial to all N-1 peers through its serialized link.
 *    A single latency hop, but (N-1) tensor traversals of bandwidth.
 *
 * For N > 2 the two cost lines cross: direct wins small messages
 * (decode-batch activations), ring wins past
 * ringDirectCrossoverBytes(). For N == 2 both move the same bytes and
 * direct's single hop always wins (the crossover is infinite).
 *
 * Every cost is a pure closed-form function of (bytes, degree) and the
 * two spec constants — no clocks, no randomness — so planner and
 * engine decisions built on it replay bit-identically.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "comet/gpusim/gpu_spec.h"

namespace comet {
namespace tp {

/** Collective algorithm the model picked for a message size. */
enum class CollectiveAlgo {
    kRing = 0, ///< reduce-scatter + all-gather ring
    kDirect,   ///< single-round full-partial exchange
};

/** Returns "ring" / "direct". */
const char *collectiveAlgoName(CollectiveAlgo algo);

/**
 * The link cost model of one TP group. Copies the two link constants
 * out of the spec at construction; all methods are const and
 * deterministic.
 */
class InterconnectModel
{
  public:
    /** Builds the model from @p spec's NVLink constants.
     * @pre spec.nvlink_bandwidth > 0 and spec.nvlink_latency_us >= 0. */
    explicit InterconnectModel(const GpuSpec &spec);

    /** Per-GPU link bandwidth, bytes/second. */
    double linkBandwidth() const { return bandwidth_; }

    /** Fixed per-hop collective latency, microseconds. */
    double hopLatencyUs() const { return latency_us_; }

    /** Ring all-reduce of a @p bytes tensor across @p degree devices,
     * microseconds (0 at degree 1). */
    double ringAllReduceUs(double bytes, int degree) const;

    /**
     * Ring all-reduce with an explicit rank ordering: @p ring_order
     * must be a permutation of 0..N-1 (N = its size). The modeled
     * topology is a fully-connected clique of identical links, so the
     * cost is invariant under any permutation — the symmetry the
     * property tests pin.
     */
    double ringAllReduceUs(double bytes,
                           const std::vector<int> &ring_order) const;

    /** Direct (single-round) all-reduce, microseconds. */
    double directAllReduceUs(double bytes, int degree) const;

    /** Cheapest all-reduce: min(ring, direct). */
    double allReduceUs(double bytes, int degree) const;

    /** The algorithm allReduceUs() costs @p bytes at (ties pick
     * direct — fewer hops at equal cost). */
    CollectiveAlgo chooseAllReduce(double bytes, int degree) const;

    /** Ring all-gather of @p bytes_per_rank per device,
     * microseconds. */
    double ringAllGatherUs(double bytes_per_rank, int degree) const;

    /** Direct all-gather (one exchange round), microseconds. */
    double directAllGatherUs(double bytes_per_rank, int degree) const;

    /** Cheapest all-gather: min(ring, direct). */
    double allGatherUs(double bytes_per_rank, int degree) const;

    /**
     * Smallest message size (bytes) from which ring all-reduce is no
     * costlier than direct at @p degree. Infinite for degree <= 2
     * (equal bandwidth terms, direct's single hop always wins);
     * finite and positive for degree > 2.
     */
    double ringDirectCrossoverBytes(int degree) const;

  private:
    double bandwidth_ = 0.0;
    double latency_us_ = 0.0;
};

/**
 * The all-reduce cost one decoder layer pays under tensor parallelism
 * on @p spec's links, microseconds: two collectives (after the
 * attention output and the MLP down projections), each
 * InterconnectModel::allReduceUs of the [tokens, hidden] FP16
 * activation; 0 at degree 1. The compile planner and the serving
 * engine both price TP steps with it.
 */
double layerAllReduceUs(const GpuSpec &spec, int64_t tokens, int64_t hidden,
                        int degree);

} // namespace tp
} // namespace comet
