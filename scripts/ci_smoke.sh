#!/usr/bin/env bash
# CI smoke pass: one fast run per bench family, exercising the real
# binaries end to end without the full figure-reproduction runtimes.
#
#   - bench_kernel_micro: google-benchmark timing of the packed-data
#     kernel paths, filtered to one benchmark per family with a tiny
#     min_time so the whole binary finishes in seconds.
#   - bench_fig10_throughput --smoke: the serving engine stack at
#     reduced shapes (2 models, 128/64 tokens).
#   - bench_runtime_scaling --smoke: the thread-pool scaling table;
#     its exit status also asserts bit-identity across pool sizes.
#   - bench_server_loadgen --smoke: the online serving front-end
#     under open-loop Poisson load from concurrent client threads;
#     its exit status asserts report determinism and that overload
#     rejects (with matching server.rejected accounting), never
#     aborts.
#   - bench_chaos_soak --smoke: the fault-injected serving soak at
#     reduced scale (2 seeds x 500 steps); its exit status asserts
#     every serving invariant under injected faults plus byte-equal
#     event logs across COMET_THREADS=1 and 8. Run a second time in
#     --prefix mode: shared-prompt scripts with the prefix cache on
#     and the graft failpoint armed.
#   - bench_prefix_cache --smoke: prefix-cache hit rate and latency
#     win on a shared-prompt workload; its exit status asserts the
#     cache-on/cache-off token streams are identical and the cached
#     run is deterministic.
#   - bench_slo_attainment --smoke: chunked prefill vs monolithic on
#     the mixed long-context + chat workload; its exit status asserts
#     byte-identical token streams between the modes, chunked-run
#     determinism, and the chat tenants' TPOT-tail win.
#   - bench_cluster_router --smoke: the multi-replica router on the
#     same workload, 1 vs 4 replicas under every routing policy; its
#     exit status asserts 1-replica/bare-server token identity,
#     scale-out stream preservation, cluster-run determinism, and
#     the load-spreading policies' chat TTFT tail win. A third
#     bench_chaos_soak run in --cluster mode routes the fault scripts
#     through a 4-replica cluster with cluster.route/cluster.drain
#     armed.
#   - bench_tp_scaling --smoke: decode-step scaling at TP=1/2/4 on
#     the 70B cost model against the all-reduce curve; the binary
#     first re-proves the sharded GEMM/attention operators bitwise
#     against TP=1 and aborts on any divergence. A fourth
#     bench_chaos_soak run in --tp mode replays the fault scripts on
#     a TP=2 engine with the tp.allreduce failpoint armed.
#   - bench_real_decode: the real W4A4KV4 decoder prefilled and
#     decoded to 2048 context on the host; its exit status asserts
#     finite logits, that each KV store append re-quantizes at most
#     one token group's values, and that a step widens each K/V row
#     once per kv head.
#   - examples/generate: the incremental decoder with float weights
#     and an FP16 vs INT4 KV cache, generating from one prompt; it
#     prints the measured KV footprints of both caches.
#   - bench_tab1_perplexity and bench_tab2_zeroshot: the accuracy
#     harness (teacher sampling, calibration and every fake-quant
#     scheme's perplexity and zero-shot accuracy, all on the float
#     path of QuantizedDecoder). Their stdout must equal
#     bench/baselines/tab1_perplexity.stdout and
#     tab2_zeroshot.stdout byte for byte: the tables are
#     deterministic, so any diff is a numerics change.
#
# Usage: scripts/ci_smoke.sh [build-dir]   (default: build)
set -euo pipefail

build_dir="${1:-build}"
bench_dir="${build_dir}/bench"

if [[ ! -d "${bench_dir}" ]]; then
    echo "error: bench dir '${bench_dir}' not found (build first)" >&2
    exit 1
fi

run() {
    echo "==> $*"
    "$@"
    echo
}

json_dir=$(mktemp -d)
trap 'rm -rf "${json_dir}"' EXIT

run "${bench_dir}/bench_kernel_micro" \
    --benchmark_filter='BM_(FastConversion|InterleaveWeights/128|W4AxGemmEmulation/8|ParallelForDispatch/4)$' \
    --benchmark_min_time=0.05s \
    --json="${json_dir}/kernel_micro.json"

run "${bench_dir}/bench_fig10_throughput" --smoke \
    --json="${json_dir}/fig10_throughput.json"

run "${bench_dir}/bench_prefix_cache" --smoke \
    --json="${json_dir}/prefix_cache.json"

run "${bench_dir}/bench_slo_attainment" --smoke \
    --json="${json_dir}/slo_attainment.json"

run "${bench_dir}/bench_cluster_router" --smoke \
    --json="${json_dir}/cluster_router.json"

run "${bench_dir}/bench_tp_scaling" --smoke \
    --json="${json_dir}/tp_scaling.json"

run "${bench_dir}/bench_real_decode" \
    --json="${json_dir}/real_decode.json"

# Emitter smoke: the --json reports written above must parse under the
# perf-gate schema (a self-diff exercises load + gated-metric checks
# without depending on this machine's timings matching the baselines).
run python3 "$(dirname "$0")/check_bench.py" \
    "${json_dir}/kernel_micro.json" "${json_dir}/kernel_micro.json" \
    "${json_dir}/fig10_throughput.json" \
    "${json_dir}/fig10_throughput.json" \
    "${json_dir}/prefix_cache.json" \
    "${json_dir}/prefix_cache.json" \
    "${json_dir}/slo_attainment.json" \
    "${json_dir}/slo_attainment.json" \
    "${json_dir}/cluster_router.json" \
    "${json_dir}/cluster_router.json" \
    "${json_dir}/tp_scaling.json" \
    "${json_dir}/tp_scaling.json" \
    "${json_dir}/real_decode.json" \
    "${json_dir}/real_decode.json"

run "${build_dir}/examples/generate"

baselines_dir="$(cd "$(dirname "$0")/.." && pwd)/bench/baselines"
for table in tab1_perplexity tab2_zeroshot; do
    echo "==> ${bench_dir}/bench_${table} | diff against ${table}.stdout"
    "${bench_dir}/bench_${table}" |
        diff -u "${baselines_dir}/${table}.stdout" -
    echo
done

run "${bench_dir}/bench_runtime_scaling" --smoke

run "${bench_dir}/bench_server_loadgen" --smoke

run "${bench_dir}/bench_chaos_soak" --smoke

run "${bench_dir}/bench_chaos_soak" --smoke --prefix

run "${bench_dir}/bench_chaos_soak" --smoke --cluster

run "${bench_dir}/bench_chaos_soak" --smoke --tp

echo "ci_smoke: all bench families passed"
