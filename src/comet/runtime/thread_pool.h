/**
 * @file
 * The COMET host runtime: a persistent work-stealing thread pool with
 * deterministic parallel-for.
 *
 * Every parallel hot path in the emulation (W4Ax GEMM tiles, decode
 * attention heads, FMPQ calibration sweeps, engine per-request work)
 * runs through this pool instead of spawning ad-hoc threads. Two
 * properties are contractual:
 *
 *  1. **Determinism.** A parallel region is split into chunks whose
 *     boundaries depend only on (begin, end, grain) — never on the
 *     thread count or on runtime scheduling. Chunk bodies write to
 *     disjoint outputs or to chunk-indexed slots, and reductions
 *     combine partials in ascending chunk order. Results are therefore
 *     bit-identical for any pool size, including 1.
 *
 *  2. **Work stealing.** Chunks are statically pre-assigned to
 *     executor slots in contiguous blocks (slot s owns chunks
 *     [s*C/S, (s+1)*C/S)); an executor that drains its own block
 *     claims chunks from other slots' blocks through the same atomic
 *     cursors. Stealing only moves *where* a chunk runs, never what
 *     it computes, so property 1 is unaffected by load imbalance.
 *
 * The pool is persistent: worker threads are created once and sleep
 * between regions, so per-call overhead is a wake + two atomic ops per
 * chunk rather than thread creation. The calling thread always
 * participates as executor slot 0, which keeps the 1-chunk and
 * pool-size-1 cases free of any cross-thread hand-off.
 *
 * Configuration: the global pool sizes itself from the
 * `COMET_THREADS` environment variable (falling back to
 * std::thread::hardware_concurrency), and can be resized at a safe
 * point with ThreadPool::configure(RuntimeConfig) /
 * setGlobalThreads().
 */
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "comet/common/status.h"

namespace comet {

/** Host-runtime configuration (the programmatic twin of the
 * `COMET_THREADS` environment knob). */
struct RuntimeConfig {
    /** Worker threads in the global pool, including the caller slot.
     * 0 = resolve from `COMET_THREADS`, then hardware concurrency. */
    int threads = 0;
};

/** Multiply-adds below which a kernel runs on the caller instead of
 * fanning out: under it the pool dispatch costs more than it saves.
 * The W4Ax GEMM, the fused decode attention and the LM head each
 * compare their own work against it, and the FMPQ activation
 * quantizer its tokens x channels. */
constexpr int64_t kMinPoolMacs = int64_t{1} << 20;

/** Number of grain-sized chunks a [begin, end) range splits into.
 * This — not the thread count — is the unit of scheduling, so it also
 * defines the partial-result slots of deterministic reductions. */
int64_t numChunks(int64_t begin, int64_t end, int64_t grain);

/**
 * A persistent work-stealing thread pool.
 *
 * A pool of size T runs regions on T executor slots: the calling
 * thread (slot 0) plus T-1 resident workers. Pools are independent;
 * most code uses the process-wide global() instance.
 */
class ThreadPool
{
  public:
    /**
     * Creates a pool with @p threads executor slots (>= 1). A size-1
     * pool spawns no workers and runs every region inline.
     */
    explicit ThreadPool(int threads);

    /** Joins and destroys the resident workers. */
    ~ThreadPool();

    /** Pools own threads and cannot be copied. @{ */
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;
    /** @} */

    /** Executor slots (resident workers + the caller slot). */
    int threadCount() const { return threads_; }

    /**
     * Runs @p fn(chunk_begin, chunk_end) for every grain-sized chunk
     * of [begin, end). Blocks until all chunks completed. Chunk
     * bodies run concurrently and must only write disjoint data.
     *
     * @param max_parallelism  cap on executor slots used for this
     *        region (0 = all). Affects scheduling only, never
     *        results.
     *
     * Calls from inside a pool task run the region inline (same
     * chunking) rather than deadlocking on the pool.
     */
    void parallelFor(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)> &fn,
                     int max_parallelism = 0);

    /**
     * parallelFor variant passing the deterministic chunk index
     * (0-based, ascending with chunk_begin) — the index callers use
     * to address per-chunk reduction slots.
     */
    void parallelForChunks(
        int64_t begin, int64_t end, int64_t grain,
        const std::function<void(int64_t, int64_t, int64_t)> &fn,
        int max_parallelism = 0);

    /**
     * parallelFor variant passing the executor slot index
     * (< threadCount()). Slots address per-worker accumulators; note
     * that with stealing the *assignment* of chunks to slots is not
     * deterministic, so per-slot partials are only safe for
     * order-insensitive (e.g. integer) reductions. Use
     * parallelReduceOrdered for floating-point reductions.
     */
    void parallelForSlots(
        int64_t begin, int64_t end, int64_t grain,
        const std::function<void(int64_t, int64_t, int)> &fn,
        int max_parallelism = 0);

    /**
     * Deterministic parallel reduction: computes
     * @p map(chunk_begin, chunk_end) for every chunk, then folds the
     * partials left-to-right in ascending chunk order:
     * combine(...combine(identity, p0)..., pC-1). The fold order is
     * fixed by the chunking alone, so the result is bit-identical for
     * any thread count.
     */
    template <typename T, typename MapFn, typename CombineFn>
    T
    parallelReduceOrdered(int64_t begin, int64_t end, int64_t grain,
                          T identity, const MapFn &map,
                          const CombineFn &combine)
    {
        const int64_t chunks = numChunks(begin, end, grain);
        if (chunks <= 0)
            return identity;
        std::vector<T> partials(static_cast<size_t>(chunks), identity);
        parallelForChunks(begin, end, grain,
                          [&](int64_t b, int64_t e, int64_t chunk) {
                              partials[static_cast<size_t>(chunk)] =
                                  map(b, e);
                          });
        T result = std::move(identity);
        for (int64_t c = 0; c < chunks; ++c)
            result = combine(std::move(result),
                             partials[static_cast<size_t>(c)]);
        return result;
    }

    /**
     * The process-wide pool. Created on first use with
     * resolveThreads(0) slots; resized by configure() /
     * setGlobalThreads().
     */
    static ThreadPool &global();

    /** Applies @p config to the global pool (rebuilds it if the size
     * changes). Must not race with in-flight parallel regions. */
    static void configure(const RuntimeConfig &config);

    /** Shorthand for configure({threads}). */
    static void setGlobalThreads(int threads);

    /**
     * Resolves a requested size: @p requested if > 0, else the
     * `COMET_THREADS` environment variable if set to a positive
     * integer, else std::thread::hardware_concurrency() (at least 1).
     */
    static int resolveThreads(int requested);

  private:
    struct Impl;
    void run(int64_t begin, int64_t end, int64_t grain,
             int max_parallelism,
             const std::function<void(int64_t, int64_t, int64_t, int)>
                 &fn);

    int threads_;
    Impl *impl_;
};

/** parallelFor on the global pool. */
void parallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)> &fn,
                 int max_parallelism = 0);

/** parallelForChunks on the global pool. */
void parallelForChunks(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t, int64_t)> &fn,
    int max_parallelism = 0);

/** parallelForSlots on the global pool. */
void parallelForSlots(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t, int)> &fn,
    int max_parallelism = 0);

/** parallelReduceOrdered on the global pool. */
template <typename T, typename MapFn, typename CombineFn>
T
parallelReduceOrdered(int64_t begin, int64_t end, int64_t grain,
                      T identity, const MapFn &map,
                      const CombineFn &combine)
{
    return ThreadPool::global().parallelReduceOrdered(
        begin, end, grain, std::move(identity), map, combine);
}

} // namespace comet
