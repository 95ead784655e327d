/**
 * @file
 * Scoped spans and Chrome-trace-event export.
 *
 * A span is a named begin/end interval recorded by the RAII helper
 * `COMET_SPAN("name")`. Recording is gated on one process-global
 * atomic flag: when no trace session is active, a span costs a single
 * relaxed load and a predictable branch, so instrumentation can stay
 * in hot paths permanently. When a session is active, each span is
 * appended to a lock-free thread-local buffer (steady-clock
 * timestamps, small sequential thread id, nesting depth), and the
 * global TraceSession later drains every buffer into Chrome
 * trace-event JSON loadable in Perfetto or `chrome://tracing`.
 *
 * Span names must be string literals (or otherwise outlive the
 * session): buffers store the pointer, not a copy.
 *
 * Kernel inner-loop spans sit behind the compile-time `COMET_KERNEL_SPAN`
 * macro (enabled with -DCOMET_OBS_KERNEL_SPANS=1 via the
 * COMET_KERNEL_SPANS CMake option) so the default build keeps
 * inner-loop code completely span-free.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "comet/common/status.h"

namespace comet {
namespace obs {

namespace detail {
/** The one global recording gate; read inline by every span. Not for
 * direct use — TraceSession::start()/stop() own it. */
extern std::atomic<bool> g_spans_enabled;
} // namespace detail

/** One recorded span interval. */
struct SpanRecord {
    /** Static name (the COMET_SPAN literal). */
    const char *name = nullptr;
    /** Steady-clock nanoseconds since the process trace epoch. @{ */
    int64_t begin_ns = 0;
    int64_t end_ns = 0;
    /** @} */
    /** Sequential id of the recording thread (dense, starts at 0). */
    int tid = 0;
    /** Nesting depth at begin time (0 = top level on its thread). */
    int depth = 0;
};

/**
 * The global span-recording session.
 *
 * start() arms recording, stop() disarms it; drain() snapshots and
 * clears everything recorded so far. Thread buffers are owned by the
 * session and persist across worker-thread lifetimes, so draining
 * after a thread exited is safe. Recording into a buffer is
 * lock-free; only registration of a new thread and draining take the
 * session mutex.
 */
class TraceSession
{
  public:
    /** The process-wide session. */
    static TraceSession &global();

    /** Arms span recording (idempotent). */
    void start();

    /** Disarms span recording (idempotent). Spans already recorded
     * stay buffered until drain(). */
    void stop();

    /** True while recording is armed. The COMET_SPAN fast path: one
     * relaxed atomic load, fully inlineable. */
    static bool
    enabled()
    {
        return detail::g_spans_enabled.load(
            std::memory_order_relaxed);
    }

    /** Snapshots and clears every thread buffer. Call after stop();
     * spans still open on other threads at stop() time are simply
     * absent from the snapshot. Records are sorted by begin time. */
    std::vector<SpanRecord> drain();

    /** Number of spans currently buffered across all threads. */
    int64_t bufferedSpans();

    /** Spans dropped because a thread buffer hit its cap. */
    int64_t droppedSpans() const;

    /** Drains the session into Chrome trace-event JSON (complete "X"
     * events, microsecond timestamps). Always valid JSON, even with
     * zero spans. */
    std::string chromeTraceJson();

    /** chromeTraceJson() written to @p path. Stops the session first
     * so the export is a consistent snapshot. */
    Status exportChromeTrace(const std::string &path);

  private:
    TraceSession() = default;
};

/**
 * RAII span: records one SpanRecord for its scope when the global
 * session is armed, and is a near-free no-op otherwise. Use through
 * COMET_SPAN.
 */
class ScopedSpan
{
  public:
    /** Opens a span named @p name (must be a string literal). */
    explicit ScopedSpan(const char *name)
    {
        if (TraceSession::enabled())
            begin(name);
    }

    /** Closes the span (records it if recording was armed at
     * construction). */
    ~ScopedSpan()
    {
        if (armed_)
            end();
    }

    /** Spans are scope-bound and cannot be copied. @{ */
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    /** @} */

  private:
    void begin(const char *name);
    void end();

    const char *name_ = nullptr;
    int64_t begin_ns_ = 0;
    int depth_ = 0;
    bool armed_ = false;
};

} // namespace obs
} // namespace comet

/** @cond internal — two-step expansion so __LINE__ pastes. */
#define COMET_OBS_CONCAT2(a, b) a##b
#define COMET_OBS_CONCAT(a, b) COMET_OBS_CONCAT2(a, b)
/** @endcond */

/** Records a scoped span named @p name (a string literal) into the
 * global trace session when one is active. */
#define COMET_SPAN(name)                                                   \
    ::comet::obs::ScopedSpan COMET_OBS_CONCAT(comet_obs_span_,             \
                                              __LINE__)(name)

#if defined(COMET_OBS_KERNEL_SPANS) && COMET_OBS_KERNEL_SPANS
/** Kernel inner-loop span: compiled in only with the
 * COMET_KERNEL_SPANS build option so the default build stays
 * zero-overhead inside kernel loops. */
#define COMET_KERNEL_SPAN(name) COMET_SPAN(name)
#else
#define COMET_KERNEL_SPAN(name)                                            \
    do {                                                                   \
    } while (false)
#endif
