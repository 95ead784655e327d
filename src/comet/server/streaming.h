/**
 * @file
 * Per-request token streaming for the online server.
 *
 * Every submitted request gets a TokenStream: the server loop pushes
 * token and terminal events into it (producer side), and the client
 * consumes them either by registering a callback at submission or by
 * pulling with next() from any thread (pull-iterator side). Events
 * carry the server's *virtual* timestamps — the deterministic clock
 * the serving loop advances by modeled step latencies — so latency
 * metrics computed from a stream are bit-stable for a fixed workload
 * seed regardless of host scheduling.
 *
 * A stream terminates exactly once, with kFinished (all tokens
 * generated), kRejected (admission refused it — the explicit
 * backpressure contract: overload rejects with a reason, it never
 * aborts), or kCancelled (client cancel, or server shutdown with
 * cancel-in-flight).
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>

namespace comet {
namespace server {

/** Why admission refused a request (StreamEventKind::kRejected). */
enum class RejectReason {
    kNone = 0,        ///< not rejected
    kUnknownTenant,   ///< submitted under an unconfigured tenant name
    kQueueFull,       ///< bounded tenant queue at capacity
    kRateLimited,     ///< tenant token bucket empty at arrival
    kTooLarge,        ///< prompt + max_output can never fit the pool
    kDeadlineExpired, ///< admission deadline passed while queued
    kShuttingDown,    ///< server draining or stopped
};

/** Returns "none" / "unknown-tenant" / "queue-full" / "rate-limited"
 * / "too-large" / "deadline-expired" / "shutting-down". */
const char *rejectReasonName(RejectReason reason);

/** What a StreamEvent announces. */
enum class StreamEventKind {
    kToken = 0, ///< one generated token
    kFinished,  ///< generation complete (terminal)
    kRejected,  ///< admission refused the request (terminal)
    kCancelled, ///< cancelled by client or shutdown (terminal)
};

/** Returns "token" / "finished" / "rejected" / "cancelled". */
const char *streamEventKindName(StreamEventKind kind);

/** True for the three kinds that end a stream. */
inline bool
isTerminal(StreamEventKind kind)
{
    return kind != StreamEventKind::kToken;
}

/** One unit of streaming progress on a request. */
struct StreamEvent {
    StreamEventKind kind = StreamEventKind::kToken; ///< what happened
    /** 0-based index of the token (kToken only). */
    int64_t token_index = 0;
    /** Virtual server time of the event, microseconds. */
    double virtual_us = 0.0;
    /** Why admission refused the request (kRejected only). */
    RejectReason reject_reason = RejectReason::kNone;
};

/**
 * The per-request event channel between the server loop and a client.
 *
 * Thread-safe single-producer (the server loop) / any-consumer. Two
 * delivery modes, chosen at creation:
 *
 *  - **Callback**: the callback runs inline on the server loop thread
 *    for every event; the pull API then always reports end-of-stream.
 *    Callbacks must be fast and must not call back into the server.
 *  - **Pull**: events buffer internally; next() blocks until the next
 *    event (or returns false once the terminal event was consumed).
 *
 * In both modes the terminal state (done / terminalKind / tokenCount)
 * is queryable at any time.
 */
class TokenStream
{
  public:
    /** Event-delivery callback (runs on the server loop thread). */
    using Callback = std::function<void(const StreamEvent &)>;

    /** Creates a pull-mode stream (no callback). */
    TokenStream() = default;

    /** Creates a callback-mode stream when @p callback is non-empty,
     * a pull-mode stream otherwise. */
    explicit TokenStream(Callback callback);

    /**
     * Pull-iterator: blocks until an event is available and writes it
     * to @p event, returning true; returns false once the terminal
     * event has been consumed (end of stream) — and immediately, in
     * callback mode, where nothing is ever buffered.
     */
    bool next(StreamEvent *event);

    /** Non-blocking next(): returns false when no event is buffered
     * right now (or the stream ended). */
    bool tryNext(StreamEvent *event);

    /**
     * Asks the server to cancel this request. Advisory and
     * asynchronous: the serving loop observes the flag at its next
     * iteration and emits kCancelled; a request that already
     * finished stays finished.
     */
    void requestCancel();

    /** True once requestCancel() was called. */
    bool
    cancelRequested() const
    {
        return cancel_requested_.load(std::memory_order_acquire);
    }

    /** True once the terminal event was delivered (pushed — not
     * necessarily consumed by the pull side yet). */
    bool done() const;

    /** The terminal event kind. @pre done(). */
    StreamEventKind terminalKind() const;

    /** The reject reason of the terminal event (kNone unless the
     * stream ended kRejected). @pre done(). */
    RejectReason terminalReason() const;

    /** Tokens delivered so far. */
    int64_t
    tokenCount() const
    {
        return tokens_.load(std::memory_order_acquire);
    }

    /**
     * Producer side: delivers one event (server loop thread only).
     * Token events bump tokenCount(); the terminal event latches the
     * terminal state. In callback mode the callback runs inline;
     * in pull mode the event is buffered and a waiting next() wakes.
     * @pre the stream has not terminated yet.
     */
    void deliver(const StreamEvent &event);

    /** Delivers the terminal event @p kind stamped @p virtual_us,
     * with @p reason when it is kRejected (see deliver()). */
    void finish(StreamEventKind kind, double virtual_us,
                RejectReason reason = RejectReason::kNone);

    /**
     * Registers @p poke to run (under no stream lock) whenever the
     * client requests cancellation — the server installs its
     * wake-the-loop hook here so a cancel interrupts an idle loop.
     */
    void setCancelPoke(std::function<void()> poke);

  private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<StreamEvent> queue_;
    Callback callback_;
    std::function<void()> cancel_poke_;
    std::atomic<int64_t> tokens_{0};
    std::atomic<bool> cancel_requested_{false};
    bool done_ = false;
    bool consumed_terminal_ = false;
    StreamEventKind terminal_kind_ = StreamEventKind::kFinished;
    RejectReason terminal_reason_ = RejectReason::kNone;
};

/** Shared handle to a stream (held by the client and the server). */
using TokenStreamPtr = std::shared_ptr<TokenStream>;

} // namespace server
} // namespace comet
