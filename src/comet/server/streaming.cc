#include "comet/server/streaming.h"

#include "comet/common/status.h"

namespace comet {
namespace server {

const char *
rejectReasonName(RejectReason reason)
{
    switch (reason) {
      case RejectReason::kNone: return "none";
      case RejectReason::kUnknownTenant: return "unknown-tenant";
      case RejectReason::kQueueFull: return "queue-full";
      case RejectReason::kRateLimited: return "rate-limited";
      case RejectReason::kTooLarge: return "too-large";
      case RejectReason::kDeadlineExpired: return "deadline-expired";
      case RejectReason::kShuttingDown: return "shutting-down";
    }
    return "?";
}

const char *
streamEventKindName(StreamEventKind kind)
{
    switch (kind) {
      case StreamEventKind::kToken: return "token";
      case StreamEventKind::kFinished: return "finished";
      case StreamEventKind::kRejected: return "rejected";
      case StreamEventKind::kCancelled: return "cancelled";
    }
    return "?";
}

TokenStream::TokenStream(Callback callback)
    : callback_(std::move(callback))
{
}

bool
TokenStream::next(StreamEvent *event)
{
    COMET_CHECK(event != nullptr);
    std::unique_lock<std::mutex> lock(mutex_);
    if (callback_)
        return false; // callback mode never buffers
    cv_.wait(lock, [&] {
        return !queue_.empty() || consumed_terminal_;
    });
    if (queue_.empty())
        return false;
    *event = queue_.front();
    queue_.pop_front();
    if (isTerminal(event->kind))
        consumed_terminal_ = true;
    return true;
}

bool
TokenStream::tryNext(StreamEvent *event)
{
    COMET_CHECK(event != nullptr);
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty())
        return false;
    *event = queue_.front();
    queue_.pop_front();
    if (isTerminal(event->kind))
        consumed_terminal_ = true;
    return true;
}

void
TokenStream::requestCancel()
{
    cancel_requested_.store(true, std::memory_order_release);
    std::function<void()> poke;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        poke = cancel_poke_;
    }
    if (poke)
        poke();
}

bool
TokenStream::done() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return done_;
}

StreamEventKind
TokenStream::terminalKind() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    COMET_CHECK_MSG(done_, "stream has not terminated yet");
    return terminal_kind_;
}

RejectReason
TokenStream::terminalReason() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    COMET_CHECK_MSG(done_, "stream has not terminated yet");
    return terminal_reason_;
}

void
TokenStream::deliver(const StreamEvent &event)
{
    Callback callback;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        COMET_CHECK_MSG(!done_,
                        "deliver() after the terminal event");
        if (event.kind == StreamEventKind::kToken) {
            tokens_.fetch_add(1, std::memory_order_acq_rel);
        } else {
            done_ = true;
            terminal_kind_ = event.kind;
            terminal_reason_ = event.reject_reason;
        }
        if (callback_) {
            callback = callback_;
        } else {
            queue_.push_back(event);
        }
    }
    cv_.notify_all();
    // The callback runs outside the stream lock (single producer, so
    // delivery order is still the event order).
    if (callback)
        callback(event);
}

void
TokenStream::finish(StreamEventKind kind, double virtual_us,
                    RejectReason reason)
{
    COMET_CHECK(isTerminal(kind));
    StreamEvent event;
    event.kind = kind;
    event.virtual_us = virtual_us;
    event.reject_reason = reason;
    deliver(event);
}

void
TokenStream::setCancelPoke(std::function<void()> poke)
{
    std::lock_guard<std::mutex> lock(mutex_);
    cancel_poke_ = std::move(poke);
}

} // namespace server
} // namespace comet
