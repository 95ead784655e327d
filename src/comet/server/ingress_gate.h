/**
 * @file
 * The conservative virtual-time ingress gate, shared by Server and
 * cluster::ClusterRouter (the protocol is described in the
 * "Determinism" section of server.h and in DESIGN.md §10).
 *
 * One IngressGate is everything a front end's client threads and its
 * loop thread share: the mutex and its two condition variables, the
 * inbox of submissions the loop has not taken yet, the per-client
 * horizon table, the draining/stop/cancel/poke/complete flags, the
 * submit-path counts, the published clock, the settled horizon, the
 * promised ingress floor and the front end's published snapshot. A
 * front end keeps only what is its own: the record it queues, its
 * loop, the wake condition for its own pending work and the contents
 * of its snapshot.
 */
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "comet/common/status.h"
#include "comet/obs/metrics.h"
#include "comet/server/admission.h"
#include "comet/server/streaming.h"

namespace comet {
namespace server {

/** One request as a client submits it. */
struct StreamRequest {
    /** Caller-assigned id, unique across the whole session (the load
     * generator derives them deterministically per client). */
    int64_t id = 0;
    std::string tenant;        ///< tenant to account admission under
    int64_t prompt_tokens = 0; ///< prompt length to prefill
    /**
     * Prompt token ids — the content the prefix cache keys on. When
     * non-empty it must be exactly prompt_tokens long; empty keeps
     * the request content-free (no prefix caching for it, everything
     * else unchanged). Only consulted when the server has the prefix
     * cache on and the tenant opted in (TenantConfig::prefix_caching);
     * keys are derived on the submit path, and the ids themselves are
     * not retained past it.
     */
    std::vector<int32_t> prompt_ids;
    /** Declared generation bound (what admission reserves against). */
    int64_t max_output_tokens = 0;
    /** Actual EOS length when the workload models one; 0 = run to
     * the declared bound. */
    int64_t eos_output_tokens = 0;
    /** Virtual arrival time, microseconds; nondecreasing per client
     * handle. */
    double arrival_us = 0.0;
    /**
     * Virtual time at which the client abandons the request
     * (>= arrival_us); 0 = never. The loop cancels the request at the
     * first scheduling boundary whose clock reaches this time, so —
     * unlike the wall-clock TokenStream::requestCancel() — the cancel
     * lands at a deterministic point of the virtual timeline and
     * replays bit-identically (the chaos harness's workload scripts
     * model client cancel/disconnect through it).
     */
    double cancel_at_us = 0.0;
    /** Optional token callback; empty selects pull-mode streaming. */
    TokenStream::Callback callback;
};

/**
 * A client's submission handle on a front end (Server or
 * cluster::ClusterRouter; both name it `Client`). Copyable value type.
 * Submissions through one handle must carry nondecreasing arrival
 * times; close the handle when no more submissions are coming so the
 * ingress gate can release.
 */
template <typename Frontend>
class ClientHandle
{
  public:
    /** An unconnected handle (submit on it is invalid). */
    ClientHandle() = default;

    /**
     * Submits a request and returns its stream. Never fails and never
     * blocks on capacity: structurally invalid submissions (unknown
     * tenant, closed front end) come back as an already terminated
     * stream with the corresponding RejectReason, and overload
     * verdicts arrive asynchronously on the stream.
     */
    TokenStreamPtr
    submit(const StreamRequest &request)
    {
        COMET_CHECK_MSG(valid(), "submit() on an unconnected handle");
        return frontend_->submitFromClient(index_, request);
    }

    /** Promises that no submission with arrival_us earlier than
     * @p horizon_us is still coming through this handle. */
    void
    advanceTo(double horizon_us)
    {
        COMET_CHECK_MSG(valid(), "advanceTo() on an unconnected handle");
        frontend_->ingress_->advance(index_, horizon_us);
    }

    /** Final horizon: no more submissions through this handle
     * (idempotent; the handle stays valid for no-ops). */
    void
    close()
    {
        COMET_CHECK_MSG(valid(), "close() on an unconnected handle");
        frontend_->ingress_->close(index_);
    }

    /** True when the handle is connected to a front end. */
    bool valid() const { return frontend_ != nullptr; }

  private:
    friend Frontend;
    ClientHandle(Frontend *frontend, size_t index)
        : frontend_(frontend), index_(index)
    {
    }

    Frontend *frontend_ = nullptr;
    size_t index_ = 0;
};

/** How a clock-advance wait resolved. */
enum class AdvanceOutcome {
    kAdvance,     ///< safe to commit the clock jump
    kReplan,      ///< new submissions or pokes: re-plan the target
    kInterrupted, ///< stop-with-cancel ended the session
};

/**
 * The ingress gate of one front end. @p Record is what the loop
 * takes from the inbox. @p Snapshot is the front end's published
 * state; it must have a `stats` member with `submitted` and
 * `rejected` counts (see stats()). All methods are thread-safe; the
 * gate must be owned by a std::shared_ptr (streams poke it weakly).
 */
template <typename Record, typename Snapshot>
class IngressGate
    : public std::enable_shared_from_this<IngressGate<Record, Snapshot>>
{
  public:
    /** What the loop took when waitForWork() returned. */
    struct Wakeup {
        std::vector<Record> inbox; ///< submissions to ingest
        bool stop = false;         ///< stop() was requested
        bool cancel = false;       ///< ... with cancellation
        bool draining = false;     ///< ingress is closed
    };

    /** @p metrics_prefix names the `<prefix>.submitted` and
     * `<prefix>.rejected` counters the submit path bumps. */
    explicit IngressGate(std::string metrics_prefix)
        : metrics_prefix_(std::move(metrics_prefix))
    {
    }

    /** Registers a client and returns its index. Its horizon starts
     * at the later of the published clock and the promised floor (see
     * raiseFloor()), never below a committed decision or a promise. */
    size_t
    connect()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        COMET_CHECK_MSG(!draining_,
                        "connect() on a draining or stopped front end");
        horizons_.push_back(std::max(clock_us_, floor_us_));
        return horizons_.size() - 1;
    }

    /** Raises client @p client's horizon to @p horizon_us. */
    void
    advance(size_t client, double horizon_us)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        COMET_CHECK(client < horizons_.size());
        double &horizon = horizons_[client];
        horizon = std::max(horizon, horizon_us);
        cv_.notify_all();
    }

    /** Moves client @p client's horizon to infinity. */
    void close(size_t client) { advance(client, kInfinity); }

    /**
     * The submit path: checks @p request (aborting on a malformed
     * one) and makes its stream, with the cancel poke installed before
     * the loop can see it. Under the lock it refuses the request
     * kShuttingDown (ingress or handle closed) or kUnknownTenant (not
     * in @p tenants), or checks the arrival against the client's
     * horizon, moves the horizon to it and queues
     * `build(tenant_index, stream)`. An early reject is delivered
     * outside the lock at the published clock.
     */
    template <typename Build>
    TokenStreamPtr
    submit(size_t client, const StreamRequest &request,
           const std::vector<TenantConfig> &tenants, Build &&build)
    {
        COMET_CHECK(request.id >= 0);
        COMET_CHECK(request.prompt_tokens > 0);
        COMET_CHECK(request.max_output_tokens > 0);
        COMET_CHECK(request.eos_output_tokens >= 0);
        COMET_CHECK(request.arrival_us >= 0.0);
        COMET_CHECK_MSG(request.cancel_at_us == 0.0 ||
                            request.cancel_at_us >= request.arrival_us,
                        "cancel_at_us must be 0 or >= arrival_us");

        TokenStreamPtr stream =
            request.callback
                ? std::make_shared<TokenStream>(request.callback)
                : std::make_shared<TokenStream>();
        stream->setCancelPoke([weak = this->weak_from_this()] {
            if (auto gate = weak.lock())
                gate->poke();
        });
        RejectReason early = RejectReason::kNone;
        double clock_us = 0.0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++submitted_;
            counter("submitted").add();
            COMET_CHECK(client < horizons_.size());
            double &horizon = horizons_[client];
            const int tenant = tenantIndex(tenants, request.tenant);
            if (draining_ || horizon == kInfinity) {
                early = RejectReason::kShuttingDown;
            } else if (tenant < 0) {
                early = RejectReason::kUnknownTenant;
            } else {
                COMET_CHECK_MSG(
                    request.arrival_us >= horizon,
                    "arrival times must be nondecreasing per client");
                horizon = request.arrival_us;
                inbox_.push_back(build(tenant, stream));
                inbox_floor_us_ =
                    std::min(inbox_floor_us_, request.arrival_us);
                cv_.notify_all();
                return stream;
            }
            ++early_rejected_;
            counter("rejected").add();
            clock_us = clock_us_;
        }
        stream->finish(StreamEventKind::kRejected, clock_us, early);
        return stream;
    }

    /** Wakes the loop (cancel requests, front-end requests). */
    void
    poke()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        poked_ = true;
        cv_.notify_all();
    }

    /** Closes ingress, releasing the gate, and blocks until the loop
     * published the session complete. */
    void
    drain()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        draining_ = true;
        cv_.notify_all();
        done_cv_.wait(lock, [&] { return complete_; });
    }

    /** Closes ingress and asks the loop to exit, cancelling in-flight
     * work if @p cancel_in_flight (a later request may tighten an
     * earlier non-cancelling one, never loosen it). */
    void
    requestStop(bool cancel_in_flight)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        draining_ = true;
        stop_requested_ = true;
        cancel_on_stop_ |= cancel_in_flight;
        cv_.notify_all();
    }

    /** Blocks until the settled horizon reaches @p virtual_us (see
     * Server::waitSettled for the promise it carries). */
    void
    waitSettled(double virtual_us) const
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [&] { return settled_us_ >= virtual_us; });
    }

    /** The published virtual clock, microseconds. */
    double
    clockUs() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return clock_us_;
    }

    /** True once the loop published the session complete (which
     * orders every loop-side write before the caller's reads). */
    bool
    complete() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return complete_;
    }

    /** The published `Snapshot::stats` with the submit path's counts
     * folded in: every submit call, and its early rejects. */
    auto
    stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto stats = snapshot_.stats;
        stats.submitted = submitted_;
        stats.rejected += early_rejected_;
        return stats;
    }

    /** Returns `read(snapshot)` under the lock. */
    template <typename Read>
    auto
    read(Read &&read) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return read(snapshot_);
    }

    /**
     * Parks the loop until a stop request, a poke, a submission, an
     * unfinished drain or `busy()` (the front end's own pending work,
     * evaluated under the lock), then takes the inbox and clears the
     * poke. Parked with nothing pending, future events can only come
     * from submissions at or beyond the minimum horizon: it is settled.
     */
    template <typename Busy>
    Wakeup
    waitForWork(Busy &&busy)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] {
            const bool wake = stop_requested_ || poked_ ||
                              !inbox_.empty() ||
                              (draining_ && !complete_) || busy();
            if (!wake && !horizons_.empty())
                advanceSettledLocked(minHorizonLocked());
            return wake;
        });
        Wakeup wakeup;
        wakeup.inbox = takeInboxLocked();
        poked_ = false;
        wakeup.stop = stop_requested_;
        wakeup.cancel = cancel_on_stop_;
        wakeup.draining = draining_;
        return wakeup;
    }

    /**
     * The clock-advance wait: blocks until every open horizon is
     * strictly past @p target_us — a client whose horizon sits exactly
     * at the target may still submit arrivals at that instant (equal
     * arrival times per handle are legal) — or ingress is closed.
     * With @p replan, a submission or poke landing meanwhile returns
     * kReplan instead: it may be earlier than the target. A
     * stop-with-cancel returns kInterrupted. While parked, events
     * below min(target, the minimum horizon) are impossible, so that
     * is settled; kAdvance commits the jump and settles the target.
     */
    AdvanceOutcome
    waitToAdvance(double target_us, bool replan)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        const auto interrupted = [&] {
            return stop_requested_ && cancel_on_stop_;
        };
        const auto newcomers = [&] {
            return replan && (poked_ || !inbox_.empty());
        };
        cv_.wait(lock, [&] {
            if (interrupted())
                return true;
            advanceSettledLocked(std::min(target_us, minHorizonLocked()));
            return newcomers() ||
                   (draining_ ? kInfinity : minHorizonLocked()) >
                       target_us;
        });
        if (interrupted())
            return AdvanceOutcome::kInterrupted;
        if (newcomers())
            return AdvanceOutcome::kReplan;
        advanceSettledLocked(target_us);
        return AdvanceOutcome::kAdvance;
    }

    /** Publishes a committed clock, which is then settled. */
    void
    commitClock(double clock_us)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        commitClockLocked(clock_us);
    }

    /** Runs `write(snapshot)` under the lock. */
    template <typename Write>
    void
    update(Write &&write)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        write(snapshot_);
    }

    /** Runs `write(snapshot)` and commits @p clock_us under one lock;
     * @p complete marks the session complete (settled at infinity)
     * and releases drain() callers. */
    template <typename Write>
    void
    publish(double clock_us, bool complete, Write &&write)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        write(snapshot_);
        commitClockLocked(clock_us);
        if (complete) {
            complete_ = true;
            advanceSettledLocked(kInfinity);
            done_cv_.notify_all();
        }
    }

    /** Takes the submissions the loop has not taken yet (a
     * stop-with-cancel must still terminate them). */
    std::vector<Record>
    takeInbox()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return takeInboxLocked();
    }

    /**
     * Raises the promised floor — no unrouted submission arrives below
     * it — to the least open horizon, inbox arrival and @p pending_us
     * (the front end's earliest queued arrival); returns it if it
     * rose. An empty client set means "not started", not "all
     * closed": the floor stays put until the first connect.
     */
    std::optional<double>
    raiseFloor(double pending_us)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (horizons_.empty())
            return std::nullopt;
        const double floor = std::min(
            {minHorizonLocked(), inbox_floor_us_, pending_us});
        if (floor <= floor_us_)
            return std::nullopt;
        floor_us_ = floor;
        return floor;
    }

    /** True when every open horizon is past the promised floor.
     * Call only from a waitForWork() predicate (it holds the lock). */
    bool
    horizonsPastFloorLocked() const
    {
        return !horizons_.empty() && minHorizonLocked() > floor_us_;
    }

  private:
    static constexpr double kInfinity =
        std::numeric_limits<double>::infinity();

    static int
    tenantIndex(const std::vector<TenantConfig> &tenants,
                const std::string &name)
    {
        for (size_t i = 0; i < tenants.size(); ++i) {
            if (tenants[i].name == name)
                return static_cast<int>(i);
        }
        return -1;
    }

    obs::Counter &
    counter(const char *name) const
    {
        return obs::MetricsRegistry::global().counter(metrics_prefix_ +
                                                      "." + name);
    }

    double
    minHorizonLocked() const
    {
        double floor = kInfinity;
        for (double horizon : horizons_)
            floor = std::min(floor, horizon);
        return floor;
    }

    void
    advanceSettledLocked(double settled_us)
    {
        if (settled_us > settled_us_) {
            settled_us_ = settled_us;
            done_cv_.notify_all();
        }
    }

    void
    commitClockLocked(double clock_us)
    {
        clock_us_ = clock_us;
        advanceSettledLocked(clock_us);
    }

    std::vector<Record>
    takeInboxLocked()
    {
        inbox_floor_us_ = kInfinity;
        return std::exchange(inbox_, {});
    }

    const std::string metrics_prefix_;
    mutable std::mutex mutex_;
    /** The loop waits here (for work, horizons, pokes). */
    std::condition_variable cv_;
    /** drain() and waitSettled() callers wait here. */
    mutable std::condition_variable done_cv_;
    /** Submitted records the loop has not taken yet. */
    std::vector<Record> inbox_;
    /** The least arrival in inbox_ (infinity when empty). */
    double inbox_floor_us_ = kInfinity;
    /** Per-client ingress horizons, by connect order. */
    std::vector<double> horizons_;
    bool draining_ = false;       ///< ingress closed
    bool stop_requested_ = false; ///< loop asked to exit
    bool cancel_on_stop_ = false; ///< stop cancels in-flight work
    bool poked_ = false;          ///< look at cancels/queued requests
    bool complete_ = false;       ///< all accepted work terminal
    int64_t submitted_ = 0;       ///< submit calls (any verdict)
    int64_t early_rejected_ = 0;  ///< rejected on the submit path
    double clock_us_ = 0.0;       ///< published virtual clock
    /** Every event stamped strictly below this has been delivered
     * (monotone: committed clocks, parks, completion at infinity). */
    double settled_us_ = 0.0;
    double floor_us_ = 0.0; ///< promised floor (see raiseFloor)
    Snapshot snapshot_; ///< the front end's published state
};

} // namespace server
} // namespace comet
