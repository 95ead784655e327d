/**
 * @file
 * Seeded multi-tenant workload scripts for the chaos harness.
 *
 * A chaos script is a flat list of self-contained steps the harness
 * replays against a Server: submissions (with randomized prompt and
 * output lengths, tenants, scheduled virtual-time abandons, and the
 * occasional impossible footprint), horizon advances, and client
 * reconnects. Scripts are generated from a seed by a comet::Rng, so
 * `--seed=N` reproduces a run exactly; and every step carries its own
 * absolute virtual times with the global step time strictly
 * increasing, so **any subsequence of a valid script is itself
 * valid** (per-client arrival monotonicity survives deletion). That
 * closure property is what makes delta-debugging shrinks sound:
 * shrinkChaosScript() can drop arbitrary step ranges and re-run the
 * predicate without ever manufacturing an illegal workload.
 *
 * Client cancels and disconnects are modeled through
 * StreamRequest::cancel_at_us — scheduled *virtual-time* abandons the
 * serving loop executes at deterministic clock boundaries — rather
 * than wall-clock requestCancel() calls from the harness thread,
 * whose landing point would race host scheduling and break
 * bit-identical replay.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "comet/server/admission.h"

namespace comet {
namespace chaos {

/** What one script step does. */
enum class ChaosStepKind {
    kSubmit = 0, ///< submit a request on a client handle
    kAdvance,    ///< advance a client's ingress horizon
    kReconnect,  ///< close the client's handle and connect a new one
};

/** Returns "submit" / "advance" / "reconnect". */
const char *chaosStepKindName(ChaosStepKind kind);

/** One self-contained step of a chaos script. */
struct ChaosStep {
    ChaosStepKind kind = ChaosStepKind::kSubmit; ///< what to do
    int client = 0;      ///< client slot the step acts through
    int64_t id = 0;      ///< request id (kSubmit; session-unique)
    int tenant = 0;      ///< tenant index (kSubmit)
    int64_t prompt_tokens = 0;     ///< prompt length (kSubmit)
    int64_t max_output_tokens = 0; ///< declared bound (kSubmit)
    int64_t eos_output_tokens = 0; ///< actual EOS length (kSubmit)
    /**
     * Prompt-content seed (kSubmit); 0 = content-free request. When
     * non-zero the harness materializes the prompt as the first
     * prompt_tokens ids of the Rng stream this seeds, so two submits
     * sharing a seed share their common-length prefix by construction
     * — the redundancy the prefix cache grafts. Self-contained per
     * step, so the shrinker's subsequence closure survives.
     */
    uint64_t prompt_seed = 0;
    /** Virtual time of the step: the arrival (kSubmit) or the new
     * horizon (kAdvance); strictly increasing across the script. */
    double time_us = 0.0;
    /** Scheduled virtual-time abandon (kSubmit); 0 = never. */
    double cancel_at_us = 0.0;
    /** The client walks away without ever reading the stream
     * (kSubmit); the harness still audits it after drain. */
    bool abandon = false;
};

/** Script generation parameters. */
struct ChaosScriptConfig {
    uint64_t seed = 1; ///< the only source of randomness
    int steps = 1000;  ///< script length
    /** Concurrent client handles (>= 2, so a reconnecting client
     * never leaves the ingress gate without an open horizon). */
    int clients = 4;
    /** Tenant set the script draws from; empty selects
     * defaultChaosTenants(). */
    std::vector<server::TenantConfig> tenants;
    /**
     * Prefix-cache mode: submits draw a prompt_seed from a
     * per-tenant pool of three (shared prefixes across requests of
     * one tenant, never across tenants), and the harness runs the
     * server with the prefix cache on and every tenant opted in.
     * Off keeps scripts content-free — bit-for-bit the
     * pre-prefix-cache soak.
     */
    bool prefix = false;
    /** Chunked-prefill mode: the harness runs the server with
     * ServerConfig::chunked_prefill_tokens set to this (0 keeps
     * monolithic prefill), so cancels, preemptions and grafts land
     * at chunk edges; pair with ChaosFaultConfig::chunk_every to
     * drop chunks at their boundaries too. */
    int64_t chunk_tokens = 0;
    /** Tensor-parallel degree of the engine the harness serves
     * against (1 = the classic single-GPU soak). Higher degrees
     * exercise the sharded KV-pool accounting and give the
     * `tp.allreduce` failpoint (ChaosFaultConfig::allreduce_every) a
     * live cost path; the KV pool is pinned to the same 256 blocks
     * at every degree, so admission capacity never moves and the
     * replay stays byte-identical across thread counts. (Streams may
     * differ from a TP=1 replay of the same script: TP shifts the
     * virtual clock, and scripts carry time-triggered cancels.) */
    int tp_degree = 1;
};

/**
 * The 4-tenant serving mix the soak runs against: weighted "gold"
 * and "silver", a "bronze" tenant with a short bounded queue and a
 * tight rate limit (organic kQueueFull / kRateLimited coverage), and
 * a "deadline" tenant whose admission deadline expires under load
 * (organic kDeadlineExpired coverage).
 */
std::vector<server::TenantConfig> defaultChaosTenants();

/** Generates the seeded script (see the file comment). */
std::vector<ChaosStep>
generateChaosScript(const ChaosScriptConfig &config);

/** Renders a script as one human-readable line per step — the repro
 * artifact printed for a shrunk failing run. */
std::string renderChaosScript(const std::vector<ChaosStep> &script);

/**
 * Delta-debugging shrink: repeatedly deletes step ranges (halving
 * the chunk size down to single steps) while @p still_fails keeps
 * accepting the candidate, bounded by @p max_runs predicate
 * evaluations. Returns the smallest failing script found; subsequence
 * validity is guaranteed by the script representation.
 */
std::vector<ChaosStep> shrinkChaosScript(
    const std::vector<ChaosStep> &script,
    const std::function<bool(const std::vector<ChaosStep> &)>
        &still_fails,
    int max_runs = 256);

} // namespace chaos
} // namespace comet
