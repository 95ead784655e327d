#include "comet/chaos/script.h"

#include <algorithm>
#include <cstdio>

#include "comet/common/rng.h"
#include "comet/common/status.h"

namespace comet {
namespace chaos {

namespace {

/** Distinct shared-prompt pools per tenant in prefix mode. */
constexpr uint64_t kPromptPoolsPerTenant = 3;

} // namespace

const char *
chaosStepKindName(ChaosStepKind kind)
{
    switch (kind) {
      case ChaosStepKind::kSubmit:
        return "submit";
      case ChaosStepKind::kAdvance:
        return "advance";
      case ChaosStepKind::kReconnect:
        return "reconnect";
    }
    return "?";
}

std::vector<server::TenantConfig>
defaultChaosTenants()
{
    std::vector<server::TenantConfig> tenants(4);
    tenants[0].name = "gold";
    tenants[0].weight = 4.0;
    tenants[1].name = "silver";
    tenants[1].weight = 2.0;
    // A tenant that exercises bounded-queue and rate-limit rejects
    // organically under the script's load.
    tenants[2].name = "bronze";
    tenants[2].weight = 1.0;
    tenants[2].max_queued = 4;
    tenants[2].rate_limit_per_s = 50.0;
    tenants[2].rate_burst = 4.0;
    // A tenant whose requests age out of the queue when the batch is
    // busy (organic kDeadlineExpired coverage).
    tenants[3].name = "deadline";
    tenants[3].weight = 1.0;
    tenants[3].admission_deadline_us = 2e4;
    return tenants;
}

std::vector<ChaosStep>
generateChaosScript(const ChaosScriptConfig &config)
{
    COMET_CHECK(config.steps >= 1);
    COMET_CHECK_MSG(config.clients >= 2,
                    "chaos scripts need >= 2 clients so a "
                    "reconnect never closes the last open horizon");
    const size_t tenants = config.tenants.empty()
                               ? defaultChaosTenants().size()
                               : config.tenants.size();
    Rng rng(config.seed);
    std::vector<ChaosStep> script;
    script.reserve(static_cast<size_t>(config.steps));
    double now_us = 0.0;
    int64_t next_id = 1;
    for (int i = 0; i < config.steps; ++i) {
        // Strictly increasing step times keep every per-client
        // arrival sequence monotone under arbitrary subsequencing —
        // the shrinker's soundness rests on this.
        now_us += rng.uniform(50.0, 2500.0);
        ChaosStep step;
        step.time_us = now_us;
        step.client =
            static_cast<int>(rng.uniformInt(
                static_cast<uint64_t>(config.clients)));
        const double roll = rng.uniform();
        if (roll < 0.06) {
            step.kind = ChaosStepKind::kAdvance;
        } else if (roll < 0.10) {
            step.kind = ChaosStepKind::kReconnect;
        } else {
            step.kind = ChaosStepKind::kSubmit;
            step.id = next_id++;
            step.tenant = static_cast<int>(
                rng.uniformInt(static_cast<uint64_t>(tenants)));
            // A sprinkle of impossible footprints keeps the
            // kTooLarge reject path in every soak.
            step.prompt_tokens =
                rng.uniform() < 0.02
                    ? (int64_t{1} << 20)
                    : 1 + static_cast<int64_t>(rng.uniformInt(192));
            step.max_output_tokens =
                1 + static_cast<int64_t>(rng.uniformInt(24));
            step.eos_output_tokens =
                rng.uniform() < 0.5
                    ? 1 + static_cast<int64_t>(rng.uniformInt(
                              static_cast<uint64_t>(
                                  step.max_output_tokens)))
                    : 0;
            if (config.prefix && step.prompt_tokens < (1 << 16)) {
                // A per-(tenant, pool) seed: requests in one pool
                // share their common-length prompt prefix; pools and
                // tenants never collide (and tenant isolation is
                // enforced by key namespaces regardless).
                const uint64_t pool =
                    rng.uniformInt(kPromptPoolsPerTenant);
                step.prompt_seed = config.seed * 2654435761ull +
                                   static_cast<uint64_t>(step.tenant) *
                                       40503ull +
                                   pool + 1ull;
            }
            if (rng.uniform() < 0.2) {
                step.cancel_at_us =
                    now_us + rng.uniform(0.0, 5e4);
            }
            step.abandon = rng.uniform() < 0.05;
        }
        script.push_back(step);
    }
    return script;
}

std::string
renderChaosScript(const std::vector<ChaosStep> &script)
{
    std::string out;
    out.reserve(script.size() * 64);
    char line[192];
    for (const ChaosStep &step : script) {
        switch (step.kind) {
          case ChaosStepKind::kSubmit:
            std::snprintf(
                line, sizeof(line),
                "submit c=%d id=%lld tenant=%d prompt=%lld "
                "max_out=%lld eos=%lld seed=%llu t=%.3f "
                "cancel_at=%.3f abandon=%d\n",
                step.client, static_cast<long long>(step.id),
                step.tenant,
                static_cast<long long>(step.prompt_tokens),
                static_cast<long long>(step.max_output_tokens),
                static_cast<long long>(step.eos_output_tokens),
                static_cast<unsigned long long>(step.prompt_seed),
                step.time_us, step.cancel_at_us,
                step.abandon ? 1 : 0);
            break;
          case ChaosStepKind::kAdvance:
            std::snprintf(line, sizeof(line),
                          "advance c=%d t=%.3f\n", step.client,
                          step.time_us);
            break;
          case ChaosStepKind::kReconnect:
            std::snprintf(line, sizeof(line),
                          "reconnect c=%d t=%.3f\n", step.client,
                          step.time_us);
            break;
        }
        out += line;
    }
    return out;
}

std::vector<ChaosStep>
shrinkChaosScript(
    const std::vector<ChaosStep> &script,
    const std::function<bool(const std::vector<ChaosStep> &)>
        &still_fails,
    int max_runs)
{
    std::vector<ChaosStep> current = script;
    int runs = 0;
    size_t chunk = std::max<size_t>(1, current.size() / 2);
    while (runs < max_runs) {
        bool removed_any = false;
        size_t start = 0;
        while (start < current.size() && runs < max_runs) {
            const size_t end =
                std::min(start + chunk, current.size());
            if (end - start == current.size())
                break; // never test the empty script
            std::vector<ChaosStep> candidate;
            candidate.reserve(current.size() - (end - start));
            candidate.insert(candidate.end(), current.begin(),
                             current.begin() +
                                 static_cast<std::ptrdiff_t>(start));
            candidate.insert(candidate.end(),
                             current.begin() +
                                 static_cast<std::ptrdiff_t>(end),
                             current.end());
            ++runs;
            if (still_fails(candidate)) {
                current = std::move(candidate);
                removed_any = true;
                // The next chunk slid into place at `start`.
            } else {
                start += chunk;
            }
        }
        if (chunk == 1) {
            if (!removed_any)
                break; // a local minimum: no single step removable
            continue;  // another single-step sweep may now succeed
        }
        chunk = std::max<size_t>(1, chunk / 2);
    }
    return current;
}

} // namespace chaos
} // namespace comet
