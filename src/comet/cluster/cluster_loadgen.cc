#include "comet/cluster/cluster_loadgen.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "comet/common/stats.h"
#include "comet/common/status.h"
#include "comet/common/table.h"

namespace comet {
namespace cluster {

namespace {

/** One per-replica row of the rendered breakdown. */
struct ReplicaRow {
    int64_t routed = 0;
    int64_t completed = 0;
    int64_t tokens = 0;
    std::vector<double> ttfts;
    std::vector<double> tpots;
};

} // namespace

server::LoadgenReport
runClusterLoadgen(ClusterRouter *router,
                  const server::LoadgenConfig &config,
                  const std::vector<server::LoadgenRequest> &workload)
{
    std::vector<server::RequestOutcome> outcomes =
        server::driveLoadgenClients(router, config, workload);
    for (size_t i = 0; i < outcomes.size(); ++i)
        outcomes[i].replica =
            router->placementOf(static_cast<int64_t>(i));
    // The router clock tracks routing events (the last arrival);
    // the serving makespan is the furthest replica clock.
    double makespan_us = router->virtualClockUs();
    for (int r = 0; r < router->numReplicas(); ++r)
        makespan_us = std::max(makespan_us,
                               router->replicaVirtualClockUs(r));
    return server::finalizeLoadgenReport(config,
                                         std::move(outcomes),
                                         makespan_us);
}

server::LoadgenReport
runClusterLoadgen(ClusterRouter *router,
                  const server::LoadgenConfig &config)
{
    return runClusterLoadgen(router, config,
                             server::generateLoadgenWorkload(config));
}

std::string
renderClusterLoadgenReport(const server::LoadgenReport &report,
                           int num_replicas)
{
    COMET_CHECK(num_replicas > 0);
    std::string out = server::renderLoadgenReport(report);

    // Per-replica breakdown. Replica -1 (never forwarded: edge
    // rejects/cancels) only gets a row when it occurred.
    std::vector<ReplicaRow> rows(
        static_cast<size_t>(num_replicas) + 1);
    for (const server::RequestOutcome &outcome : report.outcomes) {
        const size_t slot =
            outcome.replica >= 0 && outcome.replica < num_replicas
                ? static_cast<size_t>(outcome.replica)
                : static_cast<size_t>(num_replicas);
        ReplicaRow &row = rows[slot];
        ++row.routed;
        row.tokens += outcome.tokens;
        if (outcome.terminal ==
            server::StreamEventKind::kFinished) {
            ++row.completed;
            row.ttfts.push_back(outcome.ttftUs());
            if (outcome.tokens > 1)
                row.tpots.push_back(outcome.tpotUs());
        }
    }

    Table table({"replica", "routed", "done", "tokens",
                 "ttft p50 (ms)", "ttft p99 (ms)", "tpot p50 (ms)",
                 "tpot p99 (ms)"});
    for (size_t r = 0; r < rows.size(); ++r) {
        const ReplicaRow &row = rows[r];
        const bool edge = r == static_cast<size_t>(num_replicas);
        if (edge && row.routed == 0)
            continue;
        const auto [ttft_p50, ttft_p99] = p50p99OrZero(row.ttfts);
        const auto [tpot_p50, tpot_p99] = p50p99OrZero(row.tpots);
        table.addRow({edge ? "edge" : std::to_string(r),
                      std::to_string(row.routed),
                      std::to_string(row.completed),
                      std::to_string(row.tokens),
                      formatDouble(ttft_p50 * 1e-3, 3),
                      formatDouble(ttft_p99 * 1e-3, 3),
                      formatDouble(tpot_p50 * 1e-3, 3),
                      formatDouble(tpot_p99 * 1e-3, 3)});
    }
    out += "\n";
    out += table.render();
    return out;
}

} // namespace cluster
} // namespace comet
