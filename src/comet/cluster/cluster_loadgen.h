#ifndef COMET_CLUSTER_CLUSTER_LOADGEN_H_
#define COMET_CLUSTER_CLUSTER_LOADGEN_H_

/**
 * @file cluster_loadgen.h
 * The open-loop load generator, pointed at a ClusterRouter.
 *
 * Runs on the single-server generator's code (comet/server/loadgen.h):
 * the workload synthesis, the client drive (driveLoadgenClients, the
 * same template runLoadgen instantiates for a Server) and the report
 * aggregation. The same seed therefore submits the identical request
 * sequence through the identical client threads whether it is driven
 * into one Server or a ClusterRouter, which is what the
 * cluster-vs-single-server equivalence tests compare. The only
 * cluster-specific additions are the routed-replica column on each
 * outcome (filled from ClusterRouter::placementOf after the drain
 * barrier), the furthest replica clock as the makespan, and a
 * per-replica latency breakdown in the rendered report.
 */

#include <string>
#include <vector>

#include "comet/cluster/router.h"
#include "comet/server/loadgen.h"

namespace comet {
namespace cluster {

/**
 * Runs @p workload against @p router through
 * server::driveLoadgenClients and aggregates the report, with the
 * furthest of the router and replica clocks as the makespan. Each
 * outcome's RequestOutcome::replica records where the request
 * ran (-1 for edge rejections). The router must have been built with
 * loadgenTenants(config) as its tenant set and must not have had
 * clients connected yet.
 */
server::LoadgenReport
runClusterLoadgen(ClusterRouter *router,
                  const server::LoadgenConfig &config,
                  const std::vector<server::LoadgenRequest> &workload);

/** runClusterLoadgen on server::generateLoadgenWorkload(config). */
server::LoadgenReport
runClusterLoadgen(ClusterRouter *router,
                  const server::LoadgenConfig &config);

/**
 * Renders the per-tenant report plus a per-replica breakdown —
 * routed/completed/token counts and TTFT/TPOT p50/p99 per replica
 * (@p num_replicas rows; requests with replica -1 are summarized in
 * an "edge" row when any exist). Deterministic for a fixed seed.
 */
std::string
renderClusterLoadgenReport(const server::LoadgenReport &report,
                           int num_replicas);

} // namespace cluster
} // namespace comet

#endif // COMET_CLUSTER_CLUSTER_LOADGEN_H_
