/**
 * @file
 * Tests for the cluster placement primitives: the consistent-hash
 * ring (stability under replica add/remove), the exact least-loaded
 * comparator, smooth weighted round-robin, and the placement key.
 */
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "comet/cluster/placement.h"

namespace comet {
namespace cluster {
namespace {

/** The placement key of tenant @p prefix followed by @p k, built
 * by appending: GCC 12 -O3 flags `"t" + std::to_string(k)` with a
 * false -Wrestrict. */
uint64_t
tenantKey(const char *prefix, uint64_t k)
{
    std::string tenant = prefix;
    tenant += std::to_string(k);
    return placementKey(tenant, 0, false);
}

std::vector<bool>
allActive(int n)
{
    return std::vector<bool>(static_cast<size_t>(n), true);
}

TEST(PlacementKeyTest, StableAndTenantSeparated)
{
    const uint64_t a = placementKey("tenant-a", 0, false);
    EXPECT_EQ(a, placementKey("tenant-a", 0, false));
    EXPECT_NE(a, placementKey("tenant-b", 0, false));
    // A prefix key folds in; different prefixes separate.
    const uint64_t p1 = placementKey("tenant-a", 123, true);
    const uint64_t p2 = placementKey("tenant-a", 456, true);
    EXPECT_NE(p1, a);
    EXPECT_NE(p1, p2);
    EXPECT_EQ(p1, placementKey("tenant-a", 123, true));
}

TEST(RoutingPolicyTest, NamesRoundTrip)
{
    for (RoutingPolicy policy :
         {RoutingPolicy::kConsistentHash, RoutingPolicy::kLeastLoaded,
          RoutingPolicy::kWeightedRoundRobin}) {
        RoutingPolicy parsed;
        ASSERT_TRUE(
            parseRoutingPolicy(routingPolicyName(policy), &parsed));
        EXPECT_EQ(parsed, policy);
    }
    RoutingPolicy parsed;
    EXPECT_FALSE(parseRoutingPolicy("bogus", &parsed));
}

TEST(ConsistentHashRingTest, CoversAllReplicas)
{
    ConsistentHashRing ring(64);
    for (int r = 0; r < 4; ++r)
        ring.addReplica(r);
    const std::vector<bool> active = allActive(4);
    std::map<int, int> hits;
    for (uint64_t k = 0; k < 4096; ++k) {
        const int pick =
            ring.pick(tenantKey("t", k), active);
        ASSERT_GE(pick, 0);
        ASSERT_LT(pick, 4);
        ++hits[pick];
    }
    // With 64 vnodes each, every replica owns a nontrivial share.
    for (int r = 0; r < 4; ++r)
        EXPECT_GT(hits[r], 4096 / 16) << "replica " << r;
}

TEST(ConsistentHashRingTest, RemoveMovesOnlyTheRemovedKeys)
{
    ConsistentHashRing ring(64);
    for (int r = 0; r < 4; ++r)
        ring.addReplica(r);
    const std::vector<bool> active = allActive(4);

    std::vector<uint64_t> keys;
    std::vector<int> before;
    for (uint64_t k = 0; k < 2048; ++k) {
        keys.push_back(tenantKey("key-", k));
        before.push_back(ring.pick(keys.back(), active));
    }

    ring.removeReplica(2);
    int moved = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
        const int after = ring.pick(keys[i], active);
        ASSERT_NE(after, 2);
        if (before[i] != 2) {
            // The consistent-hash contract: keys not owned by the
            // removed replica do not move.
            EXPECT_EQ(after, before[i]) << "key " << i;
        } else {
            ++moved;
        }
    }
    EXPECT_GT(moved, 0);

    // Adding it back restores the original mapping exactly (vnode
    // positions are a pure function of the replica id).
    ring.addReplica(2);
    for (size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(ring.pick(keys[i], active), before[i]);
}

TEST(ConsistentHashRingTest, InactiveMaskEqualsRemoval)
{
    ConsistentHashRing ring(64);
    for (int r = 0; r < 4; ++r)
        ring.addReplica(r);
    ConsistentHashRing without(64);
    for (int r = 0; r < 4; ++r) {
        if (r != 1)
            without.addReplica(r);
    }
    std::vector<bool> masked = allActive(4);
    masked[1] = false;
    for (uint64_t k = 0; k < 1024; ++k) {
        const uint64_t key = tenantKey("m", k);
        EXPECT_EQ(ring.pick(key, masked),
                  without.pick(key, allActive(4)));
    }
}

TEST(ConsistentHashRingTest, SecondChoiceDiffersFromFirst)
{
    ConsistentHashRing ring(64);
    for (int r = 0; r < 3; ++r)
        ring.addReplica(r);
    const std::vector<bool> active = allActive(3);
    for (uint64_t k = 0; k < 512; ++k) {
        const uint64_t key = tenantKey("s", k);
        const int first = ring.pick(key, active);
        const int second = ring.pickSecond(key, active);
        ASSERT_GE(second, 0);
        EXPECT_NE(first, second);
    }
    // One replica: no second choice exists.
    ConsistentHashRing solo(64);
    solo.addReplica(0);
    EXPECT_EQ(solo.pickSecond(7, allActive(1)), -1);
}

TEST(LeastLoadedTest, PicksLowestUtilizationExactly)
{
    // Fractions compare exactly: 10/100 < 11/100.
    std::vector<ReplicaLoad> loads(3);
    loads[0] = {11, 100, true};
    loads[1] = {10, 100, true};
    loads[2] = {50, 100, true};
    EXPECT_EQ(pickLeastLoaded(loads), 1);
    // Heterogeneous capacity: 30/300 == 10/100 ties; lowest index
    // wins deterministically.
    loads[0] = {30, 300, true};
    loads[1] = {10, 100, true};
    loads[2] = {50, 100, true};
    EXPECT_EQ(pickLeastLoaded(loads), 0);
    // Inactive replicas never picked; all-inactive returns -1.
    loads[0].active = false;
    EXPECT_EQ(pickLeastLoaded(loads), 1);
    loads[1].active = false;
    loads[2].active = false;
    EXPECT_EQ(pickLeastLoaded(loads), -1);
}

TEST(WeightedRoundRobinTest, HonorsWeightsSmoothly)
{
    SmoothWeightedRoundRobin wrr;
    wrr.reset({1.0, 2.0, 1.0});
    const std::vector<bool> active = allActive(3);
    std::map<int, int> hits;
    std::vector<int> first_cycle;
    for (int i = 0; i < 400; ++i) {
        const int pick = wrr.pick(active);
        ASSERT_GE(pick, 0);
        ++hits[pick];
        if (i < 4)
            first_cycle.push_back(pick);
    }
    EXPECT_EQ(hits[0], 100);
    EXPECT_EQ(hits[1], 200);
    EXPECT_EQ(hits[2], 100);
    // Smooth: the heavy replica is spread out, not bursty
    // (the nginx sequence for {1,2,1} interleaves replica 1).
    EXPECT_EQ(first_cycle[0], 1);
    EXPECT_NE(first_cycle[1], 1);

    // Masked replicas are skipped and their share redistributes.
    std::vector<bool> masked = active;
    masked[1] = false;
    SmoothWeightedRoundRobin wrr2;
    wrr2.reset({1.0, 2.0, 1.0});
    std::map<int, int> hits2;
    for (int i = 0; i < 100; ++i)
        ++hits2[wrr2.pick(masked)];
    EXPECT_EQ(hits2[1], 0);
    EXPECT_EQ(hits2[0] + hits2[2], 100);
    // No active replica: -1.
    SmoothWeightedRoundRobin wrr3;
    wrr3.reset({1.0});
    EXPECT_EQ(wrr3.pick({false}), -1);
}

} // namespace
} // namespace cluster
} // namespace comet
