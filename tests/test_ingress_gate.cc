/**
 * @file
 * Tests for the virtual-time ingress gate Server and ClusterRouter
 * share: the two forms of the clock-advance wait, the stop-with-cancel
 * interrupt, the submit-path verdicts and the promised floor.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "comet/obs/metrics.h"
#include "comet/server/ingress_gate.h"

namespace comet {
namespace server {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/** What a test front end publishes: just the stats stats() reads. */
struct TestSnapshot {
    struct {
        int64_t submitted = 0;
        int64_t rejected = 0;
    } stats;
};

/** The record a test front end queues: the arrival and its stream. */
struct TestRecord {
    double arrival_us = 0.0;
    TokenStreamPtr stream;
};

using TestGate = IngressGate<TestRecord, TestSnapshot>;

const std::vector<TenantConfig> &
oneTenant()
{
    static const std::vector<TenantConfig> tenants = [] {
        TenantConfig tenant;
        tenant.name = "t";
        return std::vector<TenantConfig>{tenant};
    }();
    return tenants;
}

TokenStreamPtr
submitAt(TestGate &gate, size_t client, int64_t id, double arrival_us,
         const std::string &tenant = "t")
{
    StreamRequest request;
    request.id = id;
    request.tenant = tenant;
    request.prompt_tokens = 8;
    request.max_output_tokens = 1;
    request.arrival_us = arrival_us;
    return gate.submit(client, request, oneTenant(),
                       [&](int, const TokenStreamPtr &stream) {
                           return TestRecord{arrival_us, stream};
                       });
}

/** True when @p outcome is still pending after 20 ms of wall time.
 * The gate's holds are determinism invariants, so a wait that must
 * not return cannot flake by returning. */
bool
stillWaiting(std::future<AdvanceOutcome> &outcome)
{
    return outcome.wait_for(std::chrono::milliseconds(20)) ==
           std::future_status::timeout;
}

/** The outcome of a wait that must return. If it does not within a
 * generous bound, the test fails and a stop-with-cancel releases the
 * wait instead of hanging the suite. */
AdvanceOutcome
returned(TestGate &gate, std::future<AdvanceOutcome> &outcome)
{
    if (outcome.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
        ADD_FAILURE() << "the wait did not return";
        gate.requestStop(/*cancel_in_flight=*/true);
    }
    return outcome.get();
}

class IngressGateTest : public ::testing::Test
{
  protected:
    void SetUp() override { obs::MetricsRegistry::global().reset(); }
};

TEST_F(IngressGateTest, PlannedWaitHoldsUntilEveryHorizonIsStrictlyPast)
{
    auto gate = std::make_shared<TestGate>("gate");
    const size_t client = gate->connect();
    std::future<AdvanceOutcome> outcome = std::async(
        std::launch::async,
        [&] { return gate->waitToAdvance(1000.0, /*replan=*/false); });
    // A submission does not re-plan a step that is already planned.
    submitAt(*gate, client, 1, 500.0);
    EXPECT_TRUE(stillWaiting(outcome));
    // A horizon exactly at the target may still submit at it.
    gate->advance(client, 1000.0);
    EXPECT_TRUE(stillWaiting(outcome));
    gate->advance(client, 1000.5);
    EXPECT_EQ(returned(*gate, outcome), AdvanceOutcome::kAdvance);
    // The committed jump is settled.
    gate->waitSettled(1000.0);
    EXPECT_EQ(gate->takeInbox().size(), 1u);
}

TEST_F(IngressGateTest, ReplanningWaitReturnsOnASubmission)
{
    auto gate = std::make_shared<TestGate>("gate");
    const size_t client = gate->connect();
    std::future<AdvanceOutcome> outcome = std::async(
        std::launch::async,
        [&] { return gate->waitToAdvance(1000.0, /*replan=*/true); });
    EXPECT_TRUE(stillWaiting(outcome));
    submitAt(*gate, client, 1, 500.0);
    EXPECT_EQ(returned(*gate, outcome), AdvanceOutcome::kReplan);
    // A poke re-plans too, once the loop took the submission.
    const auto wakeup = gate->waitForWork([] { return false; });
    ASSERT_EQ(wakeup.inbox.size(), 1u);
    EXPECT_DOUBLE_EQ(wakeup.inbox[0].arrival_us, 500.0);
    outcome = std::async(std::launch::async, [&] {
        return gate->waitToAdvance(1000.0, /*replan=*/true);
    });
    EXPECT_TRUE(stillWaiting(outcome));
    gate->poke();
    EXPECT_EQ(returned(*gate, outcome), AdvanceOutcome::kReplan);
}

TEST_F(IngressGateTest, StopWithCancelInterruptsAndDrainReleases)
{
    auto gate = std::make_shared<TestGate>("gate");
    gate->connect();
    std::future<AdvanceOutcome> outcome = std::async(
        std::launch::async,
        [&] { return gate->waitToAdvance(1000.0, /*replan=*/false); });
    EXPECT_TRUE(stillWaiting(outcome));
    gate->requestStop(/*cancel_in_flight=*/true);
    EXPECT_EQ(returned(*gate, outcome), AdvanceOutcome::kInterrupted);

    // Without cancellation a stop only closes ingress, which releases
    // the gate whatever the open horizons.
    auto other = std::make_shared<TestGate>("other");
    other->connect();
    other->requestStop(/*cancel_in_flight=*/false);
    EXPECT_EQ(other->waitToAdvance(1000.0, /*replan=*/true),
              AdvanceOutcome::kAdvance);
}

TEST_F(IngressGateTest, EarlyRejectsCarryThePublishedClock)
{
    auto gate = std::make_shared<TestGate>("gate");
    const size_t client = gate->connect();
    gate->publish(250.0, /*complete=*/false, [](TestSnapshot &) {});
    StreamEvent event;
    TokenStreamPtr unknown = submitAt(*gate, client, 1, 300.0, "nope");
    ASSERT_TRUE(unknown->done());
    EXPECT_EQ(unknown->terminalReason(), RejectReason::kUnknownTenant);
    ASSERT_TRUE(unknown->next(&event));
    EXPECT_DOUBLE_EQ(event.virtual_us, 250.0);

    gate->close(client);
    TokenStreamPtr closed = submitAt(*gate, client, 2, 300.0);
    ASSERT_TRUE(closed->done());
    EXPECT_EQ(closed->terminalReason(), RejectReason::kShuttingDown);

    const auto stats = gate->stats();
    EXPECT_EQ(stats.submitted, 2);
    EXPECT_EQ(stats.rejected, 2);
    const obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    EXPECT_EQ(registry.counterValue("gate.submitted"), 2);
    EXPECT_EQ(registry.counterValue("gate.rejected"), 2);
    EXPECT_TRUE(gate->takeInbox().empty());
}

TEST_F(IngressGateTest, PromisedFloorBoundsLateConnects)
{
    auto gate = std::make_shared<TestGate>("gate");
    // Before the first connect nothing is promised.
    EXPECT_FALSE(gate->raiseFloor(kInfinity).has_value());
    const size_t first = gate->connect();
    gate->advance(first, 500.0);
    EXPECT_EQ(gate->raiseFloor(kInfinity), 500.0);
    // A later client starts at the floor: it may not submit below
    // what was promised.
    const size_t second = gate->connect();
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(submitAt(*gate, second, 1, 400.0),
                 "nondecreasing per client");
    EXPECT_FALSE(gate->raiseFloor(kInfinity).has_value());
    // An arrival still in the inbox bounds the floor after its
    // client closed; so does the front end's own pending arrival.
    submitAt(*gate, second, 1, 600.0);
    gate->close(second);
    gate->close(first);
    EXPECT_EQ(gate->raiseFloor(kInfinity), 600.0);
    gate->takeInbox();
    EXPECT_EQ(gate->raiseFloor(700.0), 700.0);
    EXPECT_EQ(gate->raiseFloor(kInfinity), kInfinity);
}

} // namespace
} // namespace server
} // namespace comet
