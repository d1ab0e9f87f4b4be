#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace tmc::sim {
namespace {

TEST(Simulation, ClockStartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_TRUE(sim.idle());
}

TEST(Simulation, RunAdvancesClockToEventTimes) {
  Simulation sim;
  std::vector<SimTime> seen;
  sim.schedule(SimTime::seconds(2), [&] { seen.push_back(sim.now()); });
  sim.schedule(SimTime::seconds(1), [&] { seen.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], SimTime::seconds(1));
  EXPECT_EQ(seen[1], SimTime::seconds(2));
  EXPECT_EQ(sim.now(), SimTime::seconds(2));
}

TEST(Simulation, ScheduleIsRelativeToNow) {
  Simulation sim;
  SimTime inner;
  sim.schedule(SimTime::seconds(1), [&] {
    sim.schedule(SimTime::seconds(1), [&] { inner = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner, SimTime::seconds(2));
}

TEST(Simulation, ScheduleAtAbsoluteTime) {
  Simulation sim;
  SimTime fired;
  sim.schedule_at(SimTime::seconds(5), [&] { fired = sim.now(); });
  sim.run();
  EXPECT_EQ(fired, SimTime::seconds(5));
}

TEST(Simulation, ZeroDelayFiresAtCurrentTime) {
  Simulation sim;
  SimTime fired = SimTime::max();
  sim.schedule(SimTime::seconds(3), [&] {
    sim.schedule(SimTime::zero(), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, SimTime::seconds(3));
}

TEST(Simulation, RunUntilStopsAtBoundaryInclusive) {
  Simulation sim;
  int fired = 0;
  sim.schedule(SimTime::seconds(1), [&] { ++fired; });
  sim.schedule(SimTime::seconds(2), [&] { ++fired; });
  sim.schedule(SimTime::seconds(3), [&] { ++fired; });
  const auto n = sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::seconds(2));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulation, RunUntilAdvancesClockWithoutEvents) {
  Simulation sim;
  sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(sim.now(), SimTime::seconds(10));
}

TEST(Simulation, StepFiresOneEvent) {
  Simulation sim;
  int fired = 0;
  sim.schedule(SimTime::seconds(1), [&] { ++fired; });
  sim.schedule(SimTime::seconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, MaxEventsBoundsRun) {
  Simulation sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(SimTime::seconds(i + 1), [&] { ++fired; });
  }
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.pending_events(), 6u);
}

TEST(Simulation, CancelStopsScheduledEvent) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.schedule(SimTime::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, FiredEventsCounts) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule(SimTime::seconds(1), [] {});
  sim.run();
  EXPECT_EQ(sim.fired_events(), 5u);
}

TEST(Simulation, DeterministicInterleavingAtSameTimestamp) {
  // Two identical runs must produce identical event orders.
  const auto run_once = [] {
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.schedule(SimTime::seconds(i % 5),
                   [&order, i] { order.push_back(i); });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulation, ScheduleAtSeqTiesAsIfScheduledEarlier) {
  // An event re-keyed under an old sequence number fires ahead of
  // same-instant events scheduled after that number was issued -- including
  // zero-delay events in the same-instant lane -- and behind older ones.
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::seconds(2), [&] { order.push_back(0); });
  sim.schedule_at(SimTime::seconds(1), [&] { order.push_back(-1); });
  const std::uint64_t key = sim.last_seq();
  sim.schedule_at(SimTime::seconds(2), [&] { order.push_back(2); });
  sim.schedule_at(SimTime::seconds(2), [&] {
    order.push_back(3);
    sim.schedule(SimTime::zero(), [&] { order.push_back(4); });
    // Moved to now under the old key: ahead of the lane entry just added.
    sim.schedule_at_seq(sim.now(), key, [&] { order.push_back(1); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 2, 3, 1, 4}));
}

TEST(Simulation, FiringSeqIdentifiesTheCurrentEvent) {
  Simulation sim;
  EXPECT_EQ(sim.firing_seq(), 0u);
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> seen;
  for (int i = 0; i < 3; ++i) {
    sim.schedule(SimTime::seconds(1), [&] { seen.push_back(sim.firing_seq()); });
    keys.push_back(sim.last_seq());
  }
  sim.step();
  EXPECT_EQ(sim.firing_seq(), keys[0]);
  sim.run();
  EXPECT_EQ(seen, keys);
  // After run_until every event at or before the clock has fired.
  sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(sim.firing_seq(), UINT64_MAX);
}

}  // namespace
}  // namespace tmc::sim
