// Randomized differential model check of the EventQueue kernel.
//
// The queue under test is a 4-ary heap over a generation-tagged slot pool
// with a same-instant FIFO fast lane and a bulk-insert path -- four
// interacting mechanisms whose contract is simple to state: events fire in
// strict (time, insertion-order) order, handles cancel exactly once, and
// schedule_batch is observably identical to a loop of schedule calls. The
// reference model here is a std::multimap keyed on (time, seq): trivially
// correct, allocation-happy, and slow -- everything the production queue is
// not. Each seeded run drives both through the same operation stream and
// demands bit-identical observable behaviour.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "sim/time.h"

namespace tmc::sim {
namespace {

SimTime ns(std::int64_t v) { return SimTime::nanoseconds(v); }

/// Reference pending-event set: multimap ordered by (time, seq), with a
/// handle table for cancellation. seq mirrors the production queue's global
/// schedule counter, so FIFO tie-breaks are modelled exactly.
class ReferenceQueue {
 public:
  std::uint64_t schedule(SimTime at, int payload) {
    const std::uint64_t handle = next_handle_++;
    const auto it = events_.emplace(Key{at, ++seq_}, Pending{payload, handle});
    handles_.emplace(handle, it);
    return handle;
  }

  bool cancel(std::uint64_t handle) {
    const auto it = handles_.find(handle);
    if (it == handles_.end()) return false;
    events_.erase(it->second);
    handles_.erase(it);
    return true;
  }

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  [[nodiscard]] SimTime next_time() const { return events_.begin()->first.first; }

  struct Popped {
    SimTime time;
    int payload;
  };
  Popped pop() {
    const auto it = events_.begin();
    Popped out{it->first.first, it->second.payload};
    handles_.erase(it->second.handle);
    events_.erase(it);
    return out;
  }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;
  struct Pending {
    int payload;
    std::uint64_t handle;
  };
  std::multimap<Key, Pending> events_;
  std::unordered_map<std::uint64_t, std::multimap<Key, Pending>::iterator>
      handles_;
  std::uint64_t seq_ = 0;
  std::uint64_t next_handle_ = 1;
};

/// Drives EventQueue and ReferenceQueue through one seeded operation stream.
/// `fired` collects the payloads EventQueue callbacks report; every pop is
/// cross-checked immediately so a divergence pinpoints the offending op.
class DifferentialDriver {
 public:
  explicit DifferentialDriver(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int i = 0; i < ops; ++i) step();
    drain();
    EXPECT_TRUE(queue_.empty());
    EXPECT_TRUE(reference_.empty());
  }

 private:
  void step() {
    EXPECT_EQ(queue_.size(), reference_.size());
    switch (pick_op()) {
      case Op::kSchedule: do_schedule(); break;
      case Op::kBatch: do_batch(); break;
      case Op::kPop: do_pop(); break;
      case Op::kPopIfAtMost: do_pop_if_at_most(); break;
      case Op::kCancel: do_cancel(); break;
      case Op::kPeek: do_peek(); break;
    }
  }

  enum class Op { kSchedule, kBatch, kPop, kPopIfAtMost, kCancel, kPeek };

  Op pick_op() {
    const int r = std::uniform_int_distribution<int>(0, 99)(rng_);
    if (r < 40) return Op::kSchedule;
    if (r < 50) return Op::kBatch;
    if (r < 75) return Op::kPop;
    if (r < 85) return Op::kPopIfAtMost;
    if (r < 95) return Op::kCancel;
    return Op::kPeek;
  }

  /// Times cluster around the current clock with a heavy weight on exact
  /// ties and zero deltas, the cases the FIFO lane and tie-break exist for.
  /// Occasionally earlier than the clock: the queue's contract is "pop the
  /// minimum", not "times are monotone", and the lane gate must stay exact
  /// when the clock regresses.
  SimTime pick_time() {
    const int r = std::uniform_int_distribution<int>(0, 9)(rng_);
    if (r < 4) return clock_;  // same instant as the last pop
    if (r == 4 && clock_ > ns(0)) {
      return clock_ - ns(std::uniform_int_distribution<std::int64_t>(
                          0, clock_.ns())(rng_));
    }
    return clock_ +
           ns(std::uniform_int_distribution<std::int64_t>(0, 50)(rng_));
  }

  void do_schedule() {
    const SimTime at = pick_time();
    const int payload = next_payload_++;
    const EventId id = queue_.schedule(at, [this, payload] {
      fired_payload_ = payload;
    });
    const std::uint64_t ref = reference_.schedule(at, payload);
    live_.emplace_back(id, ref);
  }

  void do_batch() {
    const SimTime at = pick_time();
    const std::size_t k =
        std::uniform_int_distribution<std::size_t>(1, 16)(rng_);
    EventBatch batch;
    std::vector<int> payloads;
    for (std::size_t j = 0; j < k; ++j) {
      const int payload = next_payload_++;
      payloads.push_back(payload);
      batch.add([this, payload] { fired_payload_ = payload; });
    }
    std::vector<EventId> ids(k, kNoEvent);
    ASSERT_EQ(queue_.schedule_batch(at, batch.callbacks(), ids.data()), k);
    for (std::size_t j = 0; j < k; ++j) {
      ASSERT_NE(ids[j], kNoEvent);
      live_.emplace_back(ids[j], reference_.schedule(at, payloads[j]));
    }
  }

  void do_pop() {
    if (reference_.empty()) {
      EXPECT_TRUE(queue_.empty());
      return;
    }
    const auto expected = reference_.pop();
    EventQueue::Fired fired = queue_.pop();
    check_fired(fired, expected);
  }

  void do_pop_if_at_most() {
    // Limits straddle next_time() so both accept and reject paths run.
    const SimTime limit =
        clock_ + ns(std::uniform_int_distribution<std::int64_t>(0, 25)(rng_));
    EventQueue::Fired fired;
    const bool popped = queue_.pop_if_at_most(limit, fired);
    const bool expect_pop =
        !reference_.empty() && reference_.next_time() <= limit;
    ASSERT_EQ(popped, expect_pop);
    if (popped) check_fired(fired, reference_.pop());
  }

  void do_cancel() {
    if (live_.empty()) return;
    // Mix of live handles and handles already fired/cancelled: both queues
    // must agree on which cancellations succeed.
    const std::size_t idx =
        std::uniform_int_distribution<std::size_t>(0, live_.size() - 1)(rng_);
    const auto [id, ref] = live_[idx];
    EXPECT_EQ(queue_.cancel(id), reference_.cancel(ref));
    live_[idx] = live_.back();
    live_.pop_back();
  }

  void do_peek() {
    if (reference_.empty()) {
      EXPECT_TRUE(queue_.empty());
      return;
    }
    EXPECT_EQ(queue_.next_time(), reference_.next_time());
  }

  void check_fired(EventQueue::Fired& fired, ReferenceQueue::Popped expected) {
    ASSERT_EQ(fired.time, expected.time);
    fired_payload_ = -1;
    fired.callback();
    ASSERT_EQ(fired_payload_, expected.payload);
    clock_ = fired.time;
  }

  void drain() {
    while (!reference_.empty()) do_pop();
  }

  std::mt19937_64 rng_;
  EventQueue queue_;
  ReferenceQueue reference_;
  /// (production handle, reference handle) of not-yet-consumed schedules.
  std::vector<std::pair<EventId, std::uint64_t>> live_;
  SimTime clock_;
  int next_payload_ = 0;
  int fired_payload_ = -1;
};

TEST(EventQueueModel, RandomizedDifferential) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DifferentialDriver driver(seed);
    driver.run(10'000);
  }
}

// Most events are cancelled long before their time -- the shape of a CPU
// cutting whole-burst charges short -- so dead heap entries outnumber live
// ones and cancel() sweeps them out. Pops must not notice.
TEST(EventQueueModel, CancelHeavyStreamSweepsWithoutReordering) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    EventQueue queue;
    ReferenceQueue reference;
    std::vector<std::pair<EventId, std::uint64_t>> handles;
    int fired = -1;
    int next = 0;
    SimTime clock;
    const auto pop_one = [&] {
      const ReferenceQueue::Popped expected = reference.pop();
      EventQueue::Fired got = queue.pop();
      ASSERT_EQ(got.time, expected.time);
      got.callback();
      ASSERT_EQ(fired, expected.payload);
      clock = got.time;
    };
    for (int round = 0; round < 300; ++round) {
      for (int i = 0; i < 20; ++i) {
        const SimTime at =
            clock + ns(std::uniform_int_distribution<std::int64_t>(
                           0, 1'000'000)(rng));
        const int payload = next++;
        handles.emplace_back(
            queue.schedule(at, [&fired, payload] { fired = payload; }),
            reference.schedule(at, payload));
      }
      for (int i = 0; i < 19 && !handles.empty(); ++i) {
        const std::size_t idx = std::uniform_int_distribution<std::size_t>(
            0, handles.size() - 1)(rng);
        EXPECT_EQ(queue.cancel(handles[idx].first),
                  reference.cancel(handles[idx].second));
        handles[idx] = handles.back();
        handles.pop_back();
      }
      ASSERT_EQ(queue.size(), reference.size());
      if (!reference.empty()) pop_one();
      if (HasFatalFailure()) return;
    }
    while (!reference.empty()) {
      pop_one();
      if (HasFatalFailure()) return;
    }
    EXPECT_TRUE(queue.empty());
  }
}

// A heavier mix of same-instant scheduling: every seed here spends most of
// its schedules on exact clock ties, keeping the FIFO lane continuously hot
// while pops interleave lane and heap fronts.
TEST(EventQueueModel, SameInstantStress) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EventQueue queue;
    ReferenceQueue reference;
    std::mt19937_64 rng(seed);
    SimTime clock;
    int fired = -1;
    int payload = 0;
    for (int round = 0; round < 2'000; ++round) {
      const int burst = std::uniform_int_distribution<int>(1, 6)(rng);
      for (int j = 0; j < burst; ++j) {
        // 3:1 same-instant to near-future.
        const SimTime at =
            std::uniform_int_distribution<int>(0, 3)(rng) != 0
                ? clock
                : clock + ns(std::uniform_int_distribution<int>(1, 9)(rng));
        const int p = payload++;
        queue.schedule(at, [&fired, p] { fired = p; });
        reference.schedule(at, p);
      }
      const int pops = std::uniform_int_distribution<int>(1, burst)(rng);
      for (int j = 0; j < pops && !reference.empty(); ++j) {
        const auto expected = reference.pop();
        auto got = queue.pop();
        ASSERT_EQ(got.time, expected.time);
        fired = -1;
        got.callback();
        ASSERT_EQ(fired, expected.payload);
        clock = got.time;
      }
    }
    while (!reference.empty()) {
      const auto expected = reference.pop();
      auto got = queue.pop();
      ASSERT_EQ(got.time, expected.time);
      fired = -1;
      got.callback();
      ASSERT_EQ(fired, expected.payload);
    }
    EXPECT_TRUE(queue.empty());
  }
}

TEST(EventQueueModel, BatchMatchesIndividualSchedules) {
  // Same callbacks, same instant, two queues: one bulk insert vs a loop of
  // schedule() calls. The pop sequences must be identical -- the documented
  // schedule_batch contract.
  for (const std::size_t batch_size : {1u, 2u, 7u, 64u, 500u}) {
    EventQueue bulk;
    EventQueue loop;
    std::vector<int> bulk_fired;
    std::vector<int> loop_fired;
    // Pre-load both with the same background events at varied times so the
    // batch lands in a non-trivial heap.
    for (int i = 0; i < 40; ++i) {
      bulk.schedule(ns(10 + 3 * i), [&bulk_fired, i] {
        bulk_fired.push_back(1000 + i);
      });
      loop.schedule(ns(10 + 3 * i), [&loop_fired, i] {
        loop_fired.push_back(1000 + i);
      });
    }
    EventBatch batch;
    for (std::size_t i = 0; i < batch_size; ++i) {
      const int p = static_cast<int>(i);
      batch.add([&bulk_fired, p] { bulk_fired.push_back(p); });
      loop.schedule(ns(42), [&loop_fired, p] {
        loop_fired.push_back(p);
      });
    }
    EXPECT_EQ(bulk.schedule_batch(ns(42), batch.callbacks()), batch_size);
    while (!bulk.empty()) bulk.pop().callback();
    while (!loop.empty()) loop.pop().callback();
    EXPECT_EQ(bulk_fired, loop_fired) << "batch size " << batch_size;
  }
}

TEST(EventQueueModel, BatchLargerThanHeapTakesHeapifyPath) {
  // A batch that rivals the pending set rebuilds the heap bottom-up; the
  // observable order must still be exact (time, then span order).
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(ns(5), [&fired] { fired.push_back(-1); });
  queue.schedule(ns(100), [&fired] { fired.push_back(-2); });
  EventBatch batch;
  for (int i = 0; i < 32; ++i) {
    batch.add([&fired, i] { fired.push_back(i); });
  }
  EXPECT_EQ(queue.schedule_batch(ns(50), batch.callbacks()), 32u);
  while (!queue.empty()) queue.pop().callback();
  ASSERT_EQ(fired.size(), 34u);
  EXPECT_EQ(fired.front(), -1);
  EXPECT_EQ(fired.back(), -2);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i) + 1], i);
}

TEST(EventQueueModel, BatchIdsAreCancelable) {
  EventQueue queue;
  std::vector<int> fired;
  EventBatch batch;
  for (int i = 0; i < 8; ++i) {
    batch.add([&fired, i] { fired.push_back(i); });
  }
  EventId ids[8];
  ASSERT_EQ(queue.schedule_batch(ns(7), batch.callbacks(), ids), 8u);
  EXPECT_TRUE(queue.cancel(ids[2]));
  EXPECT_TRUE(queue.cancel(ids[5]));
  EXPECT_FALSE(queue.cancel(ids[2]));  // second cancel must fail
  while (!queue.empty()) queue.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 3, 4, 6, 7}));
}

TEST(EventQueueModel, EmptyBatchIsANoOp) {
  EventQueue queue;
  EventBatch batch;
  EXPECT_EQ(queue.schedule_batch(ns(3), batch.callbacks()), 0u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueModel, HandleGenerationSurvivesSlotReuse) {
  // Pop an event, then keep scheduling until its pool slot is reused; the
  // stale handle must not cancel the new occupant.
  EventQueue queue;
  const EventId first = queue.schedule(ns(1), [] {});
  queue.pop().callback();
  // The freed slot is at the head of the free list, so the very next
  // schedule reuses it with a bumped generation.
  const EventId second = queue.schedule(ns(2), [] {});
  EXPECT_NE(first, second);
  EXPECT_FALSE(queue.cancel(first));
  EXPECT_TRUE(queue.cancel(second));
}

TEST(EventQueueModel, CancelledLaneEntriesAreSkipped) {
  // Entries sitting in the same-instant lane honour lazy deletion too.
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(ns(0), [&fired] { fired.push_back(0); });
  queue.pop().callback();  // clock now at 0; lane active for t=0
  const EventId a = queue.schedule(ns(0), [&fired] { fired.push_back(1); });
  const EventId b = queue.schedule(ns(0), [&fired] { fired.push_back(2); });
  const EventId c = queue.schedule(ns(0), [&fired] { fired.push_back(3); });
  EXPECT_TRUE(queue.cancel(b));
  (void)a;
  (void)c;
  while (!queue.empty()) queue.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 3}));
}

TEST(EventQueueModel, PopIfAtMostRespectsLimit) {
  EventQueue queue;
  queue.schedule(ns(10), [] {});
  EventQueue::Fired fired;
  EXPECT_FALSE(queue.pop_if_at_most(ns(9), fired));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_TRUE(queue.pop_if_at_most(ns(10), fired));
  EXPECT_EQ(fired.time, ns(10));
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.pop_if_at_most(SimTime::max(), fired));
}

TEST(EventQueueModel, ZeroDelayCascadeFiresInScheduleOrder) {
  // A callback that schedules more work at its own instant: the follow-ups
  // ride the lane and must fire after everything already pending at that
  // time, in the order they were scheduled.
  Simulation sim;
  std::vector<int> order;
  sim.schedule(ns(5), [&] {
    order.push_back(0);
    sim.schedule(SimTime::zero(), [&order] { order.push_back(2); });
    sim.schedule(SimTime::zero(), [&order] { order.push_back(3); });
  });
  sim.schedule(ns(5), [&order] { order.push_back(1); });
  sim.run_until(ns(100));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueModel, StepUntilMatchesRunUntil) {
  // Two simulations with the same script: one driven by run_until, one by a
  // step_until loop. Fired counts and final clocks must agree.
  auto script = [](Simulation& sim, std::vector<std::int64_t>& times) {
    for (int i = 0; i < 20; ++i) {
      sim.schedule(ns(3 * i), [&sim, &times] {
        times.push_back(sim.now().ns());
      });
    }
  };
  Simulation a;
  Simulation b;
  std::vector<std::int64_t> ta;
  std::vector<std::int64_t> tb;
  script(a, ta);
  script(b, tb);
  a.run_until(ns(1000));
  while (b.step_until(ns(1000))) {
  }
  EXPECT_EQ(ta, tb);
  // run_until advances the clock to the horizon; step_until stops at the
  // last fired event -- both see the same event stream.
  EXPECT_EQ(a.now(), ns(1000));
  EXPECT_EQ(b.now(), ns(3 * 19));
  EXPECT_EQ(a.fired_events(), b.fired_events());
}

TEST(EventQueueModel, SimulationBatchPreservesFifoAgainstSingles) {
  // Events already pending at the batch instant fire first (lower seq);
  // batch members then fire in add() order, before anything later.
  Simulation sim;
  std::vector<int> order;
  sim.schedule(ns(10), [&order] { order.push_back(0); });
  sim.schedule(ns(5), [&] {
    EventBatch batch;
    for (int i = 0; i < 4; ++i) {
      batch.add([&order, i] { order.push_back(10 + i); });
    }
    sim.schedule_batch(SimTime::zero(), batch);
  });
  sim.schedule(ns(15), [&order] { order.push_back(1); });
  sim.run_until(ns(100));
  EXPECT_EQ(order, (std::vector<int>{10, 11, 12, 13, 0, 1}));
}

}  // namespace
}  // namespace tmc::sim
