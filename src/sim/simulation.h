// tmcsim -- discrete-event simulation kernel.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace tmc::sim {

/// The simulation clock and event loop.
///
/// A Simulation owns the clock and the pending-event set. Model components
/// hold a reference to it and drive themselves by scheduling callbacks.
/// The kernel is strictly sequential and deterministic: events at equal
/// times fire in scheduling order.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` after `delay` (>= 0) from now.
  EventId schedule(SimTime delay, EventQueue::Callback cb);

  /// Schedules `cb` at absolute time `at` (>= now()).
  EventId schedule_at(SimTime at, EventQueue::Callback cb);

  /// Schedules `cb` at `at` (>= now()) under the earlier-issued sequence
  /// number `seq`: it ties against same-instant events as if scheduled when
  /// `seq` was issued (EventQueue::schedule_at_seq).
  EventId schedule_at_seq(SimTime at, std::uint64_t seq,
                          EventQueue::Callback cb);

  /// Schedules a relay (EventQueue::schedule_relay): nothing fires at
  /// now()+delay, where it takes its tie-break key; `cb` then fires `after`
  /// later, under the key issued when the first stage comes up -- the keys
  /// an event at now()+delay scheduling `cb` after `after` would produce,
  /// with one event fewer fired.
  EventId schedule_relay(SimTime delay, SimTime after,
                         EventQueue::Callback cb);
  /// See EventQueue::retarget_relay, stop_relay, relay_pending, relay_key.
  bool retarget_relay(EventId id, SimTime after) {
    return queue_.retarget_relay(id, after);
  }
  bool stop_relay(EventId id) { return queue_.stop_relay(id); }
  [[nodiscard]] bool relay_pending(EventId id) const {
    return queue_.relay_pending(id);
  }
  [[nodiscard]] std::uint64_t relay_key(EventId id) const {
    return queue_.relay_key(id);
  }

  /// Highest sequence number issued so far: read right after schedule(),
  /// the FIFO tie-break key that event fires under.
  [[nodiscard]] std::uint64_t last_seq() const { return queue_.last_seq(); }

  /// Tie-break key of the event now firing, so a model can tell whether a
  /// pending key at the same instant orders before or after it. 0 before
  /// the first event; after run_until() it is UINT64_MAX, because every
  /// event at or before the clock has fired.
  [[nodiscard]] std::uint64_t firing_seq() const {
    return queue_.current_seq();
  }

  /// Commits an accumulated fan-out: every callback in `batch` is scheduled
  /// at now()+delay through one EventQueue::schedule_batch bulk insert
  /// (FIFO-equivalent to scheduling them individually in add() order). The
  /// batch is cleared afterwards, retaining its capacity for reuse.
  /// Returns the number of events scheduled.
  std::size_t schedule_batch(SimTime delay, EventBatch& batch);

  /// Cancels a pending event; returns false if it already fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the event set is exhausted or `max_events` fire.
  /// Returns the number of events fired (a relay's first stage fires none).
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Runs events with time <= `until`, then advances the clock to `until`
  /// (even if no event fired exactly there). Returns events fired.
  std::uint64_t run_until(SimTime until);

  /// Fires exactly one event if any is pending, or passes one relay's first
  /// stage if that comes first (advancing the clock to it, firing nothing),
  /// as an intermediate event would take one step. Returns true if either
  /// happened.
  bool step();

  /// Fires exactly one event (or passes one relay's first stage, as step())
  /// if one is pending at or before `limit`.
  /// Equivalent to `!idle() && next_event_time() <= limit` followed by
  /// step(), but performs the queue's lazy-deletion scan once instead of
  /// twice -- the shape of a watchdog-bounded run loop.
  bool step_until(SimTime limit);

  /// Destroys all pending events without firing them (teardown aid for
  /// models whose callbacks own resources). Returns the number discarded.
  std::size_t discard_pending() { return queue_.discard_all(); }

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  /// Firing time of the earliest pending event; must not be called idle.
  [[nodiscard]] SimTime next_event_time() const { return queue_.next_time(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// Callbacks fired so far; a relay's first stage fires none.
  [[nodiscard]] std::uint64_t fired_events() const { return fired_; }
  /// Total events ever scheduled (monotone; includes cancelled ones; a
  /// relay counts once).
  [[nodiscard]] std::uint64_t scheduled_events() const {
    return queue_.scheduled_count();
  }
  /// High-water mark of the pending-event set (kernel self-profile).
  [[nodiscard]] std::size_t peak_pending_events() const {
    return queue_.peak_size();
  }

 private:
  EventQueue queue_;
  SimTime now_;
  std::uint64_t fired_ = 0;
};

}  // namespace tmc::sim
