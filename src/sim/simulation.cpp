#include "sim/simulation.h"

#include <cassert>
#include <ostream>
#include <utility>

namespace tmc::sim {

std::ostream& operator<<(std::ostream& os, SimTime t) {
  return os << t.to_seconds() << "s";
}

EventId Simulation::schedule(SimTime delay, EventQueue::Callback cb) {
  assert(!delay.is_negative() && "negative delay");
  return queue_.schedule(now_ + delay, std::move(cb));
}

EventId Simulation::schedule_at(SimTime at, EventQueue::Callback cb) {
  assert(at >= now_ && "scheduling into the past");
  return queue_.schedule(at, std::move(cb));
}

EventId Simulation::schedule_at_seq(SimTime at, std::uint64_t seq,
                                   EventQueue::Callback cb) {
  assert(at >= now_ && "scheduling into the past");
  return queue_.schedule_at_seq(at, seq, std::move(cb));
}

EventId Simulation::schedule_relay(SimTime delay, SimTime after,
                                  EventQueue::Callback cb) {
  assert(!delay.is_negative() && "negative delay");
  return queue_.schedule_relay(now_ + delay, after, std::move(cb));
}

std::size_t Simulation::schedule_batch(SimTime delay, EventBatch& batch) {
  assert(!delay.is_negative() && "negative delay");
  const std::size_t n = queue_.schedule_batch(now_ + delay, batch.callbacks());
  batch.clear();
  return n;
}

std::uint64_t Simulation::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && !queue_.empty()) {
    auto fired = queue_.pop();
    assert(fired.time >= now_);
    now_ = fired.time;
    if (!fired.callback) continue;  // a relay's first stage
    fired.callback();
    ++n;
  }
  fired_ += n;
  return n;
}

std::uint64_t Simulation::run_until(SimTime until) {
  std::uint64_t n = 0;
  EventQueue::Fired fired;
  while (queue_.pop_if_at_most(until, fired)) {
    now_ = fired.time;
    if (!fired.callback) continue;  // a relay's first stage
    fired.callback();
    ++n;
  }
  if (until > now_) now_ = until;
  queue_.close_instant();
  fired_ += n;
  return n;
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  auto fired = queue_.pop();
  now_ = fired.time;
  if (!fired.callback) return true;  // a relay's first stage
  fired.callback();
  ++fired_;
  return true;
}

bool Simulation::step_until(SimTime limit) {
  EventQueue::Fired fired;
  if (!queue_.pop_if_at_most(limit, fired)) return false;
  now_ = fired.time;
  if (!fired.callback) return true;  // a relay's first stage
  fired.callback();
  ++fired_;
  return true;
}

}  // namespace tmc::sim
