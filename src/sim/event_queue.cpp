#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tmc::sim {

std::uint32_t EventQueue::acquire_slot(Callback cb) {
  std::uint32_t index;
  if (free_head_ != kFreeListEnd) {
    index = free_head_;
    free_head_ = static_cast<std::uint32_t>(slots_[index].link);
  } else {
    if (slots_.size() == slots_.capacity()) {
      // One queue serves a whole simulation and routinely holds thousands of
      // pending events; sizing the pool up front (and doubling after that)
      // keeps slot relocation off the schedule hot path.
      slots_.reserve(std::max<std::size_t>(kInitialSlots, slots_.size() * 2));
      heap_.reserve(slots_.capacity());
    }
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.callback = std::move(cb);
  slot.live = true;
  return index;
}

EventId EventQueue::schedule(SimTime at, Callback cb) {
  const std::uint32_t index = acquire_slot(std::move(cb));
  Slot& slot = slots_[index];
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  if (fifo_eligible(at)) {
    now_fifo_.push_back(Entry{at, ++scheduled_, index, slot.generation});
  } else {
    heap_.push_back(Entry{at, ++scheduled_, index, slot.generation});
    sift_up(heap_.size() - 1);
  }
  return make_id(index, slot.generation);
}

EventId EventQueue::schedule_at_seq(SimTime at, std::uint64_t seq,
                                    Callback cb) {
  assert(seq != 0 && seq <= scheduled_ && "sequence number never issued");
  const std::uint32_t index = acquire_slot(std::move(cb));
  Slot& slot = slots_[index];
  ++scheduled_;
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  heap_.push_back(Entry{at, seq, index, slot.generation});
  sift_up(heap_.size() - 1);
  return make_id(index, slot.generation);
}

EventId EventQueue::schedule_relay(SimTime at, SimTime after, Callback cb) {
  assert(!after.is_negative() && "relay into the past");
  const std::uint32_t index = acquire_slot(std::move(cb));
  Slot& slot = slots_[index];
  slot.stage = Stage::kFirst;
  slot.link = static_cast<std::uint64_t>(after.ns());
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  const Entry entry{at, ++scheduled_, index, slot.generation};
  // The key is the newest, so the lane stays sorted iff the time does.
  if (relays_.empty() || relays_.back().time <= at) {
    relays_.push_back(entry);
  } else {
    heap_.push_back(entry);
    sift_up(heap_.size() - 1);
  }
  return make_id(index, slot.generation);
}

const EventQueue::Slot* EventQueue::find(EventId id) const {
  const auto low = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (low == 0 || low > slots_.size()) return nullptr;  // kNoEvent/malformed
  const Slot& slot = slots_[low - 1];
  if (!slot.live || slot.generation != static_cast<std::uint32_t>(id >> 32)) {
    return nullptr;  // fired/cancelled, or a stale handle to a reused slot
  }
  return &slot;
}

bool EventQueue::retarget_relay(EventId id, SimTime after) {
  assert(!after.is_negative() && "relay into the past");
  Slot* slot = find(id);
  if (slot == nullptr || slot->stage != Stage::kFirst) return false;
  slot->link = static_cast<std::uint64_t>(after.ns());
  return true;
}

bool EventQueue::stop_relay(EventId id) {
  Slot* slot = find(id);
  if (slot == nullptr || slot->stage != Stage::kFirst) return false;
  slot->stage = Stage::kPlain;
  return true;
}

bool EventQueue::relay_pending(EventId id) const {
  const Slot* slot = find(id);
  return slot != nullptr && slot->stage == Stage::kFirst;
}

std::uint64_t EventQueue::relay_key(EventId id) const {
  const Slot* slot = find(id);
  return slot != nullptr && slot->stage == Stage::kSecond ? slot->link : 0;
}

std::size_t EventQueue::schedule_batch(SimTime at, std::span<Callback> cbs,
                                       EventId* ids) {
  const std::size_t k = cbs.size();
  if (k == 0) return 0;
  // Sequence numbers are handed out in span order, so the batch ties-break
  // exactly as k individual schedule() calls would. A same-instant batch
  // (the common case: dispatch fan-out committed at zero delay) appends to
  // the FIFO lane and never touches the heap.
  const bool fast = fifo_eligible(at);
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint32_t index = acquire_slot(std::move(cbs[i]));
    const Slot& slot = slots_[index];
    const Entry entry{at, ++scheduled_, index, slot.generation};
    if (fast) {
      now_fifo_.push_back(entry);
    } else {
      heap_.push_back(entry);
    }
    if (ids != nullptr) ids[i] = make_id(index, slot.generation);
  }
  live_ += k;
  if (live_ > peak_live_) peak_live_ = live_;
  if (fast) return k;
  // The first heap_.size()-k elements still satisfy the heap property, so a
  // small batch sifts each appended entry up (O(k log n)); a batch that
  // rivals the pending set rebuilds bottom-up in O(n). Heap order is the
  // strict total order (time, seq), so pop order is identical either way.
  if (k < heap_.size() / 2) {
    for (std::size_t i = heap_.size() - k; i < heap_.size(); ++i) sift_up(i);
  } else {
    heapify();
  }
  return k;
}

bool EventQueue::cancel(EventId id) {
  Slot* slot = find(id);
  if (slot == nullptr) return false;
  // Destroying the callback can release resources whose teardown re-enters
  // schedule() (and may grow slots_); move it out and finish all bookkeeping
  // before the destructor runs at return.
  Callback doomed = std::move(slot->callback);
  retire_slot(static_cast<std::uint32_t>(slot - slots_.data()));
  // Its heap entry stays behind until it surfaces. A model that cancels
  // far-future events (a CPU's whole-burst charge cut short) can leave
  // more dead entries than live ones, deepening every sift; once the heap
  // is mostly dead, sweep it.
  if (heap_.size() > 2 * live_ + kCompactSlack) compact();
  return true;
}

void EventQueue::compact() {
  std::erase_if(heap_, [this](const Entry& e) {
    const Slot& slot = slots_[e.slot];
    return !slot.live || slot.generation != e.generation;
  });
  heapify();
}

void EventQueue::retire_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.live = false;
  slot.stage = Stage::kPlain;
  ++slot.generation;
  slot.link = free_head_;
  free_head_ = index;
  --live_;
}

void EventQueue::drop_stale_top() const {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    const Slot& slot = slots_[top.slot];
    if (slot.live && slot.generation == top.generation) return;
    pop_top();
  }
}

void EventQueue::drop_stale_fifo() const {
  while (now_head_ < now_fifo_.size()) {
    const Entry& e = now_fifo_[now_head_];
    const Slot& slot = slots_[e.slot];
    if (slot.live && slot.generation == e.generation) return;
    ++now_head_;
  }
  // Fully drained: rewind so the lane's storage is reused, not grown.
  now_fifo_.clear();
  now_head_ = 0;
}

const EventQueue::Entry* EventQueue::front(Lane& lane) const {
  drop_stale_top();
  drop_stale_fifo();
  const Entry* e = nullptr;
  if (!fifo_drained() &&
      (heap_.empty() || before(now_fifo_[now_head_], heap_.front()))) {
    e = &now_fifo_[now_head_];
    lane = Lane::kNow;
  } else if (!heap_.empty()) {
    e = &heap_.front();
    lane = Lane::kHeap;
  }
  if (!relays_.empty()) {
    drop_stale_relays();
    if (!relays_.empty() && (e == nullptr || before(relays_.front(), *e))) {
      e = &relays_.front();
      lane = Lane::kRelay;
    }
  }
  return e;
}

void EventQueue::drop_stale_relays() const {
  while (!relays_.empty()) {
    const Entry& e = relays_.front();
    const Slot& slot = slots_[e.slot];
    if (slot.live && slot.generation == e.generation) return;
    relays_.pop_front();
  }
}

SimTime EventQueue::next_time() const {
  Lane lane = Lane::kHeap;
  const Entry* e = front(lane);
  assert(e != nullptr && "next_time() on empty EventQueue");
  return e->time;
}

EventQueue::Fired EventQueue::pop() {
  Fired out;
  const bool popped = pop_if_at_most(SimTime::max(), out);
  assert(popped && "pop() on empty EventQueue");
  (void)popped;
  return out;
}

bool EventQueue::pop_if_at_most(SimTime limit, Fired& out) {
  Lane lane = Lane::kHeap;
  const Entry* front_entry = front(lane);
  if (front_entry == nullptr || front_entry->time > limit) return false;
  const Entry e = *front_entry;
  switch (lane) {
    case Lane::kNow: ++now_head_; break;
    case Lane::kHeap: pop_top(); break;
    case Lane::kRelay: relays_.pop_front(); break;
  }
  current_ = e.time;
  current_seq_ = e.seq;
  Slot& slot = slots_[e.slot];
  if (slot.stage == Stage::kFirst) [[unlikely]] {
    pass_first_stage(e);
    out = Fired{e.time, make_id(e.slot, e.generation), {}};
    return true;
  }
  out = Fired{e.time, make_id(e.slot, e.generation), std::move(slot.callback)};
  retire_slot(e.slot);
  return true;
}

void EventQueue::pass_first_stage(const Entry& e) {
  // Re-key under the next sequence number, exactly where an intermediate
  // event's callback would have scheduled the final event.
  Slot& slot = slots_[e.slot];
  const SimTime at =
      e.time + SimTime::nanoseconds(static_cast<std::int64_t>(slot.link));
  slot.stage = Stage::kSecond;
  slot.link = ++scheduled_;
  ++relayed_;
  heap_.push_back(Entry{at, slot.link, e.slot, e.generation});
  sift_up(heap_.size() - 1);
}

std::size_t EventQueue::discard_all() {
  std::size_t n = 0;
  while (!empty()) {
    Fired fired = pop();
    // The callback is destroyed here and may enqueue new events; a relay's
    // first stage carries none and is discarded at its second.
    if (fired.callback) ++n;
  }
  return n;
}

void EventQueue::pop_top() const {
  // Bottom-up deletion: sink the root hole to a leaf along the min-child
  // chain (one 4-way min per level, no comparison against a relocated
  // element), then drop the last entry into the hole and sift it up. The
  // last entry is almost always leaf-grade, so the sift-up usually stops
  // immediately -- measurably fewer comparisons than the textbook
  // move-last-to-root-and-sift-down on this workload's shallow heaps.
  const std::size_t n = heap_.size() - 1;
  if (n == 0) {
    heap_.pop_back();
    return;
  }
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first_child = 4 * hole + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = heap_[n];
  heap_.pop_back();
  sift_up(hole);
}

void EventQueue::sift_up(std::size_t i) const {
  const Entry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void EventQueue::heapify() const {
  if (heap_.size() < 2) return;
  // Floyd's bottom-up build over the 4-ary layout: sift down every internal
  // node, last parent first.
  for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
    sift_down(i);
  }
}

void EventQueue::sift_down(std::size_t i) const {
  const std::size_t n = heap_.size();
  const Entry entry = heap_[i];
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], entry)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

}  // namespace tmc::sim
