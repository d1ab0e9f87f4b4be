// tmcsim -- pending-event set for the discrete-event kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/time.h"
#include "sim/unique_function.h"

namespace tmc::sim {

/// Opaque handle identifying a scheduled event; used to cancel it.
/// Handle 0 is never issued and acts as "no event".
using EventId = std::uint64_t;
inline constexpr EventId kNoEvent = 0;

/// Time-ordered set of pending events.
///
/// Ties are broken by insertion order (FIFO), which makes simulations
/// deterministic: two events scheduled for the same instant fire in the order
/// they were scheduled. Cancellation is O(1) (lazy deletion on pop).
///
/// Implementation: a 4-ary min-heap of (time, sequence) keys over a
/// generation-tagged slot pool that stores the callbacks inline. The hot
/// schedule/pop path touches only the heap array and one pool slot -- no
/// hashing anywhere -- and with UniqueFunction's small-buffer storage a
/// typical event never allocates. A handle encodes (slot, generation);
/// cancel() destroys the callback and retires the slot immediately, leaving
/// the heap entry to be skipped when it surfaces (the generation tag
/// detects staleness even after the slot has been reused). When dead
/// entries outnumber live ones, cancel() sweeps them out in one pass.
///
/// Same-instant fast lane: an event scheduled for exactly the time of the
/// most recently popped event (a zero-delay cascade -- dispatch pumps,
/// bulk-granted memory, gang fan-out) bypasses the heap into a plain FIFO.
/// This is order-exact, not an approximation: every heap entry at that
/// instant was inserted before the clock reached it and so carries a lower
/// sequence number than anything in the lane, and pop() compares the two
/// fronts under the same strict (time, seq) order either way. Roughly a
/// third of all events in the paper's workloads take this O(1) path.
class EventQueue {
 public:
  using Callback = UniqueFunction<void()>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  /// Pending callbacks are destroyed without firing, via discard_all(), so
  /// destructors that schedule follow-up events stay well-defined.
  ~EventQueue() { discard_all(); }

  /// Schedules `cb` to fire at absolute time `at`. Returns a handle that can
  /// be passed to `cancel`.
  EventId schedule(SimTime at, Callback cb);

  /// Schedules `cb` at `at` under an earlier-issued sequence number `seq`
  /// (see last_seq()) instead of a fresh one: among events at `at` it fires
  /// as if it had been scheduled when `seq` was issued. This lets a model
  /// move a pending event (cancel, then re-key under the old number) without
  /// changing its tie-break against everything else. Always a heap insert,
  /// since an old key may precede entries in the same-instant lane.
  EventId schedule_at_seq(SimTime at, std::uint64_t seq, Callback cb);

  /// Highest sequence number issued so far (0 before the first schedule):
  /// read right after schedule(), the key that event fires under.
  [[nodiscard]] std::uint64_t last_seq() const { return scheduled_; }

  /// Sequence number of the most recently popped event (0 before the
  /// first pop), or UINT64_MAX after close_instant().
  [[nodiscard]] std::uint64_t current_seq() const { return current_seq_; }
  /// Declares every event up to the current instant fired (the caller ran
  /// the clock past the last pop): current_seq() reads UINT64_MAX, which
  /// orders after any key, until the next pop.
  void close_instant() { current_seq_ = UINT64_MAX; }

  /// Bulk insert: schedules every callback in `cbs` (moving them out) to
  /// fire at the same instant `at`, in span order.
  ///
  /// Contract: the batch is assigned consecutive sequence numbers, so it is
  /// exactly equivalent to calling schedule(at, cb) on each element in
  /// order -- same FIFO tie-break, same pop order, same handles-to-slots
  /// mapping guarantees -- only cheaper. Small batches sift each appended
  /// entry up individually; a batch that rivals the pending set in size
  /// rebuilds the heap bottom-up (Floyd) in O(n) instead. Because the heap
  /// order is the strict total order (time, seq), both restore paths yield
  /// identical pop sequences.
  ///
  /// If `ids` is non-null it must point to `cbs.size()` elements; it
  /// receives the handle of each scheduled event (cancelable as usual).
  /// Returns the number of events scheduled.
  std::size_t schedule_batch(SimTime at, std::span<Callback> cbs,
                             EventId* ids = nullptr);

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or the id was never issued.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest pending event. Must not be called when empty.
  [[nodiscard]] SimTime next_time() const;

  /// Removes and returns the earliest pending event's callback, along with
  /// its firing time. Must not be called when empty.
  struct Fired {
    SimTime time;
    EventId id = kNoEvent;
    Callback callback;
  };
  Fired pop();

  /// Fused next_time()+pop(): pops the earliest pending event into `out`
  /// only if its time is <= `limit`. Returns false (leaving `out` untouched)
  /// when the queue is empty or the earliest event lies beyond the limit.
  /// Equivalent to `!empty() && next_time() <= limit` followed by `pop()`,
  /// but walks the stale-entry lazy-deletion pass once instead of twice.
  bool pop_if_at_most(SimTime limit, Fired& out);

  /// Total events ever scheduled (monotone; includes cancelled ones).
  [[nodiscard]] std::uint64_t scheduled_count() const { return scheduled_; }

  /// High-water mark of the pending set (kernel self-profile: heap depth).
  [[nodiscard]] std::size_t peak_size() const { return peak_live_; }

  /// Destroys all pending events without firing them. Destroying a callback
  /// can release resources that schedule new events; the loop keeps going
  /// until the set is truly empty. Returns the number discarded.
  std::size_t discard_all();

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // global schedule order: the FIFO tie-break
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Slot {
    Callback callback;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kFreeListEnd;
    bool live = false;
  };
  static constexpr std::uint32_t kFreeListEnd = 0xffffffffu;
  /// Slot-pool capacity reserved on first use (~380 KB with the heap array).
  /// One queue serves a whole simulated machine, so this is paid once per
  /// simulation; it covers the pending-set peaks the paper's experiments
  /// reach so the pool never regrows mid-run.
  static constexpr std::size_t kInitialSlots = 4096;

  static constexpr EventId make_id(std::uint32_t slot,
                                   std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) |
           static_cast<EventId>(slot + 1);
  }

  // min-heap order: earliest time first, then lowest sequence number.
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Takes a slot from the free list (or grows the pool) and moves `cb`
  /// into it. Shared by schedule() and schedule_batch().
  std::uint32_t acquire_slot(Callback cb);

  /// Marks the slot dead, bumps its generation (invalidating outstanding
  /// handles and heap entries), and returns it to the free list.
  void retire_slot(std::uint32_t index);

  /// Drops every cancelled entry from the heap and rebuilds it. Pop order is
  /// unchanged: it depends only on the live entries' (time, seq) keys.
  void compact();
  /// Dead heap entries tolerated beyond the live count before cancel()
  /// compacts (amortised O(1) per cancel: a sweep removes more entries
  /// than are live).
  static constexpr std::size_t kCompactSlack = 32;

  // Lazy deletion happens on the read path (next_time is const), so the
  // heap maintenance helpers are const over the mutable heap array.
  void drop_stale_top() const;
  void pop_top() const;
  void sift_up(std::size_t i) const;
  void sift_down(std::size_t i) const;
  /// Rebuilds the heap property over the whole array (bottom-up).
  void heapify() const;

  /// Skips cancelled entries at the front of the same-instant lane; resets
  /// the lane to offset 0 (keeping capacity) once fully drained.
  void drop_stale_fifo() const;
  [[nodiscard]] bool fifo_drained() const {
    return now_head_ == now_fifo_.size();
  }
  /// True when an event at `at` may ride the same-instant lane: the clock
  /// (time of the last pop) has reached `at`, and the lane holds nothing
  /// from a different instant.
  [[nodiscard]] bool fifo_eligible(SimTime at) const {
    return at == current_ && (fifo_drained() || now_fifo_.back().time == at);
  }
  /// Consumes the front lane entry (already known live) as a Fired record.
  Fired pop_fifo_front();

  mutable std::vector<Entry> heap_;
  /// Same-instant lane: entries at the current instant, consumed from
  /// now_head_, appended at the back. Drains completely before the clock
  /// can advance (its entries are, by construction, among the earliest
  /// pending), so a flat vector with a head cursor suffices.
  mutable std::vector<Entry> now_fifo_;
  mutable std::size_t now_head_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kFreeListEnd;
  std::uint64_t scheduled_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
  /// Time of the most recently popped event; the gate for the fast lane.
  /// Starts at zero: nothing can be scheduled before the epoch, so events
  /// scheduled at t=0 before the first pop ride the lane correctly.
  SimTime current_;
  std::uint64_t current_seq_ = 0;  // key of the most recent pop
};

/// Accumulates callbacks destined for one instant so a fan-out site (gang
/// dispatch, multi-grant MMU pump, broadcast admission) can insert them with
/// a single EventQueue::schedule_batch() call. Reusable: clear() keeps the
/// capacity, so a scheduler-owned scratch batch stops allocating once warm.
class EventBatch {
 public:
  void add(EventQueue::Callback cb) { callbacks_.push_back(std::move(cb)); }

  [[nodiscard]] bool empty() const { return callbacks_.empty(); }
  [[nodiscard]] std::size_t size() const { return callbacks_.size(); }
  /// Drops the callbacks (destroying any not yet moved out) but keeps the
  /// vector capacity for reuse.
  void clear() { callbacks_.clear(); }

  /// The accumulated callbacks, in add() order; schedule_batch moves the
  /// elements out, after which clear() must be called before reuse.
  [[nodiscard]] std::span<EventQueue::Callback> callbacks() {
    return callbacks_;
  }

 private:
  std::vector<EventQueue::Callback> callbacks_;
};

}  // namespace tmc::sim
