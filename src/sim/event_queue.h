// tmcsim -- pending-event set for the discrete-event kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/ring_queue.h"
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
/// Three lanes feed pop(), which compares their fronts under the same
/// strict (time, seq) order, so the lanes change cost, never order:
///
///  * The heap, for everything not below.
///  * The same-instant lane: an event scheduled for exactly the time of the
///    most recently popped event (a zero-delay cascade -- dispatch pumps,
///    bulk-granted memory, gang fan-out) bypasses the heap into a plain
///    FIFO. Every heap entry at that instant was inserted before the clock
///    reached it and so carries a lower sequence number than anything in
///    the lane.
///  * The relay lane (schedule_relay): a relay's first stage, which in the
///    paper's workloads is always a context switch of the machine's one
///    fixed length, so relays arrive already sorted by (time, seq) and a
///    FIFO holds them. A relay that would break that order takes the heap.
///
/// Census (fig3-6 `--with-16h`, 3.16M pops): 61% come off the heap, 14% off
/// the same-instant lane and 26% are relay first stages, none of which fell
/// back to the heap.
///
/// Relays. A relay is one event in two stages: it is scheduled at `at`
/// under a fresh key k1 and fires nothing there. When (at, k1) reaches the
/// front, the queue issues the next sequence number k2 and re-inserts the
/// same slot (same handle) at `at + after`, where its callback then fires.
/// That is exactly what a real intermediate event at (at, k1) would do if
/// its callback scheduled the final one after `after`, so every key in the
/// run matches that two-event schedule; the relay saves the callback, the
/// slot churn and one fired event. pop() hands the first stage back as a
/// Fired record with an empty callback, so the caller sees the same step
/// sequence as with the intermediate event. A relay counts once in
/// scheduled_count().
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

  /// Schedules a relay (see the class comment): its first stage at `at`
  /// under a fresh key, then `cb` fires `after` (>= 0) later under the key
  /// issued when the first stage reaches the front.
  EventId schedule_relay(SimTime at, SimTime after, Callback cb);

  /// Sets the `after` of a relay still in its first stage. Returns false
  /// (changing nothing) for any other handle.
  bool retarget_relay(EventId id, SimTime after);

  /// Turns a relay still in its first stage into a plain event that fires
  /// `cb` at the first stage's time and key. Returns false (changing
  /// nothing) for any other handle.
  bool stop_relay(EventId id);

  /// True while `id` is a relay in its first stage.
  [[nodiscard]] bool relay_pending(EventId id) const;

  /// The key a pending relay's second stage fires under (issued when its
  /// first stage passed). 0 for any other handle, including a relay still
  /// in its first stage, whose key last_seq() gave when it was scheduled.
  [[nodiscard]] std::uint64_t relay_key(EventId id) const;

  /// Highest sequence number issued so far (0 before the first schedule):
  /// read right after schedule() or schedule_relay(), the key that event
  /// (or relay's first stage) fires under.
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
  /// its firing time. Must not be called when empty. A relay's first stage
  /// comes back with an empty callback: the relay is still pending.
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

  /// Total events ever scheduled (monotone; includes cancelled ones). A
  /// relay counts once.
  [[nodiscard]] std::uint64_t scheduled_count() const {
    return scheduled_ - relayed_;
  }

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
  enum class Stage : std::uint8_t { kPlain, kFirst, kSecond };
  struct Slot {
    Callback callback;
    std::uint32_t generation = 0;
    bool live = false;
    Stage stage = Stage::kPlain;  // a relay's stage
    /// One word, three uses, so the slot stays 80 bytes: the next free slot
    /// while free; a relay's `after` (ns) in its first stage, then its
    /// second stage's key.
    std::uint64_t link = kFreeListEnd;
  };
  enum class Lane : std::uint8_t { kHeap, kNow, kRelay };
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

  /// The pending slot `id` names, or null if it fired, was cancelled or was
  /// never issued.
  [[nodiscard]] const Slot* find(EventId id) const;
  [[nodiscard]] Slot* find(EventId id) {
    return const_cast<Slot*>(std::as_const(*this).find(id));
  }

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
  /// Drops cancelled entries at every lane's front and returns the earliest
  /// live entry (null when the queue is empty) and, in `lane`, its lane.
  const Entry* front(Lane& lane) const;
  /// Re-inserts a relay's first stage `e` (just removed) as its second.
  void pass_first_stage(const Entry& e);
  /// Skips cancelled entries at the front of the relay lane.
  void drop_stale_relays() const;

  mutable std::vector<Entry> heap_;
  /// Same-instant lane: entries at the current instant, consumed from
  /// now_head_, appended at the back. Drains completely before the clock
  /// can advance (its entries are, by construction, among the earliest
  /// pending), so a flat vector with a head cursor suffices.
  mutable std::vector<Entry> now_fifo_;
  mutable std::size_t now_head_ = 0;
  /// Relay lane: first stages in (time, seq) order. Relays are pending
  /// throughout a busy run, so it never drains for a reset like the
  /// same-instant lane; a ring reuses its storage instead.
  mutable RingQueue<Entry> relays_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kFreeListEnd;
  std::uint64_t scheduled_ = 0;  // last sequence number issued
  std::uint64_t relayed_ = 0;    // keys issued to relays' second stages
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
