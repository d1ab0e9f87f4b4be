// tmcsim -- the T805 processor model.
//
// The T805 schedules processes in hardware with two priority levels
// (paper section 3.1):
//
//  * High-priority processes run to completion (or until they block) and
//    preempt low-priority work immediately. The preempted low-priority
//    process loses the unfinished part of its quantum and rejoins the back
//    of the ready queue. We use the high queue for the communication
//    system's buffer management and mailbox work, as the paper's
//    implementation does.
//
//  * Low-priority processes time-share round-robin. The hardware quantum is
//    about 2 ms; the time-sharing policies override a process's quantum with
//    the RR-job value Q = (P/T) * q.
//
// The Transputer also interprets the op scripts (node/program.h): compute
// bursts are preemptible CPU charges; sends stage a buffer from the local
// MMU, pay a copy cost and hand off to the network; receives block on the
// mailbox; allocations block on the MMU.
//
// Lone runs and virtual quantum boundaries. A quantum expiry only matters
// when something else could take the CPU. So while the CPU has nothing else
// to run (low, high and service queues empty, not crashed), an op charge --
// compute, send copy, receive copy or ControlOp -- is planned for the op's
// whole remaining cost in ONE event. The quantum boundaries inside it are
// virtual: b_k = start + quantum_left + k * quantum, k >= 0. The moment the
// CPU stops being lone (make_ready, resume, post_service, crash) the charge
// is cut back to end at the next unpassed boundary, exactly where the
// per-quantum model would next look at the queues; interrupts that take the
// CPU at once (post_high, suspend, force_exit) credit every boundary passed.
// Passed boundaries are credited arithmetically -- quantum_expiries, the
// quantum reset, the process's cpu_time, and with a timeline attached the
// per-quantum compute spans and quantum-expiry instants -- so the counters,
// timeline records and simulated behaviour match a CPU that fires one
// event per quantum; mid-burst readers (quantum_expiries(),
// Process::cpu_time()) include the boundaries already passed.
//
// Tie rule. Every virtual boundary of a charge, and the charge's end,
// carries the sequence number of the event that planned the charge; a
// cut-back charge event is re-keyed under it (Simulation::schedule_at_seq).
// So an event firing at exactly a boundary sees that boundary as passed iff
// its own tie-break key is larger (Simulation::firing_seq). For the first
// boundary this is the per-quantum order exactly. For a later boundary j,
// or the end of a charge that spans boundaries, the per-quantum model keyed
// its event at the boundary before instead, so the two differ only for an
// event scheduled between the charge's start and that earlier boundary
// which lands exactly on j: here it fires after j, there before.
//
// Fused context switches. A switch into a process whose next step is a pure
// continuation (a compute or ControlOp, or a send/receive already in its
// copy phase) is not an event of its own: it is the prefix of that op's
// charge, [op start - context_switch, op start). The charge is a kernel
// relay (Simulation::schedule_relay): it takes its key at the switch start,
// and when (op start, that key) reaches the front of the queue the kernel
// issues the next sequence number and moves it to the charge's end -- the
// key the switch's own event would have issued when it planned the op
// charge, so every key in the run is the one-event-per-switch model's. The
// prefix runs while the relay's first stage is pending: now < op start, or
// now == op start for an event keyed below it. Inside it, post_high,
// suspend and force_exit interrupt the switch (it is lost and paid again);
// crash turns the charge back into the plain switch under its key
// (Simulation::stop_relay); and make_ready, post_service and the removal of
// a ready process re-size the op part, whose length depends on lone() at
// the op start. Past the prefix it is an ordinary op charge keyed by the
// relay's second key. Its ctx-switch span is written when the charge closes
// or is cut back, just before its compute spans.
#pragma once

#include <cstdint>
#include <functional>

#include "mem/mmu.h"
#include "node/process.h"
#include "node/program.h"
#include "obs/timeline.h"
#include "sim/ring_queue.h"
#include "sim/simulation.h"
#include "sim/stats.h"
#include "sim/unique_function.h"

namespace tmc::node {

struct TransputerParams {
  /// Cost of switching the CPU between two different low-pri processes.
  sim::SimTime context_switch = sim::SimTime::microseconds(10);
  /// Software overhead to initiate a mailbox send / finalise a receive.
  sim::SimTime send_setup = sim::SimTime::microseconds(50);
  sim::SimTime recv_setup = sim::SimTime::microseconds(50);
  /// On-node memory copy cost per byte (~25 MB/s on the T805).
  sim::SimTime copy_per_byte = sim::SimTime::nanoseconds(40);
  /// CPU slice granted to the comm daemon per turn (the hardware
  /// timeslice); it drains as many queued work items as fit.
  sim::SimTime daemon_slice = sim::SimTime::milliseconds(2);
};

class Transputer {
 public:
  using Params = TransputerParams;

  /// Installed by the communication system: takes the sending process, the
  /// send op, and the staged source buffer, and injects the message.
  using SendDispatcher =
      std::function<void(Process&, const SendOp&, mem::Block)>;

  Transputer(sim::Simulation& sim, net::NodeId node, mem::Mmu& mmu,
             Params params = {});
  Transputer(const Transputer&) = delete;
  Transputer& operator=(const Transputer&) = delete;

  void set_send_dispatcher(SendDispatcher dispatcher) {
    send_dispatcher_ = std::move(dispatcher);
  }

  /// Optional timeline recorder (null = off): every completed or interrupted
  /// CPU charge becomes a span on `track` (compute spans carry the process
  /// id as their value); quantum expirations and process exits (value: the
  /// process id) become instants.
  void set_timeline(obs::Timeline* timeline, obs::TrackId track);

  [[nodiscard]] net::NodeId node() const { return node_; }
  [[nodiscard]] mem::Mmu& mmu() { return mmu_; }
  [[nodiscard]] const Params& params() const { return params_; }

  // --- scheduler interface ----------------------------------------------
  // The entry points below take an optional `batch`: when non-null, the
  // zero-delay dispatch pump they would schedule is appended to it instead,
  // so a partition-wide fan-out (gang dispatch, job admission) commits all
  // its pumps through one Simulation::schedule_batch bulk insert. The
  // pump_scheduled_ dedup still applies, so each CPU contributes at most
  // one pump per batch.

  /// Makes a (new or unblocked) process runnable on this CPU.
  void make_ready(Process& p, sim::EventBatch* batch = nullptr);

  /// Enqueues high-priority work costing `cost` CPU; `done` runs when it
  /// completes. Preempts any running low-priority process immediately.
  void post_high(sim::SimTime cost, sim::UniqueFunction<void()> done,
                 sim::EventBatch* batch = nullptr);

  /// Enqueues system-daemon work (mailbox management, store-and-forward
  /// copying). The daemon is a LOW-priority software process, as in the
  /// paper's implementation: it time-shares the CPU fairly with application
  /// processes instead of preempting them, so heavy message traffic slows
  /// the node's computation and vice versa -- the contention the paper
  /// attributes to its communication system.
  void post_service(sim::SimTime cost, sim::UniqueFunction<void()> done);

  /// Deposits a delivered message into `receiver`'s mailbox and wakes it if
  /// it is blocked on a matching receive. (Called from high-priority work.)
  void deliver(Process& receiver, const net::Message& msg, mem::Block buffer);

  // --- gang scheduling (partition scheduler interface) --------------------
  /// Takes `p` out of circulation for the rest of its job's rotation: a
  /// ready process parks as kSuspended, a running one is preempted off the
  /// CPU, and a blocked one will park instead of waking. Idempotent.
  void suspend(Process& p, sim::EventBatch* batch = nullptr);
  /// Puts `p` back in circulation (enqueues it if it was parked ready).
  void resume(Process& p, sim::EventBatch* batch = nullptr);

  // --- fault injection ----------------------------------------------------
  /// Fail-stop freeze: the CPU stops starting new work. The at-most-one
  /// in-flight charge completes and its side effects apply (the hardware's
  /// pipeline drains); the current process then parks on the ready queue.
  /// Queued work stays queued until restore(). Idempotent.
  void crash();
  /// Clears the crash; dispatching resumes with whatever is still queued.
  void restore();
  /// Scheduler-initiated teardown of `p` (job abort after a failure):
  /// removes the process from every CPU structure -- ready queue, in-flight
  /// charge, blocked MMU request -- releases its buffers and marks it done
  /// WITHOUT firing its exit handler (the scheduler is unwinding the job
  /// itself and must not see a completion).
  void force_exit(Process& p);
  [[nodiscard]] bool crashed() const { return crashed_; }

  // --- observability ------------------------------------------------------
  [[nodiscard]] std::size_t ready_count() const { return low_queue_.size(); }
  [[nodiscard]] bool busy() const { return charge_event_ != sim::kNoEvent; }
  [[nodiscard]] double utilization() const {
    return busy_tracker_.utilization(sim_.now());
  }
  [[nodiscard]] sim::SimTime busy_time() const {
    return busy_tracker_.busy_time(sim_.now());
  }
  [[nodiscard]] std::uint64_t context_switches() const { return context_switches_; }
  /// Includes the virtual boundaries the in-flight charge has passed.
  [[nodiscard]] std::uint64_t quantum_expiries() const {
    return quantum_expiries_ + boundaries_passed();
  }
  [[nodiscard]] std::uint64_t high_preemptions() const { return high_preemptions_; }
  [[nodiscard]] std::uint64_t high_items() const { return high_items_; }
  [[nodiscard]] std::uint64_t service_items() const { return service_items_; }
  [[nodiscard]] sim::SimTime service_time() const { return service_time_done_; }

 private:
  friend class Process;  // Process::cpu_time() reads the in-flight credit

  enum class ChargeKind : std::uint8_t {
    kNone,
    kContext,
    kOp,
    kHigh,
    kService,
  };

  struct HighWork {
    sim::SimTime cost;
    sim::UniqueFunction<void()> done;
  };
  struct ServiceWork {
    sim::SimTime remaining;
    sim::UniqueFunction<void()> done;
  };

  /// Schedules a zero-delay dispatch pump. External entry points (make_ready,
  /// post_high) never run the interpreter inline: this keeps op side effects
  /// (which can re-enter the same CPU, e.g. a self-send's delivery) from
  /// nesting inside an in-flight interpreter step. With `batch` non-null the
  /// pump is appended there for a caller-side bulk insert instead.
  void request_dispatch(sim::EventBatch* batch = nullptr);
  /// Picks the next work item if the CPU is idle.
  void dispatch();
  /// Interprets ops of `current_` until a charge is planned, the process
  /// blocks, or it exits.
  void continue_low();
  /// True when p's next step is a pure CPU charge -- a compute or ControlOp,
  /// or a send/receive already in its copy phase -- whose cost is then
  /// ready in compute_remaining_.
  bool start_charge(Process& p);
  /// Charges the context switch to p: fused with p's op charge when that is
  /// a pure continuation, else as a charge of its own.
  void plan_switch(Process& p);
  /// Schedules the end-of-charge event.
  void plan_charge(ChargeKind kind, sim::SimTime amount);
  /// Length of p's next op charge: the whole remaining cost when the CPU is
  /// lone, else up to the end of the quantum.
  [[nodiscard]] sim::SimTime op_charge(const Process& p) const;
  void plan_op_charge(Process& p);
  /// True while a fused charge's context-switch prefix is running.
  [[nodiscard]] bool in_switch() const;
  /// Tie-break key of the in-flight op charge's boundaries and end.
  [[nodiscard]] std::uint64_t op_key() const;
  /// Past a fused charge's prefix: records the completed switch; the charge
  /// is an ordinary op charge from here on.
  void close_switch();
  void on_charge_done();
  /// True when nothing but current_ could use the CPU.
  [[nodiscard]] bool lone() const {
    return low_queue_.empty() && high_queue_.empty() &&
           service_queue_.empty() && !crashed_;
  }
  /// Time of virtual boundary k of the in-flight op charge.
  [[nodiscard]] sim::SimTime boundary(std::uint64_t k) const;
  /// Virtual quantum boundaries of the in-flight op charge that lie
  /// strictly before its end.
  [[nodiscard]] std::uint64_t inner_boundaries() const;
  /// Inner boundaries already passed at now (tie rule in the file comment).
  [[nodiscard]] std::uint64_t boundaries_passed() const;
  /// CPU time of the passed boundaries not yet added to p.cpu_time_.
  [[nodiscard]] sim::SimTime passed_cpu(const Process& p) const;
  /// Applies the first `n` inner boundaries as the per-quantum model would
  /// have: expiries, timeline records, CPU time, and the quantum reset. The
  /// charge then starts at the last of them.
  void credit_boundaries(Process& p, std::uint64_t n);
  /// lone() may have changed. In a fused charge's prefix, re-sizes the op
  /// part; otherwise a charge that is no longer lone is pulled in to its
  /// next unpassed boundary.
  void lone_changed();
  /// Cancels an in-flight daemon charge, accounting the elapsed work.
  void interrupt_service();
  /// Applies `amount` of completed daemon CPU to the queue head(s),
  /// firing completions as items finish.
  void consume_service(sim::SimTime amount);
  /// Cancels the in-flight low charge and applies the elapsed work to the
  /// current process; leaves current_ cleared and the process off-queue in
  /// kRunning state for the caller to place (requeue or suspend).
  Process& interrupt_low_charge();
  /// Applies `elapsed` of an interrupted op charge, then requeues current_.
  void preempt_low();
  /// Completes the side effects of the op at current_->pc_ and advances.
  void complete_op(Process& p);
  /// Moves p out of the running state into the back of the ready queue.
  void requeue(Process& p);
  void set_busy(bool b) { busy_tracker_.set_busy(sim_.now(), b); }
  /// Records the charge that occupied [start, start+dur) as a span.
  void record_charge(ChargeKind kind, sim::SimTime start, sim::SimTime dur,
                     double value);

  sim::Simulation& sim_;
  net::NodeId node_;
  mem::Mmu& mmu_;
  Params params_;
  SendDispatcher send_dispatcher_;
  obs::Timeline* timeline_ = nullptr;
  obs::TrackId track_ = 0;
  // Pre-interned span/instant names (set_timeline), so recording never
  // hashes a string.
  obs::NameId name_compute_ = 0;
  obs::NameId name_context_ = 0;
  obs::NameId name_high_ = 0;
  obs::NameId name_daemon_ = 0;
  obs::NameId name_quantum_ = 0;
  obs::NameId name_exit_ = 0;

  // Ring-buffer FIFOs: these queues churn on every dispatch, and a deque
  // would pay a block allocation every few dozen pushes forever.
  sim::RingQueue<HighWork> high_queue_;
  sim::RingQueue<Process*> low_queue_;
  sim::RingQueue<ServiceWork> service_queue_;
  /// Alternates the low-priority domain between the comm daemon and the
  /// application processes so neither starves the other.
  bool service_turn_ = false;
  Process* current_ = nullptr;      // low process holding the CPU
  Process* last_ran_ = nullptr;     // for context-switch accounting
  /// Quantum left at charge_started_ (the op charge's first boundary).
  sim::SimTime quantum_left_;
  HighWork current_high_;

  sim::EventId charge_event_ = sim::kNoEvent;
  std::uint64_t charge_seq_ = 0;  // tie-break key of the charge's boundaries
  /// charge_event_ is a relay whose switch prefix is unrecorded; its op
  /// part's key is then read from the kernel (op_key()).
  bool fused_ = false;
  bool pump_scheduled_ = false;
  bool crashed_ = false;
  ChargeKind charge_kind_ = ChargeKind::kNone;
  sim::SimTime charge_started_;
  sim::SimTime charge_amount_;

  sim::BusyTracker busy_tracker_;
  std::uint64_t service_items_ = 0;
  sim::SimTime service_time_done_;
  std::uint64_t context_switches_ = 0;
  std::uint64_t quantum_expiries_ = 0;
  std::uint64_t high_preemptions_ = 0;
  std::uint64_t high_items_ = 0;
};

}  // namespace tmc::node
