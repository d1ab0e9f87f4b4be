#include "node/transputer.h"

#include <algorithm>
#include <cassert>
#include <variant>

namespace tmc::node {

std::string_view to_string(ProcessState s) {
  switch (s) {
    case ProcessState::kNew: return "new";
    case ProcessState::kReady: return "ready";
    case ProcessState::kRunning: return "running";
    case ProcessState::kBlockedRecv: return "blocked-recv";
    case ProcessState::kBlockedMem: return "blocked-mem";
    case ProcessState::kSuspended: return "suspended";
    case ProcessState::kDone: return "done";
  }
  return "?";
}

sim::SimTime Process::cpu_time() const {
  return cpu_ == nullptr ? cpu_time_ : cpu_time_ + cpu_->passed_cpu(*this);
}

Transputer::Transputer(sim::Simulation& sim, net::NodeId node, mem::Mmu& mmu,
                       Params params)
    : sim_(sim), node_(node), mmu_(mmu), params_(params) {}

void Transputer::set_timeline(obs::Timeline* timeline, obs::TrackId track) {
  timeline_ = timeline;
  track_ = track;
  if (timeline_ == nullptr) return;
  name_compute_ = timeline_->intern("compute");
  name_context_ = timeline_->intern("ctx-switch");
  name_high_ = timeline_->intern("high-pri");
  name_daemon_ = timeline_->intern("daemon");
  name_quantum_ = timeline_->intern("quantum-expiry");
  name_exit_ = timeline_->intern("exit");
}

void Transputer::record_charge(ChargeKind kind, sim::SimTime start,
                               sim::SimTime dur, double value) {
  if (timeline_ == nullptr || dur.is_zero()) return;
  obs::NameId name = name_compute_;
  switch (kind) {
    case ChargeKind::kOp: name = name_compute_; break;
    case ChargeKind::kContext: name = name_context_; break;
    case ChargeKind::kHigh: name = name_high_; break;
    case ChargeKind::kService: name = name_daemon_; break;
    case ChargeKind::kNone: return;
  }
  timeline_->span(track_, name, start, dur, value);
}

void Transputer::make_ready(Process& p, sim::EventBatch* batch) {
  assert(p.node() == node_ && "process bound to a different node");
  assert(p.state_ != ProcessState::kReady &&
         p.state_ != ProcessState::kRunning &&
         p.state_ != ProcessState::kDone);
  if (!p.gang_active_) {
    // Runnable, but its job's gang turn is over: park until resume().
    p.state_ = ProcessState::kSuspended;
    return;
  }
  p.state_ = ProcessState::kReady;
  p.cpu_ = this;
  low_queue_.push_back(&p);
  lone_changed();
  request_dispatch(batch);
}

void Transputer::suspend(Process& p, sim::EventBatch* batch) {
  p.gang_active_ = false;
  switch (p.state_) {
    case ProcessState::kReady:
      low_queue_.erase_value(&p);
      p.state_ = ProcessState::kSuspended;
      lone_changed();
      return;
    case ProcessState::kRunning: {
      Process& interrupted = interrupt_low_charge();
      assert(&interrupted == &p);
      interrupted.state_ = ProcessState::kSuspended;
      request_dispatch(batch);
      return;
    }
    default:
      // New, blocked, already suspended, or done: the cleared flag makes
      // any future wake park instead of enqueue.
      return;
  }
}

void Transputer::resume(Process& p, sim::EventBatch* batch) {
  p.gang_active_ = true;
  if (p.state_ == ProcessState::kSuspended) make_ready(p, batch);
}

void Transputer::post_high(sim::SimTime cost, sim::UniqueFunction<void()> done,
                           sim::EventBatch* batch) {
  ++high_items_;
  high_queue_.push_back(HighWork{cost, std::move(done)});
  if (charge_kind_ == ChargeKind::kOp || charge_kind_ == ChargeKind::kContext) {
    preempt_low();
  } else if (charge_kind_ == ChargeKind::kService) {
    interrupt_service();
  }
  request_dispatch(batch);
}

void Transputer::post_service(sim::SimTime cost,
                              sim::UniqueFunction<void()> done) {
  ++service_items_;
  service_queue_.push_back(ServiceWork{cost, std::move(done)});
  lone_changed();
  request_dispatch();
}

void Transputer::interrupt_service() {
  assert(charge_kind_ == ChargeKind::kService);
  const bool cancelled = sim_.cancel(charge_event_);
  assert(cancelled);
  (void)cancelled;
  charge_event_ = sim::kNoEvent;
  charge_kind_ = ChargeKind::kNone;
  record_charge(ChargeKind::kService, charge_started_,
                sim_.now() - charge_started_, 0.0);
  consume_service(sim_.now() - charge_started_);
}

void Transputer::consume_service(sim::SimTime amount) {
  service_time_done_ += amount;
  while (!amount.is_zero()) {
    assert(!service_queue_.empty());
    ServiceWork& head = service_queue_.front();
    const sim::SimTime used = std::min(head.remaining, amount);
    head.remaining -= used;
    amount -= used;
    if (head.remaining.is_zero()) {
      ServiceWork finished = std::move(service_queue_.front());
      service_queue_.pop_front();
      if (finished.done) finished.done();
    }
  }
}

void Transputer::deliver(Process& receiver, const net::Message& msg,
                         mem::Block buffer) {
  assert(!receiver.done() && "message for an exited process");
  const int tag = msg.tag;
  receiver.mailbox().deposit(msg, std::move(buffer));
  if (receiver.state_ == ProcessState::kBlockedRecv &&
      (receiver.pending_recv_tag_ == kAnyTag ||
       receiver.pending_recv_tag_ == tag)) {
    make_ready(receiver);
  }
}

void Transputer::request_dispatch(sim::EventBatch* batch) {
  if (pump_scheduled_) return;
  pump_scheduled_ = true;
  auto pump = [this] {
    pump_scheduled_ = false;
    dispatch();
  };
  if (batch != nullptr) {
    batch->add(std::move(pump));
  } else {
    sim_.schedule(sim::SimTime::zero(), std::move(pump));
  }
}

void Transputer::crash() {
  crashed_ = true;
  if (in_switch()) {
    // The per-quantum model would find the crash when the switch completes:
    // the fused charge becomes that plain switch, under its own key.
    sim_.stop_relay(charge_event_);
    fused_ = false;
    charge_kind_ = ChargeKind::kContext;
    charge_started_ -= params_.context_switch;
    charge_amount_ = params_.context_switch;
    return;
  }
  lone_changed();
}

void Transputer::restore() {
  crashed_ = false;
  request_dispatch();
}

void Transputer::force_exit(Process& p) {
  assert(p.node() == node_ && "process bound to a different node");
  switch (p.state_) {
    case ProcessState::kRunning: {
      Process& interrupted = interrupt_low_charge();
      assert(&interrupted == &p);
      (void)interrupted;
      request_dispatch();
      break;
    }
    case ProcessState::kReady:
      low_queue_.erase_value(&p);
      lone_changed();
      break;
    case ProcessState::kBlockedMem:
      // Retract the staged-buffer / allocation request parked in the MMU so
      // its callback never fires into a destroyed process.
      mmu_.cancel_owner(&p);
      break;
    default:
      break;  // new, blocked-recv, suspended, done: nothing queued on the CPU
  }
  if (last_ran_ == &p) last_ran_ = nullptr;
  p.state_ = ProcessState::kDone;
  p.held_.clear();
  p.send_buffer_.release();
  if (p.staged_) {
    p.staged_->buffer.release();
    p.staged_.reset();
  }
  // on_exit_ deliberately NOT fired: the scheduler is unwinding the job.
}

void Transputer::dispatch() {
  if (charge_event_ != sim::kNoEvent) return;  // busy
  if (crashed_) {
    set_busy(false);
    return;  // frozen: nothing starts until restore()
  }
  if (!high_queue_.empty()) {
    current_high_ = std::move(high_queue_.front());
    high_queue_.pop_front();
    plan_charge(ChargeKind::kHigh, current_high_.cost);
    return;
  }
  if (current_ == nullptr) {
    // The comm daemon shares the low-priority domain: it runs when it is
    // its turn (one timeslice per application slice) or when no
    // application process is ready, draining as many queued items as fit.
    if (!service_queue_.empty() && (service_turn_ || low_queue_.empty())) {
      sim::SimTime planned;
      for (std::size_t i = 0; i < service_queue_.size(); ++i) {
        planned += service_queue_[i].remaining;
        if (planned >= params_.daemon_slice) {
          planned = params_.daemon_slice;
          break;
        }
      }
      plan_charge(ChargeKind::kService, planned);
      return;
    }
    if (low_queue_.empty()) {
      set_busy(false);
      return;
    }
    current_ = low_queue_.front();
    low_queue_.pop_front();
    current_->state_ = ProcessState::kRunning;
    ++current_->dispatches_;
    quantum_left_ = current_->quantum();
    if (last_ran_ != current_) {
      last_ran_ = current_;
      ++context_switches_;
      plan_switch(*current_);
      return;
    }
  }
  continue_low();
}

void Transputer::continue_low() {
  assert(current_ != nullptr);
  Process& p = *current_;
  if (crashed_) {
    // The in-flight charge just drained on a crashed CPU: park the process
    // (kReady keeps its op state intact for a restart-free repair) and
    // freeze.
    requeue(p);
    current_ = nullptr;
    set_busy(false);
    return;
  }
  // High-priority work enqueued during op side effects takes the CPU first.
  if (!high_queue_.empty()) {
    requeue(p);
    current_ = nullptr;
    dispatch();
    return;
  }
  if (start_charge(p)) {
    plan_op_charge(p);
    return;
  }
  const Op& op = p.program_.ops[p.pc_];

  if (const auto* send = std::get_if<SendOp>(&op)) {
    // Stage the outgoing mailbox buffer from the local MMU; the process
    // blocks if node memory is exhausted.
    p.state_ = ProcessState::kBlockedMem;
    current_ = nullptr;
    const std::size_t bytes = std::max<std::size_t>(1, send->bytes);
    mmu_.request(
        bytes,
        [this, &p, payload_bytes = send->bytes](mem::Block block) {
          p.send_buffer_ = std::move(block);
          p.phase_ = Process::OpPhase::kCopy;
          p.compute_remaining_ =
              params_.send_setup +
              params_.copy_per_byte * static_cast<std::int64_t>(payload_bytes);
          make_ready(p);
        },
        &p);
    dispatch();
    return;
  }

  if (const auto* recv = std::get_if<ReceiveOp>(&op)) {
    auto delivered = p.mailbox().take(recv->tag);
    if (!delivered) {
      p.state_ = ProcessState::kBlockedRecv;
      p.pending_recv_tag_ = recv->tag;
      current_ = nullptr;
      dispatch();
      return;
    }
    p.phase_ = Process::OpPhase::kCopy;
    p.compute_remaining_ =
        params_.recv_setup +
        params_.copy_per_byte *
            static_cast<std::int64_t>(delivered->message.bytes);
    p.staged_ = std::move(delivered);
    plan_op_charge(p);
    return;
  }

  if (const auto* alloc = std::get_if<AllocOp>(&op)) {
    p.state_ = ProcessState::kBlockedMem;
    current_ = nullptr;
    mmu_.request(
        alloc->bytes,
        [this, &p](mem::Block block) {
          p.held_.push_back(std::move(block));
          p.phase_ = Process::OpPhase::kInit;
          ++p.pc_;
          make_ready(p);
        },
        &p);
    dispatch();
    return;
  }

  assert(std::holds_alternative<ExitOp>(op));
  if (timeline_ != nullptr) {
    timeline_->instant(track_, name_exit_, sim_.now(),
                       static_cast<double>(p.id()));
  }
  p.state_ = ProcessState::kDone;
  p.held_.clear();  // releases job data; may unblock queued MMU requests
  current_ = nullptr;
  last_ran_ = nullptr;  // p may be destroyed by on_exit_
  if (p.on_exit_) p.on_exit_(p);
  dispatch();
}

void Transputer::plan_charge(ChargeKind kind, sim::SimTime amount) {
  assert(charge_event_ == sim::kNoEvent);
  assert(!amount.is_negative());
  charge_kind_ = kind;
  charge_started_ = sim_.now();
  charge_amount_ = amount;
  set_busy(true);
  charge_event_ = sim_.schedule(amount, [this] { on_charge_done(); });
  charge_seq_ = sim_.last_seq();
}

bool Transputer::start_charge(Process& p) {
  assert(p.pc_ < p.program_.ops.size() && "script must end with ExitOp");
  if (p.phase_ == Process::OpPhase::kCopy) return true;
  // Compute and ControlOp charges start straight away (a ControlOp's action
  // runs in complete_op once its cost is fully paid).
  const Op& op = p.program_.ops[p.pc_];
  if (const auto* compute = std::get_if<ComputeOp>(&op)) {
    p.compute_remaining_ = compute->cost;
  } else if (const auto* ctl = std::get_if<ControlOp>(&op)) {
    p.compute_remaining_ = ctl->cost;
  } else {
    return false;
  }
  p.phase_ = Process::OpPhase::kCopy;
  return true;
}

void Transputer::plan_switch(Process& p) {
  // start_charge readies the op's cost at the switch start instead of its
  // end. Nothing reads it in between, and a switch interrupted in the
  // prefix leaves the op started at its full cost, which the next dispatch
  // charges exactly as a fresh start.
  if (params_.context_switch.is_zero() || !start_charge(p)) {
    plan_charge(ChargeKind::kContext, params_.context_switch);
    return;
  }
  charge_kind_ = ChargeKind::kOp;
  charge_started_ = sim_.now() + params_.context_switch;
  charge_amount_ = op_charge(p);
  fused_ = true;
  set_busy(true);
  charge_event_ = sim_.schedule_relay(params_.context_switch, charge_amount_,
                                      [this] { on_charge_done(); });
}

sim::SimTime Transputer::op_charge(const Process& p) const {
  return lone() ? p.compute_remaining_
                : std::min(p.compute_remaining_, quantum_left_);
}

void Transputer::plan_op_charge(Process& p) {
  plan_charge(ChargeKind::kOp, op_charge(p));
}

bool Transputer::in_switch() const {
  return fused_ && sim_.relay_pending(charge_event_);
}

std::uint64_t Transputer::op_key() const {
  return fused_ ? sim_.relay_key(charge_event_) : charge_seq_;
}

void Transputer::close_switch() {
  if (!fused_) return;
  // The relay's second-stage key, while its event is pending (after it
  // fired, nothing reads the key again).
  charge_seq_ = sim_.relay_key(charge_event_);
  fused_ = false;
  record_charge(ChargeKind::kContext,
                charge_started_ - params_.context_switch,
                params_.context_switch, static_cast<double>(current_->id()));
}

sim::SimTime Transputer::boundary(std::uint64_t k) const {
  return charge_started_ + quantum_left_ +
         current_->quantum() * static_cast<std::int64_t>(k);
}

std::uint64_t Transputer::inner_boundaries() const {
  if (charge_amount_ <= quantum_left_) return 0;
  return static_cast<std::uint64_t>(
             (charge_amount_ - quantum_left_).ns() - 1) /
             static_cast<std::uint64_t>(current_->quantum().ns()) +
         1;
}

std::uint64_t Transputer::boundaries_passed() const {
  if (charge_kind_ != ChargeKind::kOp || charge_amount_ <= quantum_left_) {
    return 0;  // no boundary before the charge's end
  }
  const std::int64_t past_first =
      (sim_.now() - charge_started_ - quantum_left_).ns();
  if (past_first < 0) return 0;
  const std::int64_t q = current_->quantum().ns();
  std::uint64_t n = static_cast<std::uint64_t>(past_first / q) + 1;
  // A boundary exactly at now is still ahead of an event keyed before it.
  if (past_first % q == 0 && sim_.firing_seq() < op_key()) --n;
  return std::min(n, inner_boundaries());
}

sim::SimTime Transputer::passed_cpu(const Process& p) const {
  if (current_ != &p) return sim::SimTime::zero();
  const std::uint64_t n = boundaries_passed();
  return n == 0 ? sim::SimTime::zero() : boundary(n - 1) - charge_started_;
}

void Transputer::credit_boundaries(Process& p, std::uint64_t n) {
  if (n == 0) return;
  if (timeline_ != nullptr) {
    sim::SimTime from = charge_started_;
    for (std::uint64_t k = 0; k < n; ++k) {
      const sim::SimTime at = boundary(k);
      record_charge(ChargeKind::kOp, from, at - from,
                    static_cast<double>(p.id()));
      timeline_->instant(track_, name_quantum_, at,
                         static_cast<double>(p.id()));
      from = at;
    }
  }
  const sim::SimTime used = boundary(n - 1) - charge_started_;
  quantum_expiries_ += n;
  p.cpu_time_ += used;
  p.compute_remaining_ -= used;
  charge_started_ += used;
  charge_amount_ -= used;
  quantum_left_ = p.quantum();
  service_turn_ = true;
}

void Transputer::lone_changed() {
  if (charge_kind_ != ChargeKind::kOp) return;
  if (in_switch()) {
    // The per-quantum model sizes the op charge when the switch completes.
    charge_amount_ = op_charge(*current_);
    sim_.retarget_relay(charge_event_, charge_amount_);
    return;
  }
  if (charge_amount_ <= quantum_left_) {
    return;  // already ends at or before its first boundary
  }
  const std::uint64_t n = boundaries_passed();
  if (n >= inner_boundaries()) return;  // ends at or before that boundary
  const sim::SimTime at = boundary(n);
  close_switch();
  const bool cancelled = sim_.cancel(charge_event_);
  assert(cancelled);
  (void)cancelled;
  charge_amount_ = at - charge_started_;
  charge_event_ =
      sim_.schedule_at_seq(at, charge_seq_, [this] { on_charge_done(); });
}

void Transputer::on_charge_done() {
  charge_event_ = sim::kNoEvent;
  const ChargeKind kind = charge_kind_;
  if (kind == ChargeKind::kOp) {
    close_switch();
    credit_boundaries(*current_, inner_boundaries());
  }
  charge_kind_ = ChargeKind::kNone;
  const sim::SimTime amount = charge_amount_;
  if (timeline_ != nullptr) {
    record_charge(kind, charge_started_, amount,
                  kind == ChargeKind::kOp || kind == ChargeKind::kContext
                      ? static_cast<double>(current_->id())
                      : 0.0);
  }

  switch (kind) {
    case ChargeKind::kHigh: {
      auto done = std::move(current_high_.done);
      if (done) done();
      dispatch();
      return;
    }
    case ChargeKind::kContext:
      continue_low();
      return;
    case ChargeKind::kService: {
      consume_service(amount);
      service_turn_ = false;  // applications get the next slice
      dispatch();
      return;
    }
    case ChargeKind::kOp: {
      Process& p = *current_;
      service_turn_ = true;  // the daemon may take a slice at the next gap
      p.cpu_time_ += amount;
      p.compute_remaining_ -= amount;
      quantum_left_ -= amount;
      if (p.compute_remaining_.is_zero()) complete_op(p);
      // A process whose next op is Exit terminates now rather than riding
      // the ready queue for another round: termination is part of the same
      // instruction stream as the final burst.
      if (std::holds_alternative<ExitOp>(p.program_.ops[p.pc_])) {
        continue_low();
        return;
      }
      if (quantum_left_.is_zero()) {
        ++quantum_expiries_;
        if (timeline_ != nullptr) {
          timeline_->instant(track_, name_quantum_, sim_.now(),
                             static_cast<double>(p.id()));
        }
        if (!low_queue_.empty() || !high_queue_.empty() ||
            !service_queue_.empty()) {
          // The T805 puts the expired process at the back of the ready queue.
          requeue(p);
          current_ = nullptr;
          dispatch();
          return;
        }
        quantum_left_ = p.quantum();  // alone on the CPU: keep running
      }
      continue_low();
      return;
    }
    case ChargeKind::kNone:
      assert(false && "charge completion with no charge in flight");
      return;
  }
}

Process& Transputer::interrupt_low_charge() {
  assert(charge_kind_ == ChargeKind::kOp ||
         charge_kind_ == ChargeKind::kContext);
  ChargeKind kind = charge_kind_;
  Process& p = *current_;
  if (in_switch()) {
    // Interrupted inside a fused charge's prefix: that is the switch.
    kind = ChargeKind::kContext;
    charge_started_ -= params_.context_switch;
    fused_ = false;
  } else if (kind == ChargeKind::kOp) {
    close_switch();
    credit_boundaries(p, boundaries_passed());
  }
  const bool cancelled = sim_.cancel(charge_event_);
  assert(cancelled);
  (void)cancelled;
  charge_event_ = sim::kNoEvent;
  charge_kind_ = ChargeKind::kNone;

  ++p.preemptions_;
  record_charge(kind, charge_started_, sim_.now() - charge_started_,
                static_cast<double>(p.id()));
  if (kind == ChargeKind::kOp) {
    const sim::SimTime elapsed = sim_.now() - charge_started_;
    p.cpu_time_ += elapsed;
    p.compute_remaining_ -= elapsed;
    // The unfinished quantum is lost (T805 semantics); no need to track it.
    // A ControlOp is never completed here: its action must not run on the
    // interrupt path (a force_exit-driven abort would otherwise execute
    // application logic mid-teardown). A zero-remaining ControlOp instead
    // completes via a zero-length recharge at its next dispatch.
    if (p.compute_remaining_.is_zero() &&
        !std::holds_alternative<ControlOp>(p.program_.ops[p.pc_])) {
      complete_op(p);
    }
  } else {
    // The interrupted context switch must be paid again later.
    last_ran_ = nullptr;
  }
  current_ = nullptr;
  return p;
}

void Transputer::preempt_low() {
  ++high_preemptions_;
  Process& p = interrupt_low_charge();
  requeue(p);
}

void Transputer::complete_op(Process& p) {
  const Op& op = p.program_.ops[p.pc_];
  if (const auto* send = std::get_if<SendOp>(&op)) {
    assert(send_dispatcher_ && "no send dispatcher installed");
    send_dispatcher_(p, *send, std::move(p.send_buffer_));
  } else if (std::holds_alternative<ReceiveOp>(op)) {
    assert(p.staged_.has_value());
    p.staged_->buffer.release();
    p.staged_.reset();
  } else if (const auto* ctl = std::get_if<ControlOp>(&op)) {
    // Copy the callback first: it appends ops, which may reallocate the
    // vector and invalidate `op`/`ctl`. Advance past the ControlOp before
    // invoking so the action sees a consistent pc and may append the next
    // ops (including an immediate ExitOp).
    auto action = ctl->action;
    p.phase_ = Process::OpPhase::kInit;
    ++p.pc_;
    if (action) action(p);
    assert(p.pc_ < p.program_.ops.size() &&
           "ControlOp action must leave a next op (script ends with ExitOp)");
    return;
  }
  p.phase_ = Process::OpPhase::kInit;
  ++p.pc_;
}

void Transputer::requeue(Process& p) {
  assert(p.state_ != ProcessState::kDone);
  p.state_ = ProcessState::kReady;
  low_queue_.push_back(&p);
}

}  // namespace tmc::node
