// Differential model check of the coalesced CPU model.
//
// node::Transputer charges a lone process's op in one event and treats the
// quantum boundaries inside it as virtual: it cuts the charge back to the
// next boundary when other work arrives, and credits passed boundaries
// arithmetically when an interrupt takes the CPU. The reference CPU below
// is the per-quantum model that contract replaces -- one charge event per
// quantum and a look at the queues at every quantum end -- kept as the
// executable specification. Both run identical random op scripts on
// separate simulations, with the same scheduler, daemon, interrupt and
// fault calls injected at the same instants (many of them on exact
// boundaries, since every time here is a whole number of microseconds).
// Every observable must match exactly: the timed log of sends, deliveries,
// ControlOp actions, exits and high-priority/daemon work completions, the
// counter readings taken at each injection, the final per-process and
// per-CPU accounting, and the CPU's timeline track record for record --
// every charge span (so every op's completion time), quantum-expiry and
// exit instant, including those the coalesced CPU emits arithmetically.
// Constructed ties then put each interrupt kind exactly on a virtual
// boundary, and pin the one documented divergence of the tie rule. The
// reference also charges every context switch as an event of its own, where
// the Transputer fuses it into the charge it leads into; a last group of
// ties puts interrupts inside that switch, on its end, and schedules events
// from inside it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "mem/mmu.h"
#include "node/transputer.h"
#include "obs/timeline.h"
#include "sim/simulation.h"
#include "sim/stats.h"

namespace tmc::node {
namespace {

using sim::SimTime;

// --- scripts -----------------------------------------------------------

enum class Kind { kCompute, kControl, kSend, kRecv, kAlloc };

struct SpecOp {
  Kind kind = Kind::kCompute;
  SimTime cost;           // compute / control
  int dst = 0;            // send: receiving process index
  int tag = 0;            // send tag; receive tag (kAnyTag allowed)
  std::size_t bytes = 0;  // send / alloc
};

struct Spec {
  std::vector<SpecOp> ops;  // an exit follows the last op
  SimTime quantum = SimTime::milliseconds(2);
};

/// One observable step, in the order it happened.
struct Obs {
  SimTime at;
  std::string what;
  int who = 0;
  std::uint64_t value = 0;
  bool operator==(const Obs&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Obs& o) {
  return os << o.at.ns() << "ns " << o.what << " #" << o.who << " = "
            << o.value;
}

using Log = std::vector<Obs>;

/// One CPU timeline record: a charge span or a quantum-expiry instant.
struct TraceRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;  // -1 for an instant
  double value = 0.0;
  bool operator==(const TraceRecord&) const = default;
};

std::ostream& operator<<(std::ostream& os, const TraceRecord& r) {
  return os << r.name << " @" << r.start_ns << "+" << r.dur_ns << " v"
            << r.value;
}

using Trace = std::vector<TraceRecord>;

/// Fixed message latency of the scripted "network": deliveries land a
/// whole number of microseconds after the send completes.
constexpr SimTime kLatency = SimTime::microseconds(300);
constexpr std::size_t kMemory = 64 * 1024;

// --- the reference: per-quantum CPU ------------------------------------

struct RefProcess {
  enum class State { kNew, kReady, kRunning, kBlockedRecv, kBlockedMem,
                     kSuspended, kDone };
  struct Delivered {
    int tag;
    std::size_t bytes;
    mem::Block buffer;
  };

  int id = 0;
  Spec spec;
  std::size_t pc = 0;
  bool started_op = false;  // OpPhase::kCopy
  SimTime remaining;
  mem::Block send_buffer;
  std::optional<Delivered> staged;
  std::vector<mem::Block> held;
  std::deque<Delivered> mailbox;
  int pending_tag = kAnyTag;
  State state = State::kNew;
  bool gang_active = true;
  SimTime cpu_time;
  std::uint64_t dispatches = 0;
  std::uint64_t preemptions = 0;

  [[nodiscard]] bool at_exit() const { return pc == spec.ops.size(); }
  [[nodiscard]] bool done() const { return state == State::kDone; }
};

/// The T805 model as one event per quantum: the pre-coalescing Transputer,
/// op for op, over RefProcess.
class ReferenceCpu {
 public:
  using State = RefProcess::State;

  ReferenceCpu(sim::Simulation& sim, mem::Mmu& mmu, Log& log, Trace& trace)
      : sim_(sim), mmu_(mmu), log_(log), trace_(trace) {}

  std::function<void(RefProcess&, const SpecOp&, mem::Block)> on_send;

  void make_ready(RefProcess& p) {
    if (!p.gang_active) {
      p.state = State::kSuspended;
      return;
    }
    p.state = State::kReady;
    low_.push_back(&p);
    request_dispatch();
  }
  void suspend(RefProcess& p) {
    p.gang_active = false;
    if (p.state == State::kReady) {
      low_.erase(std::find(low_.begin(), low_.end(), &p));
      p.state = State::kSuspended;
    } else if (p.state == State::kRunning) {
      RefProcess& q = interrupt_low();
      q.state = State::kSuspended;
      request_dispatch();
    }
  }
  void resume(RefProcess& p) {
    p.gang_active = true;
    if (p.state == State::kSuspended) make_ready(p);
  }
  void post_high(SimTime cost, std::function<void()> done) {
    ++high_items_;
    high_.push_back({cost, std::move(done)});
    if (kind_ == Charge::kOp || kind_ == Charge::kContext) {
      ++high_preemptions_;
      requeue(interrupt_low());
    } else if (kind_ == Charge::kService) {
      interrupt_service();
    }
    request_dispatch();
  }
  void post_service(SimTime cost, std::function<void()> done) {
    ++service_items_;
    service_.push_back({cost, std::move(done)});
    request_dispatch();
  }
  void deliver(RefProcess& r, int tag, std::size_t bytes, mem::Block b) {
    r.mailbox.push_back({tag, bytes, std::move(b)});
    if (r.state == State::kBlockedRecv &&
        (r.pending_tag == kAnyTag || r.pending_tag == tag)) {
      make_ready(r);
    }
  }
  void crash() { crashed_ = true; }
  void restore() {
    crashed_ = false;
    request_dispatch();
  }
  void force_exit(RefProcess& p) {
    if (p.state == State::kRunning) {
      interrupt_low();
      request_dispatch();
    } else if (p.state == State::kReady) {
      low_.erase(std::find(low_.begin(), low_.end(), &p));
    } else if (p.state == State::kBlockedMem) {
      mmu_.cancel_owner(&p);
    }
    if (last_ran_ == &p) last_ran_ = nullptr;
    p.state = State::kDone;
    p.held.clear();
    p.send_buffer.release();
    p.staged.reset();
  }

  [[nodiscard]] std::uint64_t quantum_expiries() const { return expiries_; }
  [[nodiscard]] std::uint64_t context_switches() const { return switches_; }
  [[nodiscard]] std::uint64_t high_preemptions() const {
    return high_preemptions_;
  }
  [[nodiscard]] std::uint64_t high_items() const { return high_items_; }
  [[nodiscard]] std::uint64_t service_items() const { return service_items_; }
  [[nodiscard]] SimTime service_time() const { return service_done_; }
  [[nodiscard]] SimTime busy_time() const {
    return busy_.busy_time(sim_.now());
  }

 private:
  enum class Charge { kNone, kContext, kOp, kHigh, kService };
  struct Work {
    SimTime cost;
    std::function<void()> done;
  };

  const TransputerParams params_{};

  void request_dispatch() {
    if (pump_) return;
    pump_ = true;
    sim_.schedule(SimTime::zero(), [this] {
      pump_ = false;
      dispatch();
    });
  }

  void dispatch() {
    if (event_ != sim::kNoEvent) return;
    if (crashed_) {
      busy_.set_busy(sim_.now(), false);
      return;
    }
    if (!high_.empty()) {
      current_high_ = std::move(high_.front());
      high_.pop_front();
      plan(Charge::kHigh, current_high_.cost);
      return;
    }
    if (current_ == nullptr) {
      if (!service_.empty() && (service_turn_ || low_.empty())) {
        SimTime planned;
        for (const Work& w : service_) {
          planned += w.cost;
          if (planned >= params_.daemon_slice) {
            planned = params_.daemon_slice;
            break;
          }
        }
        plan(Charge::kService, planned);
        return;
      }
      if (low_.empty()) {
        busy_.set_busy(sim_.now(), false);
        return;
      }
      current_ = low_.front();
      low_.pop_front();
      current_->state = State::kRunning;
      ++current_->dispatches;
      quantum_left_ = current_->spec.quantum;
      if (last_ran_ != current_) {
        last_ran_ = current_;
        ++switches_;
        plan(Charge::kContext, params_.context_switch);
        return;
      }
    }
    continue_low();
  }

  void continue_low() {
    RefProcess& p = *current_;
    if (crashed_) {
      requeue(p);
      current_ = nullptr;
      busy_.set_busy(sim_.now(), false);
      return;
    }
    if (!high_.empty()) {
      requeue(p);
      current_ = nullptr;
      dispatch();
      return;
    }
    if (p.at_exit()) {
      p.state = State::kDone;
      p.held.clear();
      current_ = nullptr;
      last_ran_ = nullptr;
      log_.push_back({sim_.now(), "exit", p.id, 0});
      trace_.push_back({"exit", sim_.now().ns(), -1,
                        static_cast<double>(p.id)});
      dispatch();
      return;
    }
    const SpecOp& op = p.spec.ops[p.pc];
    switch (op.kind) {
      case Kind::kCompute:
      case Kind::kControl:
        if (!p.started_op) {
          p.remaining = op.cost;
          p.started_op = true;
        }
        break;
      case Kind::kSend:
        if (!p.started_op) {
          p.state = State::kBlockedMem;
          current_ = nullptr;
          mmu_.request(
              std::max<std::size_t>(1, op.bytes),
              [this, &p, bytes = op.bytes](mem::Block block) {
                p.send_buffer = std::move(block);
                p.started_op = true;
                p.remaining = params_.send_setup +
                              params_.copy_per_byte *
                                  static_cast<std::int64_t>(bytes);
                make_ready(p);
              },
              &p);
          dispatch();
          return;
        }
        break;
      case Kind::kRecv:
        if (!p.started_op) {
          auto it = std::find_if(
              p.mailbox.begin(), p.mailbox.end(),
              [&](const RefProcess::Delivered& d) {
                return op.tag == kAnyTag || d.tag == op.tag;
              });
          if (it == p.mailbox.end()) {
            p.state = State::kBlockedRecv;
            p.pending_tag = op.tag;
            current_ = nullptr;
            dispatch();
            return;
          }
          p.started_op = true;
          p.remaining = params_.recv_setup +
                        params_.copy_per_byte *
                            static_cast<std::int64_t>(it->bytes);
          p.staged = std::move(*it);
          p.mailbox.erase(it);
        }
        break;
      case Kind::kAlloc:
        p.state = State::kBlockedMem;
        current_ = nullptr;
        mmu_.request(
            op.bytes,
            [this, &p](mem::Block block) {
              p.held.push_back(std::move(block));
              p.started_op = false;
              ++p.pc;
              make_ready(p);
            },
            &p);
        dispatch();
        return;
    }
    plan(Charge::kOp, std::min(p.remaining, quantum_left_));
  }

  /// The timeline records the per-quantum CPU writes, in its order.
  void record(Charge kind, SimTime dur, double value) {
    static const char* const kNames[] = {"", "ctx-switch", "compute",
                                         "high-pri", "daemon"};
    if (kind == Charge::kNone || dur.is_zero()) return;
    trace_.push_back({kNames[static_cast<int>(kind)], started_.ns(),
                      dur.ns(), value});
  }

  void plan(Charge kind, SimTime amount) {
    kind_ = kind;
    started_ = sim_.now();
    amount_ = amount;
    busy_.set_busy(sim_.now(), true);
    event_ = sim_.schedule(amount, [this] { on_done(); });
  }

  void on_done() {
    event_ = sim::kNoEvent;
    const Charge kind = kind_;
    kind_ = Charge::kNone;
    record(kind, amount_,
           kind == Charge::kOp || kind == Charge::kContext ? current_->id
                                                           : 0.0);
    switch (kind) {
      case Charge::kHigh: {
        auto done = std::move(current_high_.done);
        if (done) done();
        dispatch();
        return;
      }
      case Charge::kContext:
        continue_low();
        return;
      case Charge::kService:
        consume_service(amount_);
        service_turn_ = false;
        dispatch();
        return;
      case Charge::kOp: {
        RefProcess& p = *current_;
        service_turn_ = true;
        p.cpu_time += amount_;
        p.remaining -= amount_;
        quantum_left_ -= amount_;
        if (p.remaining.is_zero()) complete_op(p);
        if (p.at_exit()) {
          continue_low();
          return;
        }
        if (quantum_left_.is_zero()) {
          ++expiries_;
          trace_.push_back({"quantum-expiry", sim_.now().ns(), -1,
                            static_cast<double>(p.id)});
          if (!low_.empty() || !high_.empty() || !service_.empty()) {
            requeue(p);
            current_ = nullptr;
            dispatch();
            return;
          }
          quantum_left_ = p.spec.quantum;
        }
        continue_low();
        return;
      }
      case Charge::kNone:
        return;
    }
  }

  void interrupt_service() {
    sim_.cancel(event_);
    event_ = sim::kNoEvent;
    kind_ = Charge::kNone;
    record(Charge::kService, sim_.now() - started_, 0.0);
    consume_service(sim_.now() - started_);
  }

  void consume_service(SimTime amount) {
    service_done_ += amount;
    while (!amount.is_zero()) {
      Work& head = service_.front();
      const SimTime used = std::min(head.cost, amount);
      head.cost -= used;
      amount -= used;
      if (head.cost.is_zero()) {
        Work finished = std::move(service_.front());
        service_.pop_front();
        if (finished.done) finished.done();
      }
    }
  }

  RefProcess& interrupt_low() {
    sim_.cancel(event_);
    event_ = sim::kNoEvent;
    const Charge kind = kind_;
    kind_ = Charge::kNone;
    RefProcess& p = *current_;
    ++p.preemptions;
    record(kind, sim_.now() - started_, p.id);
    if (kind == Charge::kOp) {
      const SimTime elapsed = sim_.now() - started_;
      p.cpu_time += elapsed;
      p.remaining -= elapsed;
      if (p.remaining.is_zero() && p.spec.ops[p.pc].kind != Kind::kControl) {
        complete_op(p);
      }
    } else {
      last_ran_ = nullptr;
    }
    current_ = nullptr;
    return p;
  }

  void complete_op(RefProcess& p) {
    const SpecOp& op = p.spec.ops[p.pc];
    const std::size_t index = p.pc;
    p.started_op = false;
    ++p.pc;
    switch (op.kind) {
      case Kind::kSend:
        on_send(p, op, std::move(p.send_buffer));
        break;
      case Kind::kRecv:
        p.staged.reset();
        break;
      case Kind::kControl:
        log_.push_back({sim_.now(), "op", p.id, index});
        break;
      default:
        break;
    }
  }

  void requeue(RefProcess& p) {
    p.state = State::kReady;
    low_.push_back(&p);
  }

  sim::Simulation& sim_;
  mem::Mmu& mmu_;
  Log& log_;
  Trace& trace_;
  std::deque<Work> high_;
  std::deque<RefProcess*> low_;
  std::deque<Work> service_;
  bool service_turn_ = false;
  RefProcess* current_ = nullptr;
  RefProcess* last_ran_ = nullptr;
  SimTime quantum_left_;
  Work current_high_;
  sim::EventId event_ = sim::kNoEvent;
  bool pump_ = false;
  bool crashed_ = false;
  Charge kind_ = Charge::kNone;
  SimTime started_;
  SimTime amount_;
  sim::BusyTracker busy_;
  SimTime service_done_;
  std::uint64_t switches_ = 0;
  std::uint64_t expiries_ = 0;
  std::uint64_t high_preemptions_ = 0;
  std::uint64_t high_items_ = 0;
  std::uint64_t service_items_ = 0;
};

// --- the two worlds ----------------------------------------------------

/// A call into the CPU at a fixed instant. `scheduled_at` < 0 schedules it
/// up front (before the run); otherwise it is scheduled from an event at
/// that time, so it ties against boundaries as a late-scheduled event.
struct Injection {
  enum class What { kArrive, kSuspend, kResume, kHigh, kService, kCrash,
                    kRestore, kForceExit };
  What what = What::kArrive;
  SimTime at;
  int target = 0;  // process index
  SimTime cost;    // high / service work
  SimTime scheduled_at = SimTime::nanoseconds(-1);
};

struct Scenario {
  std::vector<Spec> processes;
  std::vector<Injection> injections;
};

/// Mid-run readings taken by every injection before it acts.
void log_readings(Log& log, SimTime now, std::uint64_t expiries,
                  const std::vector<SimTime>& cpu_times) {
  log.push_back({now, "expiries", -1, expiries});
  for (std::size_t i = 0; i < cpu_times.size(); ++i) {
    log.push_back({now, "cpu_time", static_cast<int>(i),
                   static_cast<std::uint64_t>(cpu_times[i].ns())});
  }
}

template <typename World>
void schedule_injections(World& w, const Scenario& sc) {
  for (const Injection& inj : sc.injections) {
    auto act = [&w, inj] {
      w.read(inj);
      w.apply(inj);
    };
    if (inj.scheduled_at.is_negative()) {
      w.sim.schedule_at(inj.at, act);
    } else {
      w.sim.schedule_at(inj.scheduled_at, [&w, inj, act] {
        w.sim.schedule_at(inj.at, act);
      });
    }
  }
}

struct Counters {
  std::vector<std::int64_t> cpu_time;
  std::vector<std::uint64_t> preemptions;
  std::vector<std::uint64_t> dispatches;
  std::vector<bool> done;
  std::uint64_t context_switches = 0;
  std::uint64_t quantum_expiries = 0;
  std::uint64_t high_preemptions = 0;
  std::uint64_t high_items = 0;
  std::uint64_t service_items = 0;
  std::int64_t service_time = 0;
  std::int64_t busy_time = 0;
  std::int64_t end = 0;
  bool operator==(const Counters&) const = default;
};

class CoalescedWorld {
 public:
  explicit CoalescedWorld(const Scenario& sc)
      : mmu(sim, kMemory), cpu(sim, 0, mmu) {
    cpu.set_timeline(&timeline, timeline.add_track(obs::TrackKind::kNode,
                                                   "node0"));
    for (std::size_t i = 0; i < sc.processes.size(); ++i) {
      const Spec& spec = sc.processes[i];
      const int id = static_cast<int>(i);
      Program prog;
      for (std::size_t k = 0; k < spec.ops.size(); ++k) {
        const SpecOp& op = spec.ops[k];
        switch (op.kind) {
          case Kind::kCompute: prog.compute(op.cost); break;
          case Kind::kControl:
            prog.control(op.cost, [this, id, k](Process&) {
              log.push_back({sim.now(), "op", id, k});
            });
            break;
          case Kind::kSend:
            prog.send(static_cast<net::EndpointId>(op.dst), op.tag, op.bytes);
            break;
          case Kind::kRecv: prog.receive(op.tag); break;
          case Kind::kAlloc: prog.alloc(op.bytes); break;
        }
      }
      prog.exit();
      auto p = std::make_unique<Process>(static_cast<net::EndpointId>(i), 1,
                                         std::move(prog));
      p->bind_to_node(0);
      p->set_quantum(spec.quantum);
      p->set_on_exit([this, id](Process&) {
        log.push_back({sim.now(), "exit", id, 0});
      });
      procs.push_back(std::move(p));
    }
    cpu.set_send_dispatcher(
        [this](Process& p, const SendOp& op, mem::Block block) {
          log.push_back({sim.now(), "send", static_cast<int>(p.id()),
                         op.bytes});
          Process* dst = procs[op.dst].get();
          const int tag = op.tag;
          const std::size_t bytes = op.bytes;
          sim.schedule(kLatency, [this, dst, tag, bytes,
                                  b = std::move(block)]() mutable {
            if (dst->done()) return;
            log.push_back({sim.now(), "deliver", static_cast<int>(dst->id()),
                           bytes});
            net::Message msg;
            msg.dst_endpoint = dst->id();
            msg.tag = tag;
            msg.bytes = bytes;
            cpu.deliver(*dst, msg, std::move(b));
          });
        });
  }

  void read(const Injection&) {
    std::vector<SimTime> times;
    for (const auto& p : procs) times.push_back(p->cpu_time());
    log_readings(log, sim.now(), cpu.quantum_expiries(), times);
  }

  void apply(const Injection& inj) {
    Process& p = *procs[static_cast<std::size_t>(inj.target)];
    switch (inj.what) {
      case Injection::What::kArrive:
        if (p.state() == ProcessState::kNew) cpu.make_ready(p);
        break;
      case Injection::What::kSuspend: cpu.suspend(p); break;
      case Injection::What::kResume: cpu.resume(p); break;
      case Injection::What::kHigh:
        cpu.post_high(inj.cost, [this, n = high_++] {
          log.push_back({sim.now(), "high", -1, n});
        });
        break;
      case Injection::What::kService:
        cpu.post_service(inj.cost, [this, n = service_++] {
          log.push_back({sim.now(), "service", -1, n});
        });
        break;
      case Injection::What::kCrash: cpu.crash(); break;
      case Injection::What::kRestore: cpu.restore(); break;
      case Injection::What::kForceExit:
        if (!p.done()) cpu.force_exit(p);
        break;
    }
  }

  [[nodiscard]] Counters counters() const {
    Counters c;
    for (const auto& p : procs) {
      c.cpu_time.push_back(p->cpu_time().ns());
      c.preemptions.push_back(p->preemptions());
      c.dispatches.push_back(p->dispatches());
      c.done.push_back(p->done());
    }
    c.context_switches = cpu.context_switches();
    c.quantum_expiries = cpu.quantum_expiries();
    c.high_preemptions = cpu.high_preemptions();
    c.high_items = cpu.high_items();
    c.service_items = cpu.service_items();
    c.service_time = cpu.service_time().ns();
    c.busy_time = cpu.busy_time().ns();
    c.end = sim.now().ns();
    return c;
  }

  [[nodiscard]] Trace trace() const {
    Trace out;
    for (const obs::TimelineRecord& r : timeline.records()) {
      out.push_back({std::string(timeline.name(r.name)), r.start_ns,
                     r.kind == obs::RecordKind::kInstant ? -1 : r.dur_ns,
                     r.value});
    }
    return out;
  }

  obs::Timeline timeline;
  sim::Simulation sim;
  mem::Mmu mmu;
  Transputer cpu;
  std::vector<std::unique_ptr<Process>> procs;
  Log log;

 private:
  std::uint64_t high_ = 0;
  std::uint64_t service_ = 0;
};

class ReferenceWorld {
 public:
  explicit ReferenceWorld(const Scenario& sc)
      : mmu(sim, kMemory), cpu(sim, mmu, log, trace) {
    for (std::size_t i = 0; i < sc.processes.size(); ++i) {
      auto p = std::make_unique<RefProcess>();
      p->id = static_cast<int>(i);
      p->spec = sc.processes[i];
      procs.push_back(std::move(p));
    }
    cpu.on_send = [this](RefProcess& p, const SpecOp& op, mem::Block block) {
      log.push_back({sim.now(), "send", p.id, op.bytes});
      RefProcess* dst = procs[op.dst].get();
      const int tag = op.tag;
      const std::size_t bytes = op.bytes;
      sim.schedule(kLatency, [this, dst, tag, bytes,
                              b = std::move(block)]() mutable {
        if (dst->done()) return;
        log.push_back({sim.now(), "deliver", dst->id, bytes});
        cpu.deliver(*dst, tag, bytes, std::move(b));
      });
    };
  }

  void read(const Injection&) {
    std::vector<SimTime> times;
    for (const auto& p : procs) times.push_back(p->cpu_time);
    log_readings(log, sim.now(), cpu.quantum_expiries(), times);
  }

  void apply(const Injection& inj) {
    RefProcess& p = *procs[static_cast<std::size_t>(inj.target)];
    switch (inj.what) {
      case Injection::What::kArrive:
        if (p.state == RefProcess::State::kNew) cpu.make_ready(p);
        break;
      case Injection::What::kSuspend: cpu.suspend(p); break;
      case Injection::What::kResume: cpu.resume(p); break;
      case Injection::What::kHigh:
        cpu.post_high(inj.cost, [this, n = high_++] {
          log.push_back({sim.now(), "high", -1, n});
        });
        break;
      case Injection::What::kService:
        cpu.post_service(inj.cost, [this, n = service_++] {
          log.push_back({sim.now(), "service", -1, n});
        });
        break;
      case Injection::What::kCrash: cpu.crash(); break;
      case Injection::What::kRestore: cpu.restore(); break;
      case Injection::What::kForceExit:
        if (!p.done()) cpu.force_exit(p);
        break;
    }
  }

  [[nodiscard]] Counters counters() const {
    Counters c;
    for (const auto& p : procs) {
      c.cpu_time.push_back(p->cpu_time.ns());
      c.preemptions.push_back(p->preemptions);
      c.dispatches.push_back(p->dispatches);
      c.done.push_back(p->done());
    }
    c.context_switches = cpu.context_switches();
    c.quantum_expiries = cpu.quantum_expiries();
    c.high_preemptions = cpu.high_preemptions();
    c.high_items = cpu.high_items();
    c.service_items = cpu.service_items();
    c.service_time = cpu.service_time().ns();
    c.busy_time = cpu.busy_time().ns();
    c.end = sim.now().ns();
    return c;
  }

  Log log;  // declared before the CPU that appends to them
  Trace trace;
  sim::Simulation sim;
  mem::Mmu mmu;
  ReferenceCpu cpu;
  std::vector<std::unique_ptr<RefProcess>> procs;

 private:
  std::uint64_t high_ = 0;
  std::uint64_t service_ = 0;
};

struct Outcome {
  Log log;
  Trace trace;
  Counters counters;
  std::uint64_t fired = 0;
};

Trace trace_of(const CoalescedWorld& w) { return w.trace(); }
Trace trace_of(const ReferenceWorld& w) { return w.trace; }

template <typename World>
Outcome run_world(const Scenario& sc) {
  World w(sc);
  schedule_injections(w, sc);
  w.sim.run();
  return Outcome{std::move(w.log), trace_of(w), w.counters(),
                 w.sim.fired_events()};
}

void expect_same(const Scenario& sc, const std::string& label) {
  const Outcome ref = run_world<ReferenceWorld>(sc);
  const Outcome got = run_world<CoalescedWorld>(sc);
  SCOPED_TRACE(label);
  const std::size_t n = std::min(ref.log.size(), got.log.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(ref.log[i], got.log[i]) << "first divergence at step " << i;
  }
  ASSERT_EQ(ref.log.size(), got.log.size());
  EXPECT_EQ(ref.counters, got.counters);
  // The CPU's timeline track: the same records in the same order.
  const std::size_t m = std::min(ref.trace.size(), got.trace.size());
  for (std::size_t i = 0; i < m; ++i) {
    ASSERT_EQ(ref.trace[i], got.trace[i]) << "first divergence at record " << i;
  }
  ASSERT_EQ(ref.trace.size(), got.trace.size());
}

// --- random scenarios --------------------------------------------------

SimTime us(std::int64_t n) { return SimTime::microseconds(n); }

Scenario random_scenario(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  Scenario sc;
  const int nprocs = static_cast<int>(pick(1, 4));
  const std::int64_t quanta_us[] = {500, 1000, 2000, 3000};
  for (int i = 0; i < nprocs; ++i) {
    Spec spec;
    spec.quantum = us(quanta_us[pick(0, 3)]);
    const int nops = static_cast<int>(pick(1, 8));
    for (int k = 0; k < nops; ++k) {
      SpecOp op;
      switch (pick(0, 9)) {
        case 0: case 1: case 2: case 3:
          op.kind = Kind::kCompute;
          // Whole quanta sometimes, so op ends land on boundaries too.
          op.cost = pick(0, 2) == 0
                        ? spec.quantum * pick(1, 6)
                        : us(pick(0, 12000));
          break;
        case 4: case 5:
          op.kind = Kind::kControl;
          op.cost = pick(0, 3) == 0 ? us(0) : us(pick(1, 6000));
          break;
        case 6: case 7:
          op.kind = Kind::kSend;
          op.dst = static_cast<int>(pick(0, nprocs - 1));
          op.tag = static_cast<int>(pick(0, 2));
          // 25 bytes copy in 1 us at 40 ns/byte: whole-microsecond costs.
          op.bytes = static_cast<std::size_t>(25 * pick(0, 2000));
          break;
        case 8:
          op.kind = Kind::kRecv;
          op.tag = pick(0, 1) == 0 ? kAnyTag : static_cast<int>(pick(0, 2));
          break;
        default:
          op.kind = Kind::kAlloc;
          op.bytes = static_cast<std::size_t>(pick(1, 24) * 1024);
          break;
      }
      spec.ops.push_back(op);
    }
    sc.processes.push_back(std::move(spec));
  }
  using W = Injection::What;
  auto add = [&](W what, SimTime at, int target, SimTime cost) {
    Injection inj;
    inj.what = what;
    inj.at = at;
    inj.target = target;
    inj.cost = cost;
    // Half of the calls are scheduled late, from an event 0-3 ms earlier,
    // so they tie against boundaries as freshly keyed events.
    if (pick(0, 1) == 0) {
      inj.scheduled_at =
          std::max(SimTime::zero(), at - us(pick(0, 3000)));
    }
    sc.injections.push_back(inj);
  };
  for (int i = 0; i < nprocs; ++i) {
    add(W::kArrive, pick(0, 2) == 0 ? us(0) : us(pick(0, 20000)), i, {});
  }
  const int ninj = static_cast<int>(pick(0, 12));
  const SimTime horizon = us(60000);
  for (int k = 0; k < ninj; ++k) {
    const SimTime at = us(pick(0, horizon.ns() / 1000));
    const int target = static_cast<int>(pick(0, nprocs - 1));
    switch (pick(0, 7)) {
      case 0: add(W::kHigh, at, target, us(pick(1, 800))); break;
      case 1: add(W::kService, at, target, us(pick(1, 3000))); break;
      case 2:
        add(W::kSuspend, at, target, {});
        add(W::kResume, at + us(pick(0, 8000)), target, {});
        break;
      case 3:
        add(W::kCrash, at, target, {});
        add(W::kRestore, at + us(pick(0, 8000)), target, {});
        break;
      case 4:
        if (pick(0, 2) == 0) add(W::kForceExit, at, target, {});
        break;
      case 5: add(W::kResume, at, target, {}); break;
      default: add(W::kArrive, at, target, {}); break;
    }
  }
  return sc;
}

TEST(CpuCoalesceModel, RandomScriptsWithInjectionsMatchPerQuantumReference) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    expect_same(random_scenario(seed), "seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
}

TEST(CpuCoalesceModel, CoalescingFiresFewerEventsOnLoneWork) {
  // The point of the exercise: a lone long burst is one charge event.
  Scenario sc;
  Spec spec;
  spec.ops.push_back({Kind::kCompute, SimTime::milliseconds(100)});
  sc.processes.push_back(spec);
  sc.injections.push_back({Injection::What::kArrive, us(0), 0, {}});
  const Outcome ref = run_world<ReferenceWorld>(sc);
  const Outcome got = run_world<CoalescedWorld>(sc);
  EXPECT_EQ(ref.counters, got.counters);
  EXPECT_EQ(got.counters.quantum_expiries, 49u);  // 50 quanta, last exits
  EXPECT_LT(got.fired + 45, ref.fired);
}

// --- constructed ties --------------------------------------------------
//
// One process computes 10 ms with a 2 ms quantum, alone from t = 0: the
// charge starts after the 10 us context switch, so its virtual boundaries
// are b_j = 10 us + (j + 1) * 2 ms. Each interrupt kind lands exactly on
// b_0 and on b_2, scheduled either up front (before the charge: it fires
// before the boundary in both models) or from an event after the previous
// boundary (after it in both). A second process makes make_ready/resume
// meaningful; it arrives only through the injection.

constexpr SimTime kStart = SimTime::microseconds(10);
constexpr SimTime kQ = SimTime::milliseconds(2);

SimTime boundary(int j) { return kStart + kQ * (j + 1); }

/// `what` lands exactly at `at`, scheduled up front (scheduled_at < 0) or
/// from an event at `scheduled_at`.
Scenario tie_scenario_at(Injection::What what, SimTime at,
                         SimTime scheduled_at) {
  Scenario sc;
  Spec lone;
  lone.ops.push_back({Kind::kCompute, SimTime::milliseconds(10)});
  Spec other;
  other.ops.push_back({Kind::kCompute, SimTime::milliseconds(3)});
  sc.processes = {lone, other};
  sc.injections.push_back({Injection::What::kArrive, us(0), 0, {}});
  using W = Injection::What;
  Injection inj{what, at,
                what == W::kSuspend || what == W::kForceExit ? 0 : 1,
                us(300), scheduled_at};
  if (what == W::kResume) {
    // Park the other process first so resume has something to enqueue.
    sc.injections.push_back({W::kSuspend, us(0), 1, {}});
    sc.injections.push_back({W::kArrive, us(0), 1, {}});
  }
  sc.injections.push_back(inj);
  if (what == W::kCrash) {
    sc.injections.push_back({W::kRestore, at + us(700), 0, {}});
  }
  if (what == W::kSuspend) {
    sc.injections.push_back({W::kResume, at + us(700), 0, {}});
  }
  return sc;
}

Scenario tie_scenario(Injection::What what, int j, SimTime scheduled_at) {
  return tie_scenario_at(what, boundary(j), scheduled_at);
}

const Injection::What kTieKinds[] = {
    Injection::What::kArrive,  Injection::What::kResume,
    Injection::What::kService, Injection::What::kCrash,
    Injection::What::kHigh,    Injection::What::kSuspend,
    Injection::What::kForceExit,
};

TEST(CpuCoalesceModel, InterruptsExactlyOnBoundaryZeroMatchReference) {
  for (const auto what : kTieKinds) {
    const std::string kind = std::to_string(static_cast<int>(what));
    // Up front: keyed before the charge, so it precedes b_0.
    expect_same(tie_scenario(what, 0, SimTime::nanoseconds(-1)),
                "kind " + kind + " before b0");
    // From an event inside the first quantum: keyed after the charge.
    expect_same(tie_scenario(what, 0, SimTime::milliseconds(1)),
                "kind " + kind + " after b0");
  }
}

TEST(CpuCoalesceModel, InterruptsExactlyOnLaterBoundaryMatchReference) {
  for (const auto what : kTieKinds) {
    const std::string kind = std::to_string(static_cast<int>(what));
    expect_same(tie_scenario(what, 2, SimTime::nanoseconds(-1)),
                "kind " + kind + " before b2");
    // Scheduled after b_1: the per-quantum model keyed its b_2 event at
    // b_1, so the injection follows the boundary there as here.
    expect_same(tie_scenario(what, 2, boundary(1) + us(1)),
                "kind " + kind + " after b2");
  }
}

TEST(CpuCoalesceModel, CutBackChargeKeepsItsTieBreakKey) {
  // A high-priority post lands exactly on b_1, scheduled from inside the
  // second quantum; a rival then arrives mid-quantum and the lone charge is
  // cut back to b_1. The per-quantum model keyed its b_1 event at b_0,
  // before the post was scheduled, so the quantum expires first and the
  // post then finds the CPU between charges. The cut-back event must keep
  // the charge's key to reproduce that.
  using W = Injection::What;
  Scenario sc = tie_scenario(W::kHigh, 1, boundary(0) + us(500));
  sc.injections.push_back({W::kArrive, boundary(0) + us(1000), 1, {}});
  expect_same(sc, "high on b1, cut back at b0+1ms");
}

TEST(CpuCoalesceModel, ServiceTurnSurvivesCreditedBoundaries) {
  // The daemon runs first and leaves the next low slice to applications.
  // The lone process then passes b_0 before high-priority work takes the
  // CPU and more daemon work arrives: having finished a quantum, the
  // process has used its slice, so the daemon goes next -- in both models.
  using W = Injection::What;
  Scenario sc;
  Spec lone;
  lone.ops.push_back({Kind::kCompute, SimTime::milliseconds(10)});
  sc.processes = {lone};
  sc.injections.push_back({W::kService, us(0), 0, us(1000)});
  sc.injections.push_back({W::kArrive, us(500), 0, {}});
  sc.injections.push_back({W::kHigh, us(4000), 0, us(300)});
  sc.injections.push_back({W::kService, us(4000), 0, us(500)});
  expect_same(sc, "daemon turn after credited boundary");
}

TEST(CpuCoalesceModel, TieRuleDivergenceIsPinned) {
  // The one case the tie rule does not reproduce: an event scheduled
  // between the charge's start and b_1 that lands exactly on b_2. The
  // per-quantum model keyed its b_2 event at b_1, after this event, so the
  // interrupt preempted before the boundary (2 expiries). Here every
  // boundary carries the charge's own key, older than the event's, so b_2
  // counts as passed first (3 expiries). Nothing else differs: the process
  // was charged exactly up to b_2 either way.
  const Scenario sc =
      tie_scenario(Injection::What::kHigh, 2, SimTime::milliseconds(1));
  const Outcome ref = run_world<ReferenceWorld>(sc);
  const Outcome got = run_world<CoalescedWorld>(sc);
  // One more expiry follows in both: the last 4 ms run alone after the
  // high-priority work, and the final boundary is the op's exit.
  EXPECT_EQ(ref.counters.quantum_expiries, 2u + 1u);
  EXPECT_EQ(got.counters.quantum_expiries, 3u + 1u);
  Counters same = got.counters;
  same.quantum_expiries = ref.counters.quantum_expiries;
  EXPECT_EQ(same, ref.counters);
}

// --- the fused context switch -------------------------------------------
//
// The switch into the lone process runs over [0, kStart) as the prefix of
// its first op charge, which the kernel holds as a relay: nothing fires at
// kStart, where the reference fires its switch event and plans the op
// charge under a fresh key. Interrupts inside that window, exactly on its
// end, and events scheduled from inside it must see what the reference's
// separate switch event shows them.

TEST(CpuCoalesceModel, InterruptsInsideTheSwitchMatchReference) {
  for (const auto what : kTieKinds) {
    const std::string kind = std::to_string(static_cast<int>(what));
    expect_same(tie_scenario_at(what, us(4), SimTime::nanoseconds(-1)),
                "kind " + kind + " mid-switch, up front");
    expect_same(tie_scenario_at(what, us(6), us(2)),
                "kind " + kind + " mid-switch, from inside it");
  }
}

TEST(CpuCoalesceModel, InterruptsExactlyOnTheOpStartMatchReference) {
  for (const auto what : kTieKinds) {
    const std::string kind = std::to_string(static_cast<int>(what));
    // Keyed before the switch (scheduled before the dispatch that planned
    // it): it finds the switch still running.
    expect_same(tie_scenario_at(what, kStart, SimTime::nanoseconds(-1)),
                "kind " + kind + " on the op start, keyed before");
    // Keyed after it (scheduled from inside the switch): the switch is
    // over and the op charge has just started.
    expect_same(tie_scenario_at(what, kStart, us(5)),
                "kind " + kind + " on the op start, keyed after");
  }
}

TEST(CpuCoalesceModel, EventsScheduledInsideTheSwitchTieLikeReference) {
  // Scheduled inside the switch, so keyed below the op charge, whose key is
  // issued only when the switch completes: the event precedes the first
  // boundary and the end of the charge in both models. Keying the fused
  // charge at the switch start instead would put both ahead of it.
  const SimTime end = kStart + SimTime::milliseconds(10);
  for (const auto what : kTieKinds) {
    const std::string kind = std::to_string(static_cast<int>(what));
    expect_same(tie_scenario_at(what, boundary(0), us(5)),
                "kind " + kind + " from the switch onto b0");
    expect_same(tie_scenario_at(what, end, us(5)),
                "kind " + kind + " from the switch onto the charge end");
  }
}

TEST(CpuCoalesceModel, CrashInsideTheSwitchThenRestoreMatchesReference) {
  using W = Injection::What;
  // Restored after the switch would have ended: the switch completes on
  // the frozen CPU and the process parks until the restore.
  expect_same(tie_scenario_at(W::kCrash, us(3), SimTime::nanoseconds(-1)),
              "crash mid-switch, restore after it");
  // Restored inside the switch: the op charge follows it as usual.
  Scenario sc;
  Spec lone;
  lone.ops.push_back({Kind::kCompute, SimTime::milliseconds(10)});
  sc.processes = {lone};
  sc.injections.push_back({W::kArrive, us(0), 0, {}});
  sc.injections.push_back({W::kCrash, us(3), 0, {}});
  sc.injections.push_back({W::kRestore, us(7), 0, {}, us(1)});
  expect_same(sc, "crash and restore mid-switch");
  // Crashed on the op start, keyed before the switch: it still finds the
  // switch running.
  sc.injections[1].at = kStart;
  sc.injections[2].at = kStart + us(200);
  expect_same(sc, "crash on the op start, keyed before");
}

TEST(CpuCoalesceModel, TimeSharedQuantaFireOneEventEach) {
  // Two compute-bound processes alternate quanta: every quantum starts with
  // a context switch, fused into its charge here, an event of its own in
  // the reference.
  Scenario sc;
  Spec spec;
  spec.ops.push_back({Kind::kCompute, SimTime::milliseconds(20)});
  sc.processes = {spec, spec};
  sc.injections.push_back({Injection::What::kArrive, us(0), 0, {}});
  sc.injections.push_back({Injection::What::kArrive, us(0), 1, {}});
  const Outcome ref = run_world<ReferenceWorld>(sc);
  const Outcome got = run_world<CoalescedWorld>(sc);
  EXPECT_EQ(ref.counters, got.counters);
  EXPECT_EQ(got.counters.context_switches, 20u);  // 10 quanta each
  EXPECT_EQ(ref.fired - got.fired, 20u);
}

}  // namespace
}  // namespace tmc::node
