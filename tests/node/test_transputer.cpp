#include "node/transputer.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/mmu.h"
#include "sim/simulation.h"

namespace tmc::node {
namespace {

using sim::SimTime;

/// One CPU with 64 KB of memory and round parameters:
/// context switch 10 us, send/recv setup 50 us, copy 40 ns/byte,
/// default process quantum 2 ms.
class TransputerTest : public ::testing::Test {
 protected:
  TransputerTest() : mmu(sim, 64 * 1024), cpu(sim, 0, mmu) {}

  std::unique_ptr<Process> make_process(net::EndpointId id, Program prog) {
    auto p = std::make_unique<Process>(id, 1, std::move(prog));
    p->bind_to_node(0);
    p->set_on_exit([this](Process& self) { exit_times.emplace_back(self.id(), sim.now()); });
    return p;
  }

  SimTime exit_time(net::EndpointId id) const {
    for (const auto& [pid, t] : exit_times) {
      if (pid == id) return t;
    }
    ADD_FAILURE() << "process " << id << " did not exit";
    return SimTime::max();
  }

  sim::Simulation sim;
  mem::Mmu mmu;
  Transputer cpu;
  std::vector<std::pair<net::EndpointId, SimTime>> exit_times;
};

constexpr auto kCtx = SimTime::microseconds(10);

TEST_F(TransputerTest, ComputeRunsForExactCost) {
  Program prog;
  prog.compute(SimTime::milliseconds(5)).exit();
  auto p = make_process(1, std::move(prog));
  cpu.make_ready(*p);
  sim.run();
  EXPECT_TRUE(p->done());
  EXPECT_EQ(exit_time(1), kCtx + SimTime::milliseconds(5));
  EXPECT_EQ(p->cpu_time(), SimTime::milliseconds(5));
}

TEST_F(TransputerTest, SequentialJobsPayContextSwitchEach) {
  Program a, b;
  a.compute(SimTime::milliseconds(1)).exit();
  b.compute(SimTime::milliseconds(1)).exit();
  auto pa = make_process(1, std::move(a));
  auto pb = make_process(2, std::move(b));
  cpu.make_ready(*pa);
  cpu.make_ready(*pb);
  sim.run();
  EXPECT_EQ(exit_time(1), kCtx + SimTime::milliseconds(1));
  EXPECT_EQ(exit_time(2), 2 * kCtx + SimTime::milliseconds(2));
  EXPECT_EQ(cpu.context_switches(), 2u);
}

TEST_F(TransputerTest, RoundRobinInterleavesEqualProcesses) {
  Program a, b;
  a.compute(SimTime::milliseconds(4)).exit();
  b.compute(SimTime::milliseconds(4)).exit();
  auto pa = make_process(1, std::move(a));
  auto pb = make_process(2, std::move(b));
  cpu.make_ready(*pa);
  cpu.make_ready(*pb);
  sim.run();
  // Time-shared with 2 ms quanta: A at ~6 ms, B at ~8 ms -- not serial
  // (A at 4 ms) and in submission order.
  EXPECT_GT(exit_time(1), SimTime::milliseconds(6));
  EXPECT_LT(exit_time(1), SimTime::milliseconds(7));
  EXPECT_GT(exit_time(2), SimTime::milliseconds(8));
  EXPECT_LT(exit_time(2), SimTime::milliseconds(9));
  // A's and B's first quanta expire; their second quanta end in Exit.
  EXPECT_EQ(cpu.quantum_expiries(), 2u);
}

TEST_F(TransputerTest, LargerQuantumWinsMoreCpuShare) {
  Program a, b;
  a.compute(SimTime::milliseconds(8)).exit();
  b.compute(SimTime::milliseconds(8)).exit();
  auto pa = make_process(1, std::move(a));
  auto pb = make_process(2, std::move(b));
  pa->set_quantum(SimTime::milliseconds(6));
  pb->set_quantum(SimTime::milliseconds(2));
  cpu.make_ready(*pa);
  cpu.make_ready(*pb);
  sim.run();
  // A: 6 ms, B: 2 ms, A: 2 ms (done ~10 ms), then B runs out its 6 ms.
  EXPECT_LT(exit_time(1), exit_time(2));
}

TEST_F(TransputerTest, AloneOnCpuQuantumRenewsWithoutRequeue) {
  Program prog;
  prog.compute(SimTime::milliseconds(10)).exit();
  auto p = make_process(1, std::move(prog));
  cpu.make_ready(*p);
  sim.run();
  EXPECT_EQ(exit_time(1), kCtx + SimTime::milliseconds(10));
  // No other process: expiries happen but only one context switch. Five
  // quanta, the last of which ends in Exit.
  EXPECT_EQ(cpu.context_switches(), 1u);
  EXPECT_EQ(cpu.quantum_expiries(), 4u);
}

TEST_F(TransputerTest, LoneBurstIsOneChargeEvent) {
  Program prog;
  prog.compute(SimTime::milliseconds(10)).exit();
  auto p = make_process(1, std::move(prog));
  cpu.make_ready(*p);
  sim.run_until(kCtx);  // dispatch pump and context switch; burst planned
  const std::uint64_t before = sim.fired_events();
  sim.run();
  // The five quanta are one charge event; their expiries are still counted.
  EXPECT_EQ(sim.fired_events() - before, 1u);
  EXPECT_EQ(exit_time(1), kCtx + SimTime::milliseconds(10));
  EXPECT_EQ(cpu.quantum_expiries(), 4u);
  EXPECT_EQ(p->cpu_time(), SimTime::milliseconds(10));
}

TEST_F(TransputerTest, MidBurstReadersSeePassedBoundaries) {
  // A lone 10 ms burst from kCtx with 2 ms quanta: boundaries at
  // kCtx + 2, 4, 6, 8 ms. Readers see the quanta completed so far, as a CPU
  // firing one event per quantum would report them.
  Program prog;
  prog.compute(SimTime::milliseconds(10)).exit();
  auto p = make_process(1, std::move(prog));
  cpu.make_ready(*p);
  struct Reading {
    std::uint64_t expiries;
    SimTime cpu;
  };
  std::vector<Reading> got;
  const auto ms = [](std::int64_t n) { return SimTime::milliseconds(n); };
  const std::vector<SimTime> at = {
      ms(1),                                // inside the first quantum
      kCtx + ms(2),                         // on b_0, scheduled before it
      ms(3),                                // one quantum done
      kCtx + ms(4) + SimTime::nanoseconds(1),
      ms(9),                                // four quanta done
  };
  for (const SimTime t : at) {
    sim.schedule_at(t, [&] { got.push_back({cpu.quantum_expiries(), p->cpu_time()}); });
  }
  sim.run();
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].expiries, 0u);
  EXPECT_EQ(got[0].cpu, SimTime::zero());
  // Keyed before the charge, this reader fires ahead of the boundary.
  EXPECT_EQ(got[1].expiries, 0u);
  EXPECT_EQ(got[1].cpu, SimTime::zero());
  EXPECT_EQ(got[2].expiries, 1u);
  EXPECT_EQ(got[2].cpu, ms(2));
  EXPECT_EQ(got[3].expiries, 2u);
  EXPECT_EQ(got[3].cpu, ms(4));
  EXPECT_EQ(got[4].expiries, 4u);
  EXPECT_EQ(got[4].cpu, ms(8));
  EXPECT_EQ(p->cpu_time(), ms(10));
}

TEST_F(TransputerTest, ReadersAfterRunUntilABoundaryCountIt) {
  // run_until(t) fires every event at t, so a boundary at exactly t has
  // passed when the caller reads.
  Program prog;
  prog.compute(SimTime::milliseconds(10)).exit();
  auto p = make_process(1, std::move(prog));
  cpu.make_ready(*p);
  sim.run_until(kCtx + SimTime::milliseconds(4));
  EXPECT_EQ(cpu.quantum_expiries(), 2u);
  EXPECT_EQ(p->cpu_time(), SimTime::milliseconds(4));
  EXPECT_TRUE(cpu.busy());
  // An interrupt now finds the process exactly at a quantum start.
  cpu.post_high(SimTime::microseconds(100), [] {});
  sim.run();
  EXPECT_EQ(exit_time(1), kCtx + SimTime::milliseconds(10) +
                              SimTime::microseconds(100));
  EXPECT_EQ(p->preemptions(), 1u);
  EXPECT_EQ(p->cpu_time(), SimTime::milliseconds(10));
}

TEST(ProcessDeathTest, SetQuantumOnRunningProcessAsserts) {
#ifndef NDEBUG
  sim::Simulation sim;
  mem::Mmu mmu(sim, 1024);
  Transputer cpu(sim, 0, mmu);
  Program prog;
  prog.compute(SimTime::milliseconds(10)).exit();
  Process p(1, 1, std::move(prog));
  p.bind_to_node(0);
  cpu.make_ready(p);
  sim.run_until(SimTime::milliseconds(1));
  ASSERT_EQ(p.state(), ProcessState::kRunning);
  EXPECT_DEATH(p.set_quantum(SimTime::milliseconds(1)), "running process");
#else
  GTEST_SKIP() << "assertions are compiled out in this build";
#endif
}

TEST_F(TransputerTest, HighPriorityWorkPreemptsImmediately) {
  Program prog;
  prog.compute(SimTime::milliseconds(10)).exit();
  auto p = make_process(1, std::move(prog));
  cpu.make_ready(*p);

  SimTime high_done;
  sim.schedule(SimTime::milliseconds(1), [&] {
    cpu.post_high(SimTime::microseconds(500), [&] { high_done = sim.now(); });
  });
  sim.run();
  // High work completes right after its cost, not after the low process.
  EXPECT_EQ(high_done, SimTime::milliseconds(1) + SimTime::microseconds(500));
  // The low process pays the detour.
  EXPECT_EQ(exit_time(1),
            kCtx + SimTime::milliseconds(10) + SimTime::microseconds(500));
  EXPECT_EQ(cpu.high_preemptions(), 1u);
  EXPECT_EQ(p->preemptions(), 1u);
}

TEST_F(TransputerTest, HighWorkOnIdleCpuRunsAlone) {
  SimTime done;
  cpu.post_high(SimTime::microseconds(100), [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, SimTime::microseconds(100));
  EXPECT_EQ(cpu.high_preemptions(), 0u);
  EXPECT_EQ(cpu.high_items(), 1u);
}

TEST_F(TransputerTest, HighQueueDrainsFifo) {
  std::vector<int> order;
  cpu.post_high(SimTime::microseconds(10), [&] { order.push_back(1); });
  cpu.post_high(SimTime::microseconds(10), [&] { order.push_back(2); });
  cpu.post_high(SimTime::microseconds(10), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(TransputerTest, RecvBlocksUntilDelivery) {
  Program prog;
  prog.receive(7).exit();
  auto p = make_process(1, std::move(prog));
  cpu.make_ready(*p);
  sim.run();
  EXPECT_FALSE(p->done());
  EXPECT_EQ(p->state(), ProcessState::kBlockedRecv);

  net::Message msg;
  msg.tag = 7;
  msg.bytes = 100;
  auto buffer = mmu.try_alloc(100);
  ASSERT_TRUE(buffer.has_value());
  cpu.deliver(*p, msg, std::move(*buffer));
  sim.run();
  EXPECT_TRUE(p->done());
  EXPECT_EQ(mmu.bytes_used(), 0u);  // consumed buffer was freed
}

TEST_F(TransputerTest, RecvIgnoresWrongTag) {
  Program prog;
  prog.receive(7).exit();
  auto p = make_process(1, std::move(prog));
  cpu.make_ready(*p);
  sim.run();

  net::Message wrong;
  wrong.tag = 8;
  wrong.bytes = 10;
  auto buffer = mmu.try_alloc(10);
  cpu.deliver(*p, wrong, std::move(*buffer));
  sim.run();
  EXPECT_FALSE(p->done());  // still waiting for tag 7
  EXPECT_EQ(p->mailbox().size(), 1u);

  net::Message right;
  right.tag = 7;
  right.bytes = 10;
  auto buffer2 = mmu.try_alloc(10);
  cpu.deliver(*p, right, std::move(*buffer2));
  sim.run();
  EXPECT_TRUE(p->done());
}

TEST_F(TransputerTest, RecvCostsSetupPlusCopy) {
  Program prog;
  prog.receive(7).exit();
  auto p = make_process(1, std::move(prog));
  net::Message msg;
  msg.tag = 7;
  msg.bytes = 1000;
  auto buffer = mmu.try_alloc(1000);
  cpu.deliver(*p, msg, std::move(*buffer));  // already waiting in mailbox
  cpu.make_ready(*p);
  sim.run();
  // ctx + recv_setup(50us) + 1000 * 40ns.
  EXPECT_EQ(exit_time(1),
            kCtx + SimTime::microseconds(50) + SimTime::microseconds(40));
}

TEST_F(TransputerTest, SendStagesBufferAndDispatches) {
  struct Sent {
    SendOp op;
    std::size_t buffer_size;
    SimTime at;
  };
  std::vector<Sent> sent;
  cpu.set_send_dispatcher([&](Process&, const SendOp& op, mem::Block block) {
    sent.push_back({op, block.size(), sim.now()});
  });
  Program prog;
  prog.send(42, 3, 500).exit();
  auto p = make_process(1, std::move(prog));
  cpu.make_ready(*p);
  sim.run();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].op.dst, 42u);
  EXPECT_EQ(sent[0].op.bytes, 500u);
  EXPECT_EQ(sent[0].buffer_size, 500u);
  // ctx + send_setup(50us) + 500 * 40ns = 10 + 50 + 20 us.
  EXPECT_EQ(sent[0].at, SimTime::microseconds(80));
  EXPECT_TRUE(p->done());
}

TEST_F(TransputerTest, SendBlocksOnMemoryPressure) {
  bool dispatched = false;
  cpu.set_send_dispatcher(
      [&](Process&, const SendOp&, mem::Block) { dispatched = true; });
  auto hog = mmu.try_alloc(64 * 1024 - 100);
  ASSERT_TRUE(hog.has_value());
  Program prog;
  prog.send(42, 3, 500).exit();
  auto p = make_process(1, std::move(prog));
  cpu.make_ready(*p);
  sim.run();
  EXPECT_FALSE(dispatched);
  EXPECT_EQ(p->state(), ProcessState::kBlockedMem);
  sim.schedule(SimTime::milliseconds(1), [&] { hog->release(); });
  sim.run();
  EXPECT_TRUE(dispatched);
  EXPECT_TRUE(p->done());
}

TEST_F(TransputerTest, AllocHoldsMemoryUntilExit) {
  Program prog;
  prog.alloc(1000).compute(SimTime::milliseconds(2)).exit();
  auto p = make_process(1, std::move(prog));
  cpu.make_ready(*p);
  sim.run_until(SimTime::milliseconds(1));
  EXPECT_EQ(mmu.bytes_used(), 1000u);
  EXPECT_EQ(p->held_bytes(), 1000u);
  sim.run();
  EXPECT_TRUE(p->done());
  EXPECT_EQ(mmu.bytes_used(), 0u);
}

TEST_F(TransputerTest, AllocBlocksUntilMemoryAvailable) {
  auto hog = mmu.try_alloc(60 * 1024);
  Program prog;
  prog.alloc(10 * 1024).exit();
  auto p = make_process(1, std::move(prog));
  cpu.make_ready(*p);
  sim.run();
  EXPECT_EQ(p->state(), ProcessState::kBlockedMem);
  hog->release();
  sim.run();
  EXPECT_TRUE(p->done());
}

TEST_F(TransputerTest, BlockedProcessYieldsCpuToOthers) {
  Program blocked, runner;
  blocked.receive(1).exit();
  runner.compute(SimTime::milliseconds(1)).exit();
  auto pb = make_process(1, std::move(blocked));
  auto pr = make_process(2, std::move(runner));
  cpu.make_ready(*pb);
  cpu.make_ready(*pr);
  sim.run();
  // Receiver blocks immediately; runner is not delayed by it.
  EXPECT_EQ(exit_time(2), 2 * kCtx + SimTime::milliseconds(1));
}

TEST_F(TransputerTest, UtilizationReflectsBusyTime) {
  Program prog;
  prog.compute(SimTime::milliseconds(8)).exit();
  auto p = make_process(1, std::move(prog));
  cpu.make_ready(*p);
  sim.run();
  EXPECT_FALSE(cpu.busy());
  EXPECT_NEAR(cpu.utilization(), 1.0, 0.01);
}

TEST_F(TransputerTest, DispatchCountsAccumulate) {
  Program a, b;
  a.compute(SimTime::milliseconds(4)).exit();
  b.compute(SimTime::milliseconds(4)).exit();
  auto pa = make_process(1, std::move(a));
  auto pb = make_process(2, std::move(b));
  cpu.make_ready(*pa);
  cpu.make_ready(*pb);
  sim.run();
  EXPECT_GE(pa->dispatches(), 2u);
  EXPECT_GE(pb->dispatches(), 2u);
}

TEST_F(TransputerTest, ZeroCostComputeCompletes) {
  Program prog;
  prog.compute(SimTime::zero()).compute(SimTime::zero()).exit();
  auto p = make_process(1, std::move(prog));
  cpu.make_ready(*p);
  sim.run();
  EXPECT_TRUE(p->done());
  EXPECT_EQ(exit_time(1), kCtx);
}

}  // namespace
}  // namespace tmc::node
