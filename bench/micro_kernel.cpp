// Simulator-kernel microbenchmarks (google-benchmark).
//
// These measure the engine itself -- event queue throughput, allocator
// costs, routing-table construction, RNG, and a full miniature batch -- so
// regressions in simulator performance are visible independently of the
// modelled results.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/experiment.h"
#include "mem/mmu.h"
#include "net/network.h"
#include "net/routing.h"
#include "node/transputer.h"
#include "obs/job_trace.h"
#include "obs/metrics.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace {

using namespace tmc;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < batch; ++i) {
      queue.schedule(sim::SimTime::nanoseconds((i * 7919) % 1000), [] {});
    }
    while (!queue.empty()) {
      benchmark::DoNotOptimize(queue.pop());
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(256)->Arg(4096);

void BM_EventQueueScheduleAndCancel(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  std::vector<sim::EventId> ids(static_cast<std::size_t>(batch));
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < batch; ++i) {
      ids[static_cast<std::size_t>(i)] =
          queue.schedule(sim::SimTime::nanoseconds((i * 7919) % 1000), [] {});
    }
    // Cancel in reverse so the free list exercises slot reuse patterns.
    for (int i = batch; i-- > 0;) {
      benchmark::DoNotOptimize(queue.cancel(ids[static_cast<std::size_t>(i)]));
    }
  }
  state.SetItemsProcessed(state.iterations() * batch * 2);
}
BENCHMARK(BM_EventQueueScheduleAndCancel)->Arg(256)->Arg(4096);

void BM_EventQueueHoldModel(benchmark::State& state) {
  // The classic "hold" workload: a full queue in steady state, each pop
  // immediately rescheduled at a later pseudo-random time. This is the
  // shape of a running simulation (timers, link frees, quantum expiries).
  const auto population = static_cast<int>(state.range(0));
  sim::EventQueue queue;
  for (int i = 0; i < population; ++i) {
    queue.schedule(sim::SimTime::nanoseconds((i * 7919) % 4096), [] {});
  }
  std::uint64_t hash = 12345;
  for (auto _ : state) {
    auto fired = queue.pop();
    hash = hash * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto delay = static_cast<std::int64_t>(hash >> 52) + 1;
    queue.schedule(fired.time + sim::SimTime::nanoseconds(delay),
                   std::move(fired.callback));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHoldModel)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SimulationEventChain(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    std::uint64_t remaining = depth;
    sim::UniqueFunction<void()> step;
    std::function<void()> chain = [&] {
      if (--remaining > 0) {
        sim.schedule(sim::SimTime::nanoseconds(1), [&] { chain(); });
      }
    };
    sim.schedule(sim::SimTime::nanoseconds(1), [&] { chain(); });
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(depth));
}
BENCHMARK(BM_SimulationEventChain)->Arg(10000);

void BM_SimulationEventChainNullObs(benchmark::State& state) {
  // The event chain above with the observability hooks a fully instrumented
  // component pays when NO hub is attached: null-handle counter bumps plus
  // the schedulers' job-tracer pointer guard, each a single predictable
  // branch. Three bumps and one tracer check per event bounds the real
  // density -- the wiring feeds gauges/distributions through end-of-run
  // probes and the sampler, so hot event paths only ever carry bump-style
  // counter hooks (net.parks, mem.alloc_waits), at most one each, and the
  // per-job lifecycle sites (admit, gang turn, completion) are one
  // `if (job_tracer_)` apiece. perf_gate.py pairs this against
  // BM_SimulationEventChain (--pair, 3% tolerance) so "zero overhead when
  // disabled" stays an enforced property, not a slogan.
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  // volatile loads keep the handles opaque: the compiler must emit the
  // null checks instead of folding the whole hook away, which is exactly
  // the code a disabled instrumented component executes.
  static obs::Counter* volatile null_counter = nullptr;
  static obs::JobTracer* volatile null_tracer = nullptr;
  obs::Counter* parks = null_counter;
  obs::Counter* waits = null_counter;
  obs::Counter* switches = null_counter;
  obs::JobTracer* tracer = null_tracer;
  for (auto _ : state) {
    sim::Simulation sim;
    std::uint64_t remaining = depth;
    std::function<void()> chain = [&] {
      obs::bump(parks);
      obs::bump(waits);
      obs::bump(switches);
      if (tracer != nullptr) tracer->run_begin(remaining, sim.now());
      if (--remaining > 0) {
        sim.schedule(sim::SimTime::nanoseconds(1), [&] { chain(); });
      }
    };
    sim.schedule(sim::SimTime::nanoseconds(1), [&] { chain(); });
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(depth));
}
BENCHMARK(BM_SimulationEventChainNullObs)->Arg(10000);

void BM_SimulationEventChainNullFault(benchmark::State& state) {
  // The event chain with the fault-plane hooks a reliable machine pays:
  // every hot path the fault subsystem touches (message injection, link
  // traversal, delivery liveness) guards on one FaultPlane pointer that is
  // null when FaultConfig::enabled() is false, so the disabled cost is
  // three predictable not-taken branches per event -- the densest any real
  // event gets. perf_gate.py pairs this against BM_SimulationEventChain
  // (--pair, 3% tolerance) so fault injection stays free when off.
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  // volatile load keeps the handle opaque: the compiler must emit the null
  // checks instead of folding them away, exactly like a component whose
  // fault_ member was never set.
  static net::FaultPlane* volatile null_fault = nullptr;
  net::FaultPlane* fault = null_fault;
  std::uint64_t guards = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    std::uint64_t remaining = depth;
    std::function<void()> chain = [&] {
      if (fault != nullptr && !fault->node_alive(0)) ++guards;    // injection
      if (fault != nullptr && !fault->link_usable(0)) ++guards;   // traversal
      if (fault != nullptr && !fault->node_alive(1)) ++guards;    // delivery
      if (--remaining > 0) {
        sim.schedule(sim::SimTime::nanoseconds(1), [&] { chain(); });
      }
    };
    sim.schedule(sim::SimTime::nanoseconds(1), [&] { chain(); });
    sim.run();
    benchmark::DoNotOptimize(sim.now());
    benchmark::DoNotOptimize(guards);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(depth));
}
BENCHMARK(BM_SimulationEventChainNullFault)->Arg(10000);

void BM_UniqueFunctionInlineRoundTrip(benchmark::State& state) {
  // A 32-byte capture fits the small-buffer storage: construct, move (the
  // schedule/pop path), call, destroy -- no allocation anywhere.
  struct Payload {
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
  } payload;
  static_assert(
      sim::UniqueFunction<std::uint64_t()>::stores_inline<Payload>());
  for (auto _ : state) {
    sim::UniqueFunction<std::uint64_t()> fn = [payload] {
      return payload.a + payload.d;
    };
    sim::UniqueFunction<std::uint64_t()> moved = std::move(fn);
    benchmark::DoNotOptimize(moved());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UniqueFunctionInlineRoundTrip);

void BM_UniqueFunctionHeapRoundTrip(benchmark::State& state) {
  // The same round trip with a capture past kInlineSize: falls back to one
  // heap block. The gap between this and the inline case is what the SBO
  // saves per event.
  struct BigPayload {
    std::uint64_t words[9] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  } payload;
  for (auto _ : state) {
    sim::UniqueFunction<std::uint64_t()> fn = [payload] {
      return payload.words[0] + payload.words[8];
    };
    sim::UniqueFunction<std::uint64_t()> moved = std::move(fn);
    benchmark::DoNotOptimize(moved());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UniqueFunctionHeapRoundTrip);

void BM_MmuAllocFree(benchmark::State& state) {
  sim::Simulation sim;
  mem::Mmu mmu(sim, 4 << 20);
  for (auto _ : state) {
    auto a = mmu.try_alloc(4096);
    auto b = mmu.try_alloc(512);
    auto c = mmu.try_alloc(65536);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_MmuAllocFree);

void BM_MmuFragmentedAlloc(benchmark::State& state) {
  sim::Simulation sim;
  mem::Mmu mmu(sim, 4 << 20);
  // Build a fragmented free list: allocate many, free every other one.
  std::vector<mem::Block> held;
  std::vector<mem::Block> pinned;
  for (int i = 0; i < 256; ++i) {
    auto block = mmu.try_alloc(8192);
    if (!block) break;
    (i % 2 == 0 ? held : pinned).push_back(std::move(*block));
  }
  held.clear();  // punch holes
  for (auto _ : state) {
    auto block = mmu.try_alloc(8192);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_MmuFragmentedAlloc);

void BM_TransputerLoneBurst(benchmark::State& state) {
  // One process alone on a CPU computing 100 ms under the 2 ms hardware
  // quantum: the CPU model charges it as one event (the 49 quantum expiries
  // inside are credited arithmetically), and the context switch into it is
  // fused with that charge, so a burst costs a dispatch pump and one
  // charge. items = bursts; the events_per_burst counter pins the event
  // count.
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    mem::Mmu mmu(sim, 64 * 1024);
    node::Transputer cpu(sim, 0, mmu);
    node::Program prog;
    prog.compute(sim::SimTime::milliseconds(100)).exit();
    node::Process p(1, 1, std::move(prog));
    p.bind_to_node(0);
    cpu.make_ready(p);
    events += sim.run();
    benchmark::DoNotOptimize(cpu.quantum_expiries());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["events_per_burst"] =
      static_cast<double>(events) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_TransputerLoneBurst);

void BM_TransputerTimeShared(benchmark::State& state) {
  // Two compute-bound processes time-share one CPU for 100 ms each under
  // the 2 ms quantum: 100 quanta, each entered by a context switch. The
  // switch is fused with the quantum's charge (one event, the switch a
  // prefix of it), so a quantum costs one event where a separate switch
  // event made it two. items = quanta; the events_per_quantum counter pins
  // the event count.
  constexpr std::int64_t kQuanta = 100;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    mem::Mmu mmu(sim, 64 * 1024);
    node::Transputer cpu(sim, 0, mmu);
    node::Program a;
    a.compute(sim::SimTime::milliseconds(100)).exit();
    node::Program b;
    b.compute(sim::SimTime::milliseconds(100)).exit();
    node::Process pa(1, 1, std::move(a));
    node::Process pb(2, 1, std::move(b));
    pa.bind_to_node(0);
    pb.bind_to_node(0);
    cpu.make_ready(pa);
    cpu.make_ready(pb);
    events += sim.run();
    benchmark::DoNotOptimize(cpu.context_switches());
  }
  state.SetItemsProcessed(state.iterations() * kQuanta);
  state.counters["events_per_quantum"] =
      static_cast<double>(events) /
      static_cast<double>(state.iterations() * kQuanta);
}
BENCHMARK(BM_TransputerTimeShared);

void BM_RoutingTableConstruction(benchmark::State& state) {
  const auto topo = net::Topology::hypercube(16);
  for (auto _ : state) {
    net::RoutingTable table(topo);
    benchmark::DoNotOptimize(table.distance(0, 15));
  }
}
BENCHMARK(BM_RoutingTableConstruction);

void BM_RngNext(benchmark::State& state) {
  sim::Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_RngNext);

void BM_RngHyperexponential(benchmark::State& state) {
  sim::Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.hyperexponential(1.0, 4.0));
  }
}
BENCHMARK(BM_RngHyperexponential);

void BM_TinyBatchEndToEnd(benchmark::State& state) {
  auto config = core::figure_point(
      workload::App::kMatMul, sched::SoftwareArch::kAdaptive,
      sched::PolicyKind::kHybrid, 4, net::TopologyKind::kMesh);
  config.batch.small_size = 12;
  config.batch.large_size = 20;
  for (auto _ : state) {
    const auto run =
        core::run_batch(config, workload::BatchOrder::kInterleaved);
    benchmark::DoNotOptimize(run.mean_response_s());
  }
}
BENCHMARK(BM_TinyBatchEndToEnd)->Unit(benchmark::kMillisecond);

void BM_FullFigurePoint(benchmark::State& state) {
  // One full-size figure point (the unit of work behind figures 3-6).
  const auto config = core::figure_point(
      workload::App::kMatMul, sched::SoftwareArch::kAdaptive,
      sched::PolicyKind::kHybrid, 4, net::TopologyKind::kMesh);
  for (auto _ : state) {
    const auto run =
        core::run_batch(config, workload::BatchOrder::kInterleaved);
    benchmark::DoNotOptimize(run.mean_response_s());
  }
}
BENCHMARK(BM_FullFigurePoint)->Unit(benchmark::kMillisecond);

void BM_SimulationEventChainNullSteal(benchmark::State& state) {
  // The event chain with the steal hook a non-stealing machine pays:
  // CommSystem::finish_delivery guards on one std::function that is empty
  // when no stealing engine was built, so the disabled cost is a single
  // predictable not-taken branch per delivery. perf_gate.py pairs this
  // against BM_SimulationEventChain (--pair, 3% tolerance) so the stealing
  // subsystem stays free for every fixed/adaptive run.
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  // volatile flag keeps the emptiness opaque: the compiler must emit the
  // check instead of folding the hook away, exactly like a CommSystem
  // whose set_steal_hook was never called.
  static volatile bool hook_installed = false;
  std::function<bool(int)> hook;
  if (hook_installed) hook = [](int) { return false; };
  std::uint64_t consumed = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    std::uint64_t remaining = depth;
    std::function<void()> chain = [&] {
      if (hook != nullptr && hook(static_cast<int>(remaining))) ++consumed;
      if (--remaining > 0) {
        sim.schedule(sim::SimTime::nanoseconds(1), [&] { chain(); });
      }
    };
    sim.schedule(sim::SimTime::nanoseconds(1), [&] { chain(); });
    sim.run();
    benchmark::DoNotOptimize(sim.now());
    benchmark::DoNotOptimize(consumed);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(depth));
}
BENCHMARK(BM_SimulationEventChainNullSteal)->Arg(10000);

void BM_StealProtocol(benchmark::State& state) {
  // The full steal protocol under load: a skewed sort batch on an 8-node
  // mesh where the thieves do real work -- request, grant, migration
  // payload and result return all traverse the simulated network. Items
  // are steal requests resolved per second of wall clock, the throughput
  // of the protocol machinery itself (deque ops, victim selection, flow
  // bookkeeping, reply injection).
  auto config = core::figure_point(
      workload::App::kSort, sched::SoftwareArch::kStealing,
      sched::PolicyKind::kStatic, 8, net::TopologyKind::kMesh);
  config.batch.small_size = 256;
  config.batch.large_size = 512;
  config.batch.sort_skew = 0.3;
  config.machine.stealing.steal_rate = 10'000.0;
  std::uint64_t requests = 0;
  for (auto _ : state) {
    const auto run =
        core::run_batch(config, workload::BatchOrder::kInterleaved);
    requests += run.machine.steals.requests;
    benchmark::DoNotOptimize(run.mean_response_s());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(requests));
}
BENCHMARK(BM_StealProtocol)->Unit(benchmark::kMillisecond);

}  // namespace
