// Integration: the obs hub wired through a full machine run.
//
// The load-bearing property is inertness -- attaching metrics, a timeline,
// and the interval sampler must not move a single simulated event -- plus
// coverage: every instrument family the design promises (node CPU/memory,
// links, partitions, comm, kernel self-profile) shows up in the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/machine.h"
#include "obs/hub.h"

namespace tmc::core {
namespace {

ExperimentConfig tiny_config() {
  auto config = figure_point(workload::App::kMatMul,
                             sched::SoftwareArch::kAdaptive,
                             sched::PolicyKind::kHybrid, 4,
                             net::TopologyKind::kMesh);
  config.batch.small_size = 16;
  config.batch.large_size = 32;
  return config;
}

/// Node memory small enough that tiny_config()'s multiprogrammed batch
/// blocks in the MMUs, yet large enough for every job to finish.
constexpr std::size_t kBlockingMemory = std::size_t{108} << 10;

obs::Options full_options() {
  obs::Options options;
  options.metrics = true;
  options.timeline_path = "unused.json";  // presence arms the timeline
  return options;
}

bool has_metric(const std::vector<obs::Registry::View>& views,
                const std::string& name) {
  return std::any_of(views.begin(), views.end(),
                     [&name](const auto& v) { return v.name == name; });
}

TEST(MachineObs, FullInstrumentationIsInert) {
  const auto config = tiny_config();
  const auto plain = run_batch(config, workload::BatchOrder::kInterleaved);

  obs::Hub hub(full_options());
  auto observed_config = config;
  observed_config.machine.obs = &hub;
  const auto observed =
      run_batch(observed_config, workload::BatchOrder::kInterleaved);

  // Byte-level determinism claim: same events, same clock, same responses.
  EXPECT_EQ(plain.machine.events, observed.machine.events);
  EXPECT_EQ(plain.machine.messages, observed.machine.messages);
  EXPECT_EQ(plain.machine.context_switches, observed.machine.context_switches);
  EXPECT_DOUBLE_EQ(plain.makespan_s, observed.makespan_s);
  ASSERT_EQ(plain.jobs.size(), observed.jobs.size());
  for (std::size_t i = 0; i < plain.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(plain.jobs[i].response_s, observed.jobs[i].response_s);
    EXPECT_DOUBLE_EQ(plain.jobs[i].wait_s, observed.jobs[i].wait_s);
  }

  // And the observed run actually recorded something.
  EXPECT_GT(hub.registry().size(), 0u);
  ASSERT_NE(hub.timeline(), nullptr);
  EXPECT_FALSE(hub.timeline()->records().empty());
}

TEST(MachineObs, RegistryCoversEveryInstrumentFamily) {
  obs::Hub hub(full_options());
  auto config = tiny_config();
  config.machine.obs = &hub;
  (void)run_batch(config, workload::BatchOrder::kInterleaved);

  const auto views = hub.registry().snapshot();
  // Kernel self-profile.
  EXPECT_TRUE(has_metric(views, "kernel.events_fired"));
  EXPECT_TRUE(has_metric(views, "kernel.pending_peak"));
  // Scheduling hierarchy.
  EXPECT_TRUE(has_metric(views, "sched.completed"));
  EXPECT_TRUE(has_metric(views, "partition0.active_jobs"));
  EXPECT_TRUE(has_metric(views, "partition3.gang_switches"));
  // Per-node CPU and memory (all 16 nodes registered).
  EXPECT_TRUE(has_metric(views, "node0.cpu.utilization"));
  EXPECT_TRUE(has_metric(views, "node15.cpu.context_switches"));
  EXPECT_TRUE(has_metric(views, "node0.mem.alloc_waits"));
  EXPECT_TRUE(has_metric(views, "node0.mem.grant_wait_s"));
  // Links and comm.
  EXPECT_TRUE(has_metric(views, "link0.transfers"));
  EXPECT_TRUE(has_metric(views, "link0.utilization"));
  EXPECT_TRUE(has_metric(views, "net.parks"));
  EXPECT_TRUE(has_metric(views, "comm.sends"));
  EXPECT_TRUE(has_metric(views, "comm.mailbox_pending"));

  // A frozen probe must carry the run's final value.
  const auto it = std::find_if(views.begin(), views.end(), [](const auto& v) {
    return v.name == "kernel.events_fired";
  });
  ASSERT_NE(it, views.end());
  EXPECT_GT(it->value, 0.0);
}

TEST(MachineObs, WormholeRunRegistersPoolMetrics) {
  obs::Options options;
  options.metrics = true;
  obs::Hub hub(options);
  auto config = tiny_config();
  config.machine.wormhole = true;
  config.machine.obs = &hub;
  (void)run_batch(config, workload::BatchOrder::kInterleaved);
  const auto views = hub.registry().snapshot();
  EXPECT_TRUE(has_metric(views, "net.worm_peak"));
  EXPECT_TRUE(has_metric(views, "net.worm_pool_capacity"));
}

TEST(MachineObs, CpuProbeAndJobCpuTimeAreExactMidBurst) {
  // One process alone on node 0 computes 20 ms: its ten 2 ms quanta are one
  // charge event, yet the node0.cpu.quantum_expiries probe and the job's
  // CPU time, read every 500 us through the burst, count the quanta
  // completed so far -- what a CPU firing one event per quantum reports.
  obs::Options options;
  options.metrics = true;
  obs::Hub hub(options);
  MachineConfig cfg;
  cfg.policy.kind = sched::PolicyKind::kStatic;
  cfg.policy.partition_size = 1;
  cfg.obs = &hub;
  Multicomputer machine(cfg);
  const sim::SimTime quantum = sim::SimTime::milliseconds(2);
  sched::JobSpec spec;
  spec.builder = [](const sched::Job&, int) {
    std::vector<node::Program> programs(1);
    programs[0].compute(sim::SimTime::milliseconds(20)).exit();
    return programs;
  };
  sched::Job job(1, std::move(spec));
  machine.submit(job);
  const auto probe = [&hub] {
    for (const auto& v : hub.registry().snapshot()) {
      if (v.name == "node0.cpu.quantum_expiries") return v.value;
    }
    ADD_FAILURE() << "no node0.cpu.quantum_expiries probe";
    return -1.0;
  };
  double last = 0.0;
  bool saw_mid_burst_expiry = false;
  for (int step = 1; step <= 44; ++step) {
    machine.sim().run_until(sim::SimTime::microseconds(500) * step);
    if (job.processes().empty()) break;  // exited and torn down
    const sim::SimTime cpu = job.total_cpu_time();
    const double expiries = probe();
    // Lone quanta are whole: CPU time is a multiple of the quantum, one
    // expiry per completed quantum.
    EXPECT_EQ(cpu.ns() % quantum.ns(), 0) << "step " << step;
    EXPECT_EQ(expiries, static_cast<double>(cpu.ns() / quantum.ns()))
        << "step " << step;
    EXPECT_GE(expiries, last);
    last = expiries;
    saw_mid_burst_expiry |= expiries > 0.0 && machine.cpu(0).busy();
  }
  EXPECT_TRUE(saw_mid_burst_expiry);
  machine.run_to_completion();
  EXPECT_EQ(machine.cpu(0).quantum_expiries(), 9u);  // the 10th ends in Exit
}

TEST(MachineObs, TimelineHasPerComponentTracksAndRecords) {
  obs::Hub hub(full_options());
  auto config = tiny_config();
  config.machine.obs = &hub;
  (void)run_batch(config, workload::BatchOrder::kInterleaved);

  const obs::Timeline& tl = *hub.timeline();
  int nodes = 0, links = 0, partitions = 0;
  for (const auto& track : tl.tracks()) {
    nodes += track.kind == obs::TrackKind::kNode;
    links += track.kind == obs::TrackKind::kLink;
    partitions += track.kind == obs::TrackKind::kPartition;
  }
  EXPECT_EQ(nodes, 16);
  EXPECT_GT(links, 0);
  EXPECT_EQ(partitions, 4);

  bool saw_span = false, saw_sample = false;
  for (const auto& r : tl.records()) {
    saw_span |= r.kind == obs::RecordKind::kSpan;
    saw_sample |= r.kind == obs::RecordKind::kSample;
  }
  EXPECT_TRUE(saw_span);    // CPU charges / link transfers
  EXPECT_TRUE(saw_sample);  // interval sampler output
}

TEST(MachineObs, JobSpansAndFlowsRecordWhenTimelineArmed) {
  obs::Hub hub(full_options());
  auto config = tiny_config();
  config.machine.job_class_names = {"small", "large"};
  config.machine.obs = &hub;
  (void)run_batch(config, workload::BatchOrder::kInterleaved);

  const obs::Timeline& tl = *hub.timeline();
  int job_tracks = 0;
  for (const auto& track : tl.tracks()) {
    job_tracks += track.kind == obs::TrackKind::kJob;
  }
  EXPECT_EQ(job_tracks, 2);  // one per declared class

  // Async job spans balance begin/end; message flows pair start/finish
  // with matching ids (the cross-node arrows in Perfetto).
  int async_depth = 0;
  std::size_t async_pairs = 0;
  std::vector<std::uint64_t> flow_open;
  std::size_t flow_pairs = 0;
  for (const auto& r : tl.records()) {
    switch (r.kind) {
      case obs::RecordKind::kAsyncBegin:
        ++async_depth;
        break;
      case obs::RecordKind::kAsyncEnd:
        --async_depth;
        ASSERT_GE(async_depth, 0);
        ++async_pairs;
        break;
      case obs::RecordKind::kFlowStart:
        flow_open.push_back(r.id);
        break;
      case obs::RecordKind::kFlowFinish: {
        const auto it =
            std::find(flow_open.begin(), flow_open.end(), r.id);
        ASSERT_NE(it, flow_open.end()) << "flow finish without start";
        flow_open.erase(it);
        ++flow_pairs;
        break;
      }
      default:
        break;
    }
  }
  EXPECT_EQ(async_depth, 0);
  EXPECT_GT(async_pairs, 0u);
  EXPECT_GT(flow_pairs, 0u);
  EXPECT_TRUE(flow_open.empty());
}

TEST(MachineObs, NoJobTrackerWithoutTimeline) {
  // Metrics alone must not create the per-job layer (it exists only to
  // feed timeline tracks).
  obs::Options options;
  options.metrics = true;
  obs::Hub hub(options);
  auto config = tiny_config();
  config.machine.obs = &hub;
  (void)run_batch(config, workload::BatchOrder::kInterleaved);
  EXPECT_EQ(hub.timeline(), nullptr);
}

TEST(MachineObs, MemWaitAndExitInstantsMatchTheirCounters) {
  // A multiprogrammed batch on nodes with too little memory for every
  // resident job: each request that blocks in an MMU is one "mem-wait"
  // instant on its node's track, and each process leaves one "exit" instant
  // carrying its endpoint id.
  obs::Hub hub(full_options());
  auto config = tiny_config();
  config.machine.memory_per_node = kBlockingMemory;
  config.machine.obs = &hub;

  Multicomputer machine(config.machine);
  auto specs = workload::make_batch(config.batch,
                                    workload::BatchOrder::kInterleaved);
  std::size_t processes = 0;
  std::vector<std::unique_ptr<sched::Job>> jobs;
  sched::JobId next_id = 1;
  for (auto& spec : specs) {
    spec.builder = [inner = std::move(spec.builder), &processes](
                       const sched::Job& job, int partition_size) {
      auto programs = inner(job, partition_size);
      processes += programs.size();
      return programs;
    };
    jobs.push_back(std::make_unique<sched::Job>(next_id++, std::move(spec)));
  }
  for (auto& job : jobs) machine.submit(*job);
  machine.run_to_completion();

  const obs::Timeline& tl = *hub.timeline();
  std::uint64_t mem_waits = 0;
  std::vector<net::EndpointId> exits;
  for (const obs::TimelineRecord& r : tl.records()) {
    if (r.kind != obs::RecordKind::kInstant) continue;
    const std::string_view name = tl.name(r.name);
    if (name == "mem-wait") {
      ++mem_waits;
      EXPECT_EQ(tl.tracks()[r.track].kind, obs::TrackKind::kNode);
      EXPECT_GT(r.value, 0.0);  // the requested bytes
    } else if (name == "exit") {
      EXPECT_EQ(tl.tracks()[r.track].kind, obs::TrackKind::kNode);
      exits.push_back(static_cast<net::EndpointId>(r.value));
    }
  }

  double alloc_waits = 0.0;
  for (const auto& view : hub.registry().snapshot()) {
    if (view.name.ends_with(".mem.alloc_waits")) alloc_waits += view.value;
  }
  EXPECT_GT(mem_waits, 0u) << "the batch must block on memory";
  EXPECT_EQ(static_cast<double>(mem_waits), alloc_waits);
  EXPECT_EQ(mem_waits, machine.stats().mem_blocked_requests);

  ASSERT_EQ(exits.size(), processes);
  std::sort(exits.begin(), exits.end());
  EXPECT_EQ(std::adjacent_find(exits.begin(), exits.end()), exits.end())
      << "a process exited twice";
}

TEST(MachineObs, SecondaryRunsDetachFromTheHub) {
  obs::Hub hub(full_options());
  auto config = tiny_config();
  config.machine.policy.kind = sched::PolicyKind::kStatic;
  config.machine.obs = &hub;
  // Space-shared: run_experiment runs best and worst orders; only the
  // primary may touch the hub, so this must not throw or double-register.
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.worst.has_value());
  EXPECT_GT(hub.registry().size(), 0u);
}

}  // namespace
}  // namespace tmc::core
