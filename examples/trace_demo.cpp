// Observability demo: watch the machine run two small jobs through the obs
// hub.
//
// 1. Metrics registry -- every instrument family (kernel self-profile,
//    per-node CPU/memory, links, partitions, comm) dumped as JSON.
// 2. Timeline -- per-node CPU spans (compute, context switches), process
//    exits and memory waits as instants, message sends as flow arrows,
//    parked messages, per-job lifecycle spans and sampled queue depths,
//    exported as Chrome trace_event JSON. Open trace_demo_timeline.json in
//    Perfetto (ui.perfetto.dev) or chrome://tracing to browse the run.
//
// The nodes get too little memory for both jobs at once, so the run shows
// memory blocking -- the paper's multiprogramming overhead -- as "mem-wait"
// instants. Run from any directory; both files land in the current one.

#include <iostream>
#include <map>
#include <string_view>

#include "core/machine.h"
#include "obs/hub.h"
#include "workload/matmul.h"

int main() {
  using namespace tmc;

  obs::Options obs_options;
  obs_options.metrics = true;
  obs_options.metrics_path = "trace_demo_metrics.json";
  obs_options.timeline_path = "trace_demo_timeline.json";
  obs_options.sample_interval = sim::SimTime::milliseconds(5);
  obs::Hub hub(obs_options);

  core::MachineConfig cfg;
  cfg.processors = 4;
  cfg.topology = net::TopologyKind::kRing;
  cfg.memory_per_node = std::size_t{88} << 10;
  cfg.policy.kind = sched::PolicyKind::kTimeSharing;
  cfg.policy.basic_quantum = sim::SimTime::milliseconds(20);
  cfg.obs = &hub;
  core::Multicomputer machine(cfg);

  workload::MatMulParams mm;
  mm.n = 24;
  mm.arch = sched::SoftwareArch::kAdaptive;
  sched::Job a(1, workload::make_matmul_job(mm, false));
  sched::Job b(2, workload::make_matmul_job(mm, false));
  machine.submit(a);
  machine.submit(b);
  machine.run_to_completion();

  std::cout << "job 1 response: " << a.response_time().to_seconds()
            << " s, job 2 response: " << b.response_time().to_seconds()
            << " s\n\ntimeline records by name:\n";
  const obs::Timeline& timeline = *hub.timeline();
  std::map<std::string_view, int> by_name;
  for (const obs::TimelineRecord& r : timeline.records()) {
    ++by_name[timeline.name(r.name)];
  }
  for (const auto& [name, count] : by_name) {
    std::cout << "  " << name << " " << count << "\n";
  }

  // A few headline numbers straight from the registry, then the full dumps.
  std::cout << "\n";
  for (const auto& view : hub.registry().snapshot()) {
    if (view.name == "kernel.events_fired" ||
        view.name == "node0.cpu.utilization" ||
        view.name == "node0.mem.alloc_waits" ||
        view.name == "comm.sends") {
      std::cout << view.name << " = " << view.value << "\n";
    }
  }
  if (!hub.write_outputs(std::cerr)) return 1;
  std::cout << "\nwrote " << obs_options.metrics_path << " and "
            << obs_options.timeline_path
            << " (load the timeline in ui.perfetto.dev)\n";
  return 0;
}
