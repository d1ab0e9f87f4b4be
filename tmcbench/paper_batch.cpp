// paper_batch: the paper's own workload, the fig3-6 grid as
// `fig3..6 --with-16h` prints it.
//
// Each grid point (application x architecture x partition size x topology)
// runs the paper's submission orders -- static: smallest-first and
// largest-first; TS (p=16) / hybrid (p<16): interleaved -- plus one
// submission order shuffled from the seed under the static policy. One pass
// over the grid is the repetition unit; one batch simulation is the timing
// unit. The paper-order MRT columns are checked against the tables recorded
// from the figure benches, for every seed.
#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "alloc_counter.h"
#include "core/experiment.h"
#include "core/report.h"
#include "harness.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace tmcbench {
namespace {

using namespace tmc;

struct Figure {
  int number;
  workload::App app;
  sched::SoftwareArch arch;
};
constexpr Figure kFigures[] = {
    {3, workload::App::kMatMul, sched::SoftwareArch::kFixed},
    {4, workload::App::kMatMul, sched::SoftwareArch::kAdaptive},
    {5, workload::App::kSort, sched::SoftwareArch::kFixed},
    {6, workload::App::kSort, sched::SoftwareArch::kAdaptive},
};
constexpr net::TopologyKind kTopologies[] = {
    net::TopologyKind::kLinear, net::TopologyKind::kRing,
    net::TopologyKind::kMesh, net::TopologyKind::kHypercube};

struct Point {
  const Figure* figure;
  int partition;
  net::TopologyKind topology;
  std::string label;  // the figure's row label, e.g. "8M"
};

std::vector<Point> grid(bool smoke) {
  const std::vector<int> sizes =
      smoke ? std::vector<int>{1, 4, 16} : std::vector<int>{1, 2, 4, 8, 16};
  std::vector<Point> points;
  for (const Figure& figure : kFigures) {
    for (const int p : sizes) {
      for (const auto topology : kTopologies) {
        // One processor per partition has no links: the figures print a
        // single "1" row.
        if (p == 1 && topology != net::TopologyKind::kLinear) continue;
        points.push_back({&figure, p, topology,
                          p == 1 ? "1"
                                 : std::to_string(p) +
                                       net::topology_letter(topology)});
      }
    }
  }
  return points;
}

enum class Order { kBest, kWorst, kInterleaved, kRandom };
constexpr Order kOrders[] = {Order::kBest, Order::kWorst, Order::kInterleaved,
                             Order::kRandom};
constexpr std::size_t kSimsPerPoint = std::size(kOrders);

/// One batch simulation's outcome.
struct Sim {
  bool ok = true;
  std::string error;
  double mrt_s = 0.0;
  std::int64_t wait_ns = 0;  // summed Job::wait_time over the batch
  StatCounts stats;
  HubCounts hub;
  double build_s = 0.0;
  double gen_s = 0.0;
  double loop_s = 0.0;
  double total_s = 0.0;
  std::int64_t machine_bytes = 0;
  int nodes = 0;
};

/// Runs one batch simulation. A non-null `spans` marks the traced pass: the
/// simulation records its spans under `parent_span` and gets a fresh hub (a
/// hub's registry is single-simulation scope).
Sim simulate(const Point& point, Order order, std::uint64_t seed,
             std::size_t point_index, SpanLog* spans, int parent_span) {
  Sim sim;
  const auto policy = order == Order::kInterleaved
                          ? (point.partition == 16
                                 ? sched::PolicyKind::kTimeSharing
                                 : sched::PolicyKind::kHybrid)
                          : sched::PolicyKind::kStatic;
  core::ExperimentConfig config =
      core::figure_point(point.figure->app, point.figure->arch, policy,
                         point.partition, point.topology);
  const auto t0 = Clock::now();
  SpanScope sim_span(spans, "simulation", parent_span);
  std::optional<obs::Hub> hub;
  std::optional<WaitFold> fold;
  if (spans != nullptr) {
    hub.emplace(traced_hub_options());
    fold.emplace(*hub);
    config.machine.obs = &*hub;
  }
  try {
    std::optional<SpanScope> build_span(std::in_place, spans, "machine build",
                                        sim_span.id());
    const HeapCounts h0 = heap_counts();
    core::Multicomputer machine(config.machine);
    sim.machine_bytes = heap_counts().live_bytes - h0.live_bytes;
    sim.nodes = config.machine.processors;
    const auto t_built = Clock::now();
    build_span.reset();

    std::optional<SpanScope> gen_span(std::in_place, spans, "input generation",
                                      sim_span.id());
    std::vector<sched::JobSpec> specs;
    switch (order) {
      case Order::kBest:
        specs = workload::make_batch(config.batch,
                                     workload::BatchOrder::kSmallestFirst);
        break;
      case Order::kWorst:
        specs = workload::make_batch(config.batch,
                                     workload::BatchOrder::kLargestFirst);
        break;
      case Order::kInterleaved:
        specs = workload::make_batch(config.batch,
                                     workload::BatchOrder::kInterleaved);
        break;
      case Order::kRandom: {
        specs = workload::make_batch(config.batch,
                                     workload::BatchOrder::kInterleaved);
        sim::Rng rng(mix_seed(seed, point_index));
        for (std::size_t i = specs.size(); i > 1; --i) {
          std::swap(specs[i - 1], specs[rng.uniform(i)]);
        }
        break;
      }
    }
    std::vector<std::unique_ptr<sched::Job>> jobs;
    jobs.reserve(specs.size());
    sched::JobId next_id = 1;
    for (auto& spec : specs) {
      jobs.push_back(std::make_unique<sched::Job>(next_id++, std::move(spec)));
    }
    const auto t_generated = Clock::now();
    gen_span.reset();

    {
      SpanScope submit_span(spans, "submit", sim_span.id());
      for (auto& job : jobs) machine.submit(*job);
    }
    {
      SpanScope loop_span(spans, "event loop", sim_span.id());
      machine.run_to_completion();
    }
    const auto t_ran = Clock::now();

    SpanScope check_span(spans, "checks", sim_span.id());
    sim::OnlineStats response;
    for (const auto& job : jobs) {
      if (!job->completed() || job->wait_time().ns() < 0 ||
          job->response_time() < job->wait_time()) {
        sim.ok = false;
        sim.error = "job " + std::to_string(job->id()) +
                    " did not complete cleanly";
      }
      response.add(job->response_time().to_seconds());
      sim.wait_ns += job->wait_time().ns();
    }
    sim.mrt_s = response.mean();
    sim.stats.add(machine.stats(), jobs.size());
    if (hub) {
      fold->finish();
      sim.hub.add(hub->registry());
      fold->add_to(sim.hub);
      if (sim.hub.wait_ns != sim.wait_ns) {
        sim.ok = false;
        sim.error = "job-tracer wait spans disagree with Job::wait_time";
      }
    }
    sim.build_s = seconds_between(t0, t_built);
    sim.gen_s = seconds_between(t_built, t_generated);
    sim.loop_s = seconds_between(t_generated, t_ran);
  } catch (const std::exception& e) {
    sim.ok = false;
    sim.error = e.what();
  }
  sim.total_s = seconds_between(t0, Clock::now());
  if (!sim.ok) {
    sim.error = "fig" + std::to_string(point.figure->number) + " " +
                point.label + ": " + sim.error;
  }
  return sim;
}

/// Expected MRT columns per figure and row label, from `figN --with-16h
/// --csv`: static MRT, TS/hybrid MRT, TS/static, static best, static worst.
using Expected =
    std::map<std::pair<int, std::string>, std::vector<std::string>>;

Expected load_expected(const std::string& data_dir) {
  Expected expected;
  for (const Figure& figure : kFigures) {
    std::istringstream csv(read_file(data_dir + "/fig" +
                                     std::to_string(figure.number) +
                                     "_with16h.csv"));
    std::string line;
    std::getline(csv, line);  // header
    while (std::getline(csv, line)) {
      std::vector<std::string> cells;
      std::istringstream row(line);
      for (std::string cell; std::getline(row, cell, ',');) {
        cells.push_back(cell);
      }
      if (cells.size() != 6) continue;
      expected[{figure.number, cells[0]}] = {cells.begin() + 1, cells.end()};
    }
  }
  return expected;
}

/// One pass over the grid: every point, every order.
struct Pass {
  double wall_s = 0.0;
  // Host times of each simulation, in grid order.
  std::vector<double> unit_ms;
  std::vector<double> build_s;
  std::vector<double> gen_s;
  std::vector<double> loop_s;
  std::uint64_t allocs = 0;
  std::int64_t machine_bytes = 0;
  std::int64_t nodes = 0;  // summed over the pass's machines
  StatCounts stats;
  HubCounts hub;
  std::vector<double> mrt_s;  // every simulation, in grid order
  std::vector<std::int64_t> wait_ns;
  std::uint64_t sims = 0;
  std::uint64_t failed = 0;
  std::string first_error;
};

Pass run_pass(const std::vector<Point>& points, const Expected& expected,
              std::uint64_t seed, SpanLog* spans) {
  Pass pass;
  const HeapCounts h0 = heap_counts();
  const auto t0 = Clock::now();
  SpanScope pass_span(spans, "paper_batch pass", -1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    Sim sims[kSimsPerPoint];
    for (std::size_t k = 0; k < kSimsPerPoint; ++k) {
      sims[k] = simulate(points[i], kOrders[k], seed, i, spans,
                         pass_span.id());
    }
    // The paper's measurement rule: static reports the mean of its best and
    // worst orders; the TS/hybrid line reports the interleaved run.
    const double static_mrt = 0.5 * (sims[0].mrt_s + sims[1].mrt_s);
    const double ts_mrt = sims[2].mrt_s;
    const std::vector<std::string> got = {
        core::fmt_seconds(static_mrt), core::fmt_seconds(ts_mrt),
        core::fmt_ratio(ts_mrt / static_mrt), core::fmt_seconds(sims[0].mrt_s),
        core::fmt_seconds(sims[1].mrt_s)};
    const auto it = expected.find({points[i].figure->number, points[i].label});
    if (it == expected.end() || it->second != got) {
      for (std::size_t k = 0; k < 3; ++k) {
        if (sims[k].ok) {
          sims[k].ok = false;
          sims[k].error = "fig" + std::to_string(points[i].figure->number) +
                          " " + points[i].label +
                          ": MRT columns differ from the recorded figure";
        }
      }
    }
    for (const Sim& sim : sims) {
      ++pass.sims;
      if (!sim.ok) {
        ++pass.failed;
        if (pass.first_error.empty()) pass.first_error = sim.error;
      }
      pass.unit_ms.push_back(sim.total_s * 1e3);
      pass.build_s.push_back(sim.build_s);
      pass.gen_s.push_back(sim.gen_s);
      pass.loop_s.push_back(sim.loop_s);
      pass.machine_bytes += sim.machine_bytes;
      pass.mrt_s.push_back(sim.mrt_s);
      pass.wait_ns.push_back(sim.wait_ns);
      pass.nodes += sim.nodes;
      pass.stats.merge(sim.stats);
      pass.hub.merge(sim.hub);
    }
  }
  pass.wall_s = seconds_between(t0, Clock::now());
  pass.allocs = heap_counts().allocs - h0.allocs;
  return pass;
}

/// The exact parts of a pass that must repeat run to run at one seed.
bool same_counts(const Pass& a, const Pass& b) {
  return a.stats == b.stats && a.mrt_s == b.mrt_s && a.wait_ns == b.wait_ns;
}

}  // namespace

void run_paper_batch(const Options& options, Report& report) {
  const std::vector<Point> points = grid(options.smoke);
  const Expected expected = load_expected(options.data_dir);
  const auto record = [&](const Pass& pass) {
    report.simulations(pass.sims, pass.failed, pass.first_error);
  };

  // Warm-up: lazy initialisation and first-touch page faults land here.
  record(run_pass(points, expected, options.seed, nullptr));

  // Every pass runs the identical grid, so simulation i is the same work in
  // each; its fastest pass is its host cost without the time other tenants
  // of the host took (see keep_min). Only running minima are kept, so the
  // process's memory does not grow with the number of passes.
  std::optional<Pass> first;
  Pass best;
  std::vector<double> walls;
  const auto start = Clock::now();
  do {
    Pass pass = run_pass(points, expected, options.seed, nullptr);
    if (first && (!same_counts(pass, *first) || pass.allocs != first->allocs)) {
      pass.failed = pass.sims;
      pass.first_error = "pass counts or allocations differ at one seed";
    }
    record(pass);
    walls.push_back(pass.wall_s);
    if (!first) {
      first = pass;
      best = std::move(pass);
    } else {
      keep_min(best.unit_ms, pass.unit_ms);
      keep_min(best.build_s, pass.build_s);
      keep_min(best.gen_s, pass.gen_s);
      keep_min(best.loop_s, pass.loop_s);
    }
  } while (walls.size() < 2 ||
           seconds_between(start, Clock::now()) < options.seconds);
  const double rss_mb = peak_rss_mb();

  SpanLog spans;
  Pass traced = run_pass(points, expected, options.seed, &spans);
  {
    SpanScope check_span(&spans, "checks", -1);
    if (!same_counts(traced, *first)) {
      traced.failed = traced.sims;
      traced.first_error = "traced pass differs from the untraced passes";
    }
  }
  record(traced);
  spans.write(options.out_dir + "/spans-paper_batch.json");

  const auto jobs = static_cast<double>(first->stats.jobs);
  const double loop_s = sum(best.loop_s);

  EndToEnd e2e;
  e2e.unit_ms = best.unit_ms;
  e2e.jobs_per_s = jobs / (sum(e2e.unit_ms) * 1e-3);
  // Set-up of one pass: every machine build and input generation.
  e2e.setup_s = sum(best.build_s) + sum(best.gen_s);
  e2e.peak_rss_mb = rss_mb;
  emit_end_to_end(report, e2e);

  HostTimes host;
  host.host_ns_per_event =
      loop_s * 1e9 / static_cast<double>(first->stats.events);
  host.gen_us_per_job = sum(best.gen_s) * 1e6 / jobs;
  host.setup_us_per_machine =
      sum(best.build_s) * 1e6 / static_cast<double>(first->sims);
  host.loop_s = loop_s;
  host.allocs_per_job = static_cast<double>(first->allocs) / jobs;
  host.machine_bytes_per_node =
      static_cast<double>(first->machine_bytes) /
      static_cast<double>(first->nodes);
  host.trace_overhead_frac = traced.wall_s / median(walls) - 1.0;
  host.unit_samples = e2e.unit_ms.size();
  emit_per_layer(report, traced.stats, traced.hub, host);

  std::cerr << "paper_batch: " << walls.size() << " timed passes of "
            << first->sims << " batch simulations, " << e2e.unit_ms.size()
            << " unit samples\n";
}

}  // namespace tmcbench
