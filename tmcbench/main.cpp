// tmcbench -- the repository benchmark program.
//
//   tmcbench --workload NAME --seed N --seconds S --data DIR --out DIR
//            [--smoke]
//
// Runs one workload (paper_batch, serve_hybrid_faulty) on one
// simulating thread: a warm-up unit, timed untraced units for S seconds, one
// traced unit with an obs::Hub attached, and the output checks. Prints one
// JSON object on its last stdout line with every end-to-end and per-layer
// metric, the check counts and the build provenance. run.py builds this
// binary and turns that line into the benchmark's result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "harness.h"

namespace tmcbench {

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d}}%s\n",
                  s.name.c_str(), us(s.start), us(s.end) - us(s.start), i,
                  s.parent, i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void StatCounts::add(const tmc::core::MachineStats& s,
                     std::uint64_t jobs_run) {
  StatCounts one;
  one.machines = 1;
  one.jobs = jobs_run;
  one.events = s.events;
  one.peak_pending = s.peak_pending_events;
  one.comm_sends = s.messages;
  one.hops = s.total_hops;
  one.utilization_sum = s.avg_cpu_utilization;
  one.link_utilization_max = s.max_link_utilization;
  one.mem_waits = s.mem_blocked_requests;
  one.mem_block_ns = s.mem_block_time.ns();
  one.context_switches = s.context_switches;
  one.high_preemptions = s.high_preemptions;
  one.quantum_expiries = s.quantum_expiries;
  one.crashes = s.faults.crashes;
  one.messages_lost = s.faults.messages_lost;
  one.retries = s.faults.retries;
  one.job_restarts = s.faults.job_restarts;
  one.jobs_lost = s.faults.jobs_failed;
  one.steal_requests = s.steals.requests;
  one.steal_grants = s.steals.grants;
  merge(one);
}

void StatCounts::merge(const StatCounts& o) {
  machines += o.machines;
  jobs += o.jobs;
  events += o.events;
  peak_pending = std::max(peak_pending, o.peak_pending);
  comm_sends += o.comm_sends;
  hops += o.hops;
  utilization_sum += o.utilization_sum;
  link_utilization_max = std::max(link_utilization_max, o.link_utilization_max);
  mem_waits += o.mem_waits;
  mem_block_ns += o.mem_block_ns;
  context_switches += o.context_switches;
  high_preemptions += o.high_preemptions;
  quantum_expiries += o.quantum_expiries;
  crashes += o.crashes;
  messages_lost += o.messages_lost;
  retries += o.retries;
  job_restarts += o.job_restarts;
  jobs_lost += o.jobs_lost;
  steal_requests += o.steal_requests;
  steal_grants += o.steal_grants;
}

void HubCounts::merge(const HubCounts& o) {
  scheduled += o.scheduled;
  mem_allocs += o.mem_allocs;
  net_messages += o.net_messages;
  net_parks += o.net_parks;
  gang_switches += o.gang_switches;
  peak_mpl = std::max(peak_mpl, o.peak_mpl);
  wait_ns += o.wait_ns;
  waits += o.waits;
}

namespace {

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::uint64_t as_count(double v) {
  return static_cast<std::uint64_t>(std::llround(v));
}

}  // namespace

void HubCounts::add(const tmc::obs::Registry& registry) {
  using Kind = tmc::obs::Registry::Kind;
  for (const auto& view : registry.snapshot()) {
    const double v = view.kind == Kind::kCounter
                         ? static_cast<double>(view.count)
                         : view.value;
    if (view.name == "kernel.events_scheduled") {
      scheduled += as_count(v);
    } else if (view.name == "net.messages") {
      net_messages += as_count(v);
    } else if (view.name == "net.parks") {
      net_parks += as_count(v);
    } else if (ends_with(view.name, ".mem.allocs")) {
      mem_allocs += as_count(v);
    } else if (view.name.starts_with("partition") &&
               ends_with(view.name, ".gang_switches")) {
      gang_switches += as_count(v);
    } else if (view.name.starts_with("partition") &&
               ends_with(view.name, ".peak_mpl")) {
      peak_mpl = std::max(peak_mpl, as_count(v));
    }
  }
}

WaitFold::WaitFold(tmc::obs::Hub& hub)
    : timeline_(*hub.timeline()), wait_name_(timeline_.intern("wait")) {
  timeline_.set_flush(
      [this](const std::vector<tmc::obs::TimelineRecord>& records) {
        consume(records);
      },
      std::size_t{1} << 16);
}

void WaitFold::finish() { consume(timeline_.records()); }

void WaitFold::consume(const std::vector<tmc::obs::TimelineRecord>& records) {
  using tmc::obs::RecordKind;
  for (const auto& r : records) {
    if (r.name != wait_name_) continue;
    if (r.kind == RecordKind::kAsyncBegin) {
      open_[r.id] = r.start_ns;
    } else if (r.kind == RecordKind::kAsyncEnd) {
      const auto it = open_.find(r.id);
      if (it == open_.end()) continue;
      wait_ns_ += r.start_ns - it->second;
      ++waits_;
      open_.erase(it);
    }
  }
}

tmc::obs::Options traced_hub_options() {
  tmc::obs::Options options;
  // A non-empty path switches timeline recording (and with it the job
  // tracer) on. WaitFold drains every record, and the hub's outputs are
  // never written, so no file is created at this path.
  options.timeline_path = "unwritten-timeline.json";
  return options;
}

void emit_end_to_end(Report& report, const EndToEnd& e2e) {
  report.metric("jobs_per_s", e2e.jobs_per_s, "jobs/s");
  report.metric("unit_ms_p50", percentile(e2e.unit_ms, 0.50), "ms");
  report.metric("unit_ms_p90", percentile(e2e.unit_ms, 0.90), "ms");
  report.metric("setup_s", e2e.setup_s, "s");
  report.metric("peak_rss_mb", e2e.peak_rss_mb, "MB");
}

void emit_per_layer(Report& report, const StatCounts& stats,
                    const HubCounts& hub, const HostTimes& host) {
  const auto jobs =
      static_cast<double>(std::max<std::uint64_t>(stats.jobs, 1));
  const auto per_job = [jobs](std::uint64_t n) {
    return static_cast<double>(n) / jobs;
  };
  const auto frac = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  report.metric("sim.events_per_job", per_job(stats.events), "count");
  report.metric("sim.scheduled_per_job", per_job(hub.scheduled), "count");
  // Scheduled events that never fired: cancelled, or still pending when the
  // run drained (fault timers).
  report.metric("sim.cancelled_frac",
                frac(hub.scheduled - std::min(hub.scheduled, stats.events),
                     hub.scheduled),
                "fraction");
  report.metric("sim.peak_pending", static_cast<double>(stats.peak_pending),
                "count");
  report.metric("sim.host_ns_per_event", host.host_ns_per_event, "ns");

  report.metric("node.cpu.quantum_expiries_per_job",
                per_job(stats.quantum_expiries), "count");
  report.metric("node.cpu.context_switches_per_job",
                per_job(stats.context_switches), "count");
  report.metric("node.cpu.high_preemptions_per_job",
                per_job(stats.high_preemptions), "count");
  report.metric("node.cpu.utilization",
                stats.utilization_sum /
                    static_cast<double>(
                        std::max<std::uint64_t>(stats.machines, 1)),
                "fraction");

  report.metric("mem.allocs_per_job", per_job(hub.mem_allocs), "count");
  report.metric("mem.alloc_waits_per_job", per_job(stats.mem_waits), "count");
  report.metric("mem.block_time_s",
                static_cast<double>(stats.mem_block_ns) * 1e-9, "s");

  report.metric("net.messages_per_job", per_job(hub.net_messages), "count");
  report.metric("net.hops_per_message", frac(stats.hops, hub.net_messages),
                "count");
  report.metric("net.parks", static_cast<double>(hub.net_parks), "count");
  report.metric("net.link_utilization_max", stats.link_utilization_max,
                "fraction");

  report.metric("comm.sends_per_job", per_job(stats.comm_sends), "count");
  report.metric("comm.retries_per_job", per_job(stats.retries), "count");

  report.metric("sched.wait_s_mean",
                hub.waits == 0 ? 0.0
                               : static_cast<double>(hub.wait_ns) * 1e-9 /
                                     static_cast<double>(hub.waits),
                "s");
  report.metric("sched.peak_mpl_max", static_cast<double>(hub.peak_mpl),
                "count");
  report.metric("sched.gang_switches_per_job", per_job(hub.gang_switches),
                "count");

  report.metric("steal.requests_per_job", per_job(stats.steal_requests),
                "count");
  report.metric("steal.grant_frac",
                frac(stats.steal_grants, stats.steal_requests), "fraction");

  report.metric("fault.crashes", static_cast<double>(stats.crashes), "count");
  report.metric("fault.messages_lost",
                static_cast<double>(stats.messages_lost), "count");
  report.metric("fault.job_restarts", static_cast<double>(stats.job_restarts),
                "count");
  report.metric("fault.jobs_lost_frac", frac(stats.jobs_lost, stats.jobs),
                "fraction");

  report.metric("workload.gen_us_per_job", host.gen_us_per_job, "us");
  report.metric("core.setup_us_per_machine", host.setup_us_per_machine, "us");
  report.metric("core.loop_s", host.loop_s, "s");
  report.metric("host.allocs_per_job", host.allocs_per_job, "count");
  report.metric("host.machine_bytes_per_node", host.machine_bytes_per_node,
                "B");
  report.metric("obs.trace_overhead_frac", host.trace_overhead_frac,
                "fraction");
  report.metric("bench.unit_samples", static_cast<double>(host.unit_samples),
                "count");
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

void keep_min(std::vector<double>& best, const std::vector<double>& sample) {
  for (std::size_t i = 0; i < best.size() && i < sample.size(); ++i) {
    best[i] = std::min(best[i], sample[i]);
  }
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace tmcbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::cerr << "tmcbench: " << why
            << "\nusage: tmcbench --workload paper_batch|serve_hybrid_faulty"
               " --seed N --seconds S --data DIR --out DIR [--smoke]\n";
  std::exit(2);
}

tmcbench::Options parse(int argc, char** argv) {
  tmcbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("--seed expects an integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0.0)) {
        usage("--seconds expects a positive number");
      }
    } else if (arg == "--data") {
      options.data_dir = value;
    } else if (arg == "--out") {
      options.out_dir = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (options.data_dir.empty() || options.out_dir.empty()) {
    usage("--data and --out are required");
  }
  return options;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const tmcbench::Options options = parse(argc, argv);
  tmcbench::Report report;
  try {
    if (options.workload == "paper_batch") {
      tmcbench::run_paper_batch(options, report);
    } else if (options.workload == "serve_hybrid_faulty") {
      tmcbench::run_serving(options, report);
    } else {
      usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "tmcbench: " << options.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  // check_fail_frac is reported as its complement: the benchmark's metrics
  // must never read zero, and a passing run has no failed checks.
  const auto attempted =
      static_cast<double>(std::max<std::uint64_t>(report.attempted(), 1));
  report.metric("check_pass_frac",
                1.0 - static_cast<double>(report.failed()) / attempted,
                "fraction");

  std::ostringstream json;
  json << "{\"workload\": " << json_string(options.workload)
       << ", \"seed\": " << options.seed
       << ", \"attempted\": " << report.attempted()
       << ", \"failed\": " << report.failed() << ", \"failures\": [";
  for (std::size_t i = 0; i < report.failures().size(); ++i) {
    json << (i ? ", " : "") << json_string(report.failures()[i]);
  }
  json << "], \"build\": {\"compiler\": " << json_string(kCompiler)
       << ", \"flags\": " << json_string(TMCBENCH_BUILD_FLAGS)
       << "}, \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics().size(); ++i) {
    const auto& m = report.metrics()[i];
    json << (i ? ", " : "") << json_string(m.name)
         << ": {\"value\": " << json_number(m.value)
         << ", \"unit\": " << json_string(m.unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
