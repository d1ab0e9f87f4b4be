// tmcbench -- shared pieces of the benchmark harness.
//
// The benchmark drives the simulator only through its public entry points
// (core::Multicomputer, submit + run_to_completion, core::run_sustained) and
// measures every layer from the outside: it times its own calls, reads
// core::MachineStats and the obs::Hub metrics registry, and counts heap
// allocations with the counting allocator linked into this binary.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/machine.h"
#include "obs/hub.h"

namespace tmcbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Tiny sizes for the smoke test: every metric is still produced and every
  /// check still runs, on a fraction of the work.
  bool smoke = false;
  std::string data_dir;  // expected outputs recorded from the repo's benches
  std::string out_dir;   // where the traced run's spans are written
};

/// Metrics plus check bookkeeping for one benchmark invocation.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records `attempted` checked simulations, `failed` of which failed a
  /// check; `why` describes the failure (kept for the first few).
  void simulations(std::uint64_t attempted, std::uint64_t failed,
                   const std::string& why = {}) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0 && failures_.size() < 20) failures_.push_back(why);
  }

  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Benchmark-side spans (name, start, end, parent), kept in memory and
/// written as Chrome trace JSON at the end. A null log records nothing, so
/// the timed runs pay no tracing cost.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent) {
    spans_.push_back({std::move(name), start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  int open(std::string name, int parent) {
    const auto now = Clock::now();
    return add(std::move(name), now, now, parent);
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
  }

  /// Writes the spans as Chrome trace_event JSON ("X" events; each span's
  /// args carry its id and its parent's). Returns false on a write error.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span on a possibly-null log.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, int parent)
      : log_(log), id_(log != nullptr ? log->open(name, parent) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Counters read from core::MachineStats, summed over the machines of one
/// unit of work. Deterministic for a seed, so they must repeat exactly and
/// must not change when observability is attached.
struct StatCounts {
  std::uint64_t machines = 0;
  std::uint64_t jobs = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_pending = 0;  // max over machines
  std::uint64_t comm_sends = 0;
  std::uint64_t hops = 0;
  double utilization_sum = 0.0;    // sum of per-machine average utilization
  double link_utilization_max = 0.0;
  std::uint64_t mem_waits = 0;
  std::int64_t mem_block_ns = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t high_preemptions = 0;
  std::uint64_t quantum_expiries = 0;
  std::uint64_t crashes = 0;
  std::uint64_t messages_lost = 0;
  std::uint64_t retries = 0;
  std::uint64_t job_restarts = 0;
  std::uint64_t jobs_lost = 0;  // restart budget exhausted
  std::uint64_t steal_requests = 0;
  std::uint64_t steal_grants = 0;

  void add(const tmc::core::MachineStats& s, std::uint64_t jobs_run);
  void merge(const StatCounts& other);
  bool operator==(const StatCounts&) const = default;
};

/// Counts only the obs::Hub exposes (registry instruments and the job
/// tracer's wait spans); read on the traced run.
struct HubCounts {
  std::uint64_t scheduled = 0;
  std::uint64_t mem_allocs = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t net_parks = 0;
  std::uint64_t gang_switches = 0;
  std::uint64_t peak_mpl = 0;  // max over partitions and machines
  std::int64_t wait_ns = 0;    // summed job-tracer "wait" spans
  std::uint64_t waits = 0;

  void add(const tmc::obs::Registry& registry);
  void merge(const HubCounts& other);
};

/// Folds the job tracer's "wait" async spans out of a timeline as records
/// are drained, so a long traced run keeps O(jobs in system) memory and no
/// trace file is written.
class WaitFold {
 public:
  /// Arms `hub`'s timeline to drain into this fold.
  explicit WaitFold(tmc::obs::Hub& hub);
  /// Folds the records still buffered at the end of the run.
  void finish();
  void add_to(HubCounts& counts) const {
    counts.wait_ns += wait_ns_;
    counts.waits += waits_;
  }

 private:
  void consume(const std::vector<tmc::obs::TimelineRecord>& records);

  tmc::obs::Timeline& timeline_;
  tmc::obs::NameId wait_name_;
  std::unordered_map<std::uint64_t, std::int64_t> open_;
  std::int64_t wait_ns_ = 0;
  std::uint64_t waits_ = 0;
};

/// Options for the traced run's hub: timeline recording on (the records are
/// folded by WaitFold, never written), metrics registry always present.
[[nodiscard]] tmc::obs::Options traced_hub_options();

/// Host-side measurements that feed the per-layer metrics.
struct HostTimes {
  double host_ns_per_event = 0.0;
  double gen_us_per_job = 0.0;
  double setup_us_per_machine = 0.0;
  double loop_s = 0.0;
  double allocs_per_job = 0.0;
  double machine_bytes_per_node = 0.0;
  double trace_overhead_frac = 0.0;
  std::uint64_t unit_samples = 0;
};

/// End-to-end measurements from the untraced runs.
struct EndToEnd {
  double jobs_per_s = 0.0;
  std::vector<double> unit_ms;  // host ms per unit, every timed unit
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
};

void emit_end_to_end(Report& report, const EndToEnd& e2e);
void emit_per_layer(Report& report, const StatCounts& stats,
                    const HubCounts& hub, const HostTimes& host);

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double sum(const std::vector<double>& values);
/// Lowers each element of `best` to the matching element of `sample`: the
/// running per-unit minimum over repetitions of the same units of work.
/// Every repetition runs identical, deterministic work, and time taken by
/// other tenants of a shared host only ever adds to a unit's time, so a
/// unit's fastest repetition is its own host cost.
void keep_min(std::vector<double>& best, const std::vector<double>& sample);
/// Linear-interpolated percentile, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double q);
/// Peak resident set of this process so far (VmHWM), MB.
[[nodiscard]] double peak_rss_mb();
/// splitmix64 step: derives independent sub-seeds from the one --seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);
/// Reads a whole file; throws std::runtime_error if it cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path);

void run_paper_batch(const Options& options, Report& report);
void run_serving(const Options& options, Report& report);

}  // namespace tmcbench
