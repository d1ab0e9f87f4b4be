#include "obs/hub.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <string_view>

namespace tmc::obs {
namespace {

/// Splits "--flag=value" at the first '='; returns true when `arg` names
/// `flag` (with or without a value).
bool match_flag(std::string_view arg, std::string_view flag, bool& has_value,
                std::string_view& value) {
  if (arg.substr(0, flag.size()) != flag) return false;
  if (arg.size() == flag.size()) {
    has_value = false;
    return true;
  }
  if (arg[flag.size()] != '=') return false;
  has_value = true;
  value = arg.substr(flag.size() + 1);
  return true;
}

}  // namespace

bool parse_cli_flag(int argc, char** argv, int& i, Options& options,
                    std::string& error) {
  const std::string_view arg = argv[i];
  bool has_value = false;
  std::string_view value;

  if (match_flag(arg, "--metrics", has_value, value)) {
    options.metrics = true;
    if (has_value) options.metrics_path = value;
    return true;
  }
  if (match_flag(arg, "--timeline", has_value, value)) {
    if (!has_value) {
      if (i + 1 >= argc) {
        error = "--timeline requires a path";
        return true;
      }
      value = argv[++i];
    }
    if (value.empty()) {
      error = "--timeline requires a non-empty path";
      return true;
    }
    options.timeline_path = value;
    return true;
  }
  if (match_flag(arg, "--timeline-chunk", has_value, value)) {
    if (!has_value) {
      if (i + 1 >= argc) {
        error = "--timeline-chunk requires a record count";
        return true;
      }
      value = argv[++i];
    }
    errno = 0;
    char* end = nullptr;
    const std::string text(value);
    const unsigned long long n = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end == text.c_str() || *end != '\0' || n == 0 ||
        n > 1ULL << 30) {
      error = "--timeline-chunk wants a positive record count, got '" + text +
              "'";
      return true;
    }
    options.timeline_chunk = static_cast<std::size_t>(n);
    return true;
  }
  if (match_flag(arg, "--metrics-stream", has_value, value)) {
    if (!has_value) {
      if (i + 1 >= argc) {
        error = "--metrics-stream requires a path";
        return true;
      }
      value = argv[++i];
    }
    if (value.empty()) {
      error = "--metrics-stream requires a non-empty path";
      return true;
    }
    options.metrics_stream_path = value;
    return true;
  }
  if (match_flag(arg, "--slo", has_value, value)) {
    if (!has_value) {
      if (i + 1 >= argc) {
        error = "--slo requires class=latency targets";
        return true;
      }
      value = argv[++i];
    }
    parse_slo_spec(value, options.slo, error);
    return true;
  }
  if (match_flag(arg, "--sample-interval", has_value, value)) {
    if (!has_value) {
      if (i + 1 >= argc) {
        error = "--sample-interval requires a value in milliseconds";
        return true;
      }
      value = argv[++i];
    }
    errno = 0;
    char* end = nullptr;
    const std::string text(value);
    const double ms = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == text.c_str() || *end != '\0' || ms <= 0.0 ||
        ms > 1e9) {
      error = "--sample-interval wants a positive millisecond count, got '" +
              text + "'";
      return true;
    }
    options.sample_interval =
        sim::SimTime::microseconds(static_cast<std::int64_t>(ms * 1000.0));
    return true;
  }
  return false;
}

std::string cli_help() {
  return "  --metrics[=PATH]      dump the metrics registry at end of run\n"
         "                        (stderr by default; *.csv selects CSV)\n"
         "  --timeline=PATH       record a Chrome trace_event timeline\n"
         "                        (open in Perfetto / chrome://tracing)\n"
         "  --timeline-chunk N    stream the timeline to disk every N\n"
         "                        records instead of buffering the run\n"
         "  --metrics-stream=PATH JSONL sampler stream (one line per tick,\n"
         "                        O(1) memory; works without --timeline)\n"
         "  --sample-interval MS  counter-sampling period for --timeline\n"
         "                        and --metrics-stream (default 100)\n"
         "  --slo CLASS=LAT[@PCT][,...]\n"
         "                        per-class response-time targets for the\n"
         "                        serving harness (ns/us/ms/s suffixes;\n"
         "                        objective percent defaults to 99), e.g.\n"
         "                        --slo interactive=50ms,batch=2s@95\n";
}

Hub::Hub(Options options) : options_(std::move(options)) {
  if (!options_.metrics_stream_path.empty()) {
    metrics_stream_out_.open(options_.metrics_stream_path);
    if (!metrics_stream_out_) {
      metrics_stream_failed_ = true;
    } else {
      metrics_stream_writer_.emplace(metrics_stream_out_);
      metrics_stream_writer_->set_label(label_);
    }
  }
  if (!options_.timeline_path.empty() && options_.timeline_chunk > 0) {
    timeline_.set_flush(
        [this](const std::vector<TimelineRecord>& records) {
          stream_timeline_chunk(records);
        },
        options_.timeline_chunk);
  }
}

bool Hub::ensure_timeline_writer() {
  if (timeline_open_failed_) return false;
  if (timeline_writer_) return true;
  timeline_stream_out_.open(options_.timeline_path);
  if (!timeline_stream_out_) {
    timeline_open_failed_ = true;
    return false;
  }
  // All tracks are registered before the run starts (the machine wires
  // observability during construction), so the preamble written here is
  // identical to what the buffered exporter would emit.
  timeline_writer_.emplace(timeline_stream_out_);
  timeline_writer_->begin(timeline_);
  return true;
}

void Hub::stream_timeline_chunk(const std::vector<TimelineRecord>& records) {
  // On open failure the chunk is dropped (the buffer must still be cleared
  // to keep memory flat); write_outputs reports the error at end of run.
  if (!ensure_timeline_writer()) return;
  timeline_writer_->write_records(timeline_, records);
}

bool Hub::write_outputs(std::ostream& diag) {
  bool ok = true;

  if (options_.metrics) {
    const bool csv = options_.metrics_path.size() > 4 &&
                     options_.metrics_path.substr(
                         options_.metrics_path.size() - 4) == ".csv";
    if (options_.metrics_path.empty()) {
      write_metrics_json(registry_, diag, label_, end_time_);
    } else {
      std::ofstream out(options_.metrics_path);
      if (!out) {
        diag << "obs: cannot open metrics path " << options_.metrics_path
             << "\n";
        ok = false;
      } else {
        if (csv) {
          write_metrics_csv(registry_, out);
        } else {
          write_metrics_json(registry_, out, label_, end_time_);
        }
        diag << "obs: wrote " << registry_.size() << " metrics to "
             << options_.metrics_path << (csv ? " (csv)\n" : " (json)\n");
      }
    }
  }

  if (!options_.timeline_path.empty()) {
    if (options_.timeline_chunk > 0) {
      // Chunked mode: most records were already drained during the run;
      // write the tail and the closing bracket.
      if (!ensure_timeline_writer()) {
        diag << "obs: cannot open timeline path " << options_.timeline_path
             << "\n";
        ok = false;
      } else {
        timeline_writer_->write_records(timeline_, timeline_.records());
        timeline_writer_->end();
        timeline_stream_out_.flush();
        if (!timeline_stream_out_) {
          diag << "obs: error writing timeline path " << options_.timeline_path
               << "\n";
          ok = false;
        } else {
          diag << "obs: streamed "
               << timeline_.flushed_records() + timeline_.records().size()
               << " timeline records (" << timeline_.tracks().size()
               << " tracks, chunk " << options_.timeline_chunk << ") to "
               << options_.timeline_path << "\n";
        }
      }
    } else {
      std::ofstream out(options_.timeline_path);
      if (!out) {
        diag << "obs: cannot open timeline path " << options_.timeline_path
             << "\n";
        ok = false;
      } else {
        write_chrome_trace(timeline_, out);
        diag << "obs: wrote " << timeline_.records().size()
             << " timeline records (" << timeline_.tracks().size()
             << " tracks) to " << options_.timeline_path << "\n";
      }
    }
  }

  if (!options_.metrics_stream_path.empty()) {
    if (metrics_stream_failed_) {
      diag << "obs: cannot open metrics stream path "
           << options_.metrics_stream_path << "\n";
      ok = false;
    } else {
      metrics_stream_out_.flush();
      if (!metrics_stream_out_) {
        diag << "obs: error writing metrics stream path "
             << options_.metrics_stream_path << "\n";
        ok = false;
      } else {
        diag << "obs: streamed " << metrics_stream_writer_->ticks()
             << " metric samples to " << options_.metrics_stream_path << "\n";
      }
    }
  }

  return ok;
}

}  // namespace tmc::obs
