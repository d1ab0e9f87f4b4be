// tmcsim -- interval sampler for counter tracks.
//
// Emits periodic kSample records (queue depths, free bytes, utilization) onto
// the timeline without ever touching the event queue: the machine's run loop
// calls advance_to(next_event_time) before firing each event, so sample
// instants are interleaved with -- but never inserted among -- simulation
// events. Event count, ordering, and the final clock are provably unchanged,
// which is what keeps golden tables byte-identical under `--timeline`.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/timeline.h"
#include "sim/time.h"

namespace tmc::obs {

class Sampler {
 public:
  using Reader = std::function<double()>;

  /// Arms the sampler. `timeline` may be null when only a metrics stream is
  /// requested (set_stream); with neither sink nor a positive interval the
  /// sampler stays inactive (advance_to becomes a single branch).
  void configure(Timeline* timeline, sim::SimTime interval) {
    timeline_ = timeline;
    interval_ = interval;
    next_ = sim::SimTime::zero();
  }

  /// Additionally (or instead) emits one JSONL line per sample instant.
  /// `names` resolves track/channel labels for the stream header -- it is
  /// the hub's track registry, which may or may not also be the recording
  /// timeline. The header is written lazily at the first tick so every
  /// channel is registered by then.
  void set_stream(MetricsStreamWriter* stream, const Timeline* names) {
    stream_ = stream;
    stream_names_ = names;
  }

  /// Adds a sampled channel: `read` is polled at each sample instant and the
  /// value recorded on `track` under `name`. The closure must stay valid
  /// until finish().
  void add_channel(Reader read, TrackId track, NameId name) {
    channels_.push_back(Channel{std::move(read), track, name});
  }

  /// The instant being recorded, for channels whose value depends on time
  /// (a utilization): read at the sample instant, not at the last event's
  /// time, so the value does not depend on how many events the kernel
  /// fires between ticks.
  [[nodiscard]] sim::SimTime sample_time() const { return sample_time_; }

  [[nodiscard]] bool active() const {
    return (timeline_ != nullptr || stream_ != nullptr) &&
           interval_ > sim::SimTime::zero() && !channels_.empty();
  }

  /// Records every channel at each interval multiple in [next_, horizon).
  /// Strictly-below keeps the sample that coincides with an event instant on
  /// the pre-event side of the next advance_to call.
  void advance_to(sim::SimTime horizon) {
    if (!active()) return;
    while (next_ < horizon) {
      record_all(next_);
      next_ += interval_;
    }
  }

  /// Takes one final sample at `at` (end of run) and drops the channel
  /// closures so later calls never dereference destroyed components.
  void finish(sim::SimTime at) {
    if (active()) record_all(at);
    channels_.clear();
  }

 private:
  struct Channel {
    Reader read;
    TrackId track;
    NameId name;
  };

  void record_all(sim::SimTime at) {
    if (stream_ != nullptr && !stream_header_written_) {
      std::vector<std::string> labels;
      labels.reserve(channels_.size());
      for (const Channel& c : channels_) {
        labels.push_back(std::string(stream_names_->tracks()[c.track].name) +
                         ":" + std::string(stream_names_->name(c.name)));
      }
      stream_->begin(labels);
      stream_header_written_ = true;
    }
    sample_time_ = at;
    scratch_.clear();
    for (const Channel& c : channels_) {
      const double v = c.read();
      if (timeline_ != nullptr) timeline_->sample(c.track, c.name, at, v);
      if (stream_ != nullptr) scratch_.push_back(v);
    }
    if (stream_ != nullptr) stream_->tick(at.to_seconds(), scratch_);
  }

  Timeline* timeline_ = nullptr;
  sim::SimTime interval_;
  sim::SimTime next_;
  sim::SimTime sample_time_;
  std::vector<Channel> channels_;
  MetricsStreamWriter* stream_ = nullptr;
  const Timeline* stream_names_ = nullptr;
  bool stream_header_written_ = false;
  std::vector<double> scratch_;
};

}  // namespace tmc::obs
