// TraceRecorder: fan-out of structured events to pluggable sinks.
//
// Instrumented code reaches it through obs::RunProbe.  With no sinks
// attached, active() is false and the probe skips payload construction
// entirely.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "obs/event.hpp"

namespace dvs::obs {

/// Consumes events at record time.  Implementations must not retain the
/// event (string_view fields point at caller-owned storage).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const Event& event) = 0;
  /// Finalizes output (closes JSON arrays, flushes buffers).  Idempotent.
  virtual void flush() {}
};

class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  TraceSink& add_sink(std::unique_ptr<TraceSink> sink) {
    sinks_.push_back(std::move(sink));
    return *sinks_.back();
  }

  /// True when at least one sink is attached.  Instrumentation sites gate
  /// on this before building payloads (the null-sink fast path).
  [[nodiscard]] bool active() const { return !sinks_.empty(); }

  void record(double ts, Payload payload) {
    if (!active()) return;
    const Event event{ts, std::move(payload)};
    ++recorded_;
    for (const auto& sink : sinks_) sink->on_event(event);
  }

  void flush() {
    for (const auto& sink : sinks_) sink->flush();
  }

  [[nodiscard]] std::uint64_t events_recorded() const { return recorded_; }

 private:
  std::vector<std::unique_ptr<TraceSink>> sinks_;
  std::uint64_t recorded_ = 0;
};

}  // namespace dvs::obs
