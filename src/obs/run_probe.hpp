// RunProbe: the one observer of a run's decision stream.
//
// The engine and the producers it drives (governor and watchdog, power
// manager, fault injector, hardware components) report each decision by
// one call here, which feeds every channel the run has on: structured
// trace, flight recorder, attribution ledger, metrics registry.  Trace
// payloads, flight-record encodings (docs/OBSERVABILITY.md), ledger causes
// and run metrics are written only in this file and run_probe.cpp.
//
// The engine owns one probe per run and hands producers a pointer that is
// null when no channel is on.  The calls made per accrual, per state
// change and per decoded frame are inline: with only the always-on flight
// recorder attached they cost a ring store, not an out-of-line call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "hw/power_state.hpp"
#include "obs/attribution.hpp"
#include "obs/event.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_recorder.hpp"
#include "workload/media.hpp"

namespace dvs::detect {
struct DetectorDecisionInfo;
}  // namespace dvs::detect

namespace dvs::obs {

class RunProbe {
 public:
  /// Any channel may be null.  `cpu_step` and `freq_mhz` (the CPU's
  /// step -> MHz table) seed the ledger's frequency regime;
  /// `target_delay` scales the delay-violation histogram.
  RunProbe(TraceRecorder* trace, MetricsRegistry* metrics,
           AttributionLedger* ledger, FlightRecorder* flight,
           Seconds target_delay, std::size_t cpu_step,
           std::vector<double> freq_mhz);
  RunProbe(const RunProbe&) = delete;
  RunProbe& operator=(const RunProbe&) = delete;

  [[nodiscard]] bool tracing() const {
    return trace_ != nullptr && trace_->active();
  }
  /// True when detector decisions reach a channel (the flight recorder
  /// does not record them), i.e. when a decision observer is worth wiring.
  [[nodiscard]] bool observes_decisions() const {
    return tracing() || metrics_ != nullptr || ledger_ != nullptr;
  }

  // ---- frames and detectors (engine) -------------------------------------
  /// A frame reached the buffer: admitted, or tail-dropped (!accepted).
  void frame_arrival(Seconds now, std::uint64_t frame_id,
                     workload::MediaType media, bool accepted,
                     std::size_t queue_len) {
    if (!accepted) {
      frame_drop(now, frame_id, media);
    } else if (tracing()) {
      trace(now, FrameArrival{frame_id, workload::to_string(media), queue_len});
    }
  }
  void decode_start(Seconds now, std::uint64_t frame_id,
                    workload::MediaType media, MegaHertz freq,
                    Seconds switch_latency) {
    if (tracing()) {
      trace(now, DecodeStart{frame_id, workload::to_string(media),
                             freq.value(), switch_latency.value()});
    }
  }
  /// Also fills the frame-delay, decode-time and delay-violation
  /// histograms and charges the frame's delay to the ledger.
  void decode_done(Seconds now, std::uint64_t frame_id,
                   workload::MediaType media, Seconds decode, Seconds delay,
                   std::size_t queue_len) {
    if (trace_ != nullptr || metrics_ != nullptr || ledger_ != nullptr) {
      observe_decode(now, frame_id, media, decode, delay, queue_len);
    }
    flight(now, FlightEventType::DecodeDone, static_cast<std::uint16_t>(media),
           delay.value(), static_cast<double>(queue_len));
  }
  /// Trace only; callers check tracing() first, since the detector name
  /// is built per call.
  void detector_sample(Seconds now, std::string_view stream,
                       std::string_view detector, Seconds interval,
                       Hertz estimate) {
    trace(now, DetectorSample{stream, detector, interval.value(),
                              estimate.value()});
  }
  /// A detected change-point becomes the ledger's cause.
  void detector_decision(Seconds now, std::string_view stream,
                         const detect::DetectorDecisionInfo& info);

  // ---- governor and watchdog ---------------------------------------------
  /// Called after the commit: the interval accrued inside it still charges
  /// the old step.
  void freq_commit(Seconds now, std::size_t step, MegaHertz freq,
                   Volts voltage, Seconds switch_latency);
  /// Also triggers the flight recorder's post-mortem dump.
  void watchdog_escalate(Seconds now, Seconds delay, double queue_len,
                         Seconds backoff);
  void watchdog_recover(Seconds now, Seconds time_degraded);

  // ---- power manager ------------------------------------------------------
  void dpm_idle_enter(Seconds now, std::optional<Seconds> hint);
  /// Called after the badge deepened, so only the slept time is charged
  /// to the DPM.
  void dpm_sleep(Seconds now, hw::PowerState state);
  /// The badge was commanded awake and the slept interval accrued: the
  /// wakeup transition that follows is charged to the wakeup.  Split from
  /// dpm_wakeup() because a wakeup fault fires in between and its cause
  /// must win.
  void dpm_wakeup_begin() { set_cause(Cause::DpmWakeup); }
  /// The wakeup's full latency (any fault penalty included) is known.
  void dpm_wakeup(Seconds now, hw::PowerState from, Seconds latency,
                  Seconds idle_length);
  /// A request ended an idle period (asleep or not).
  void idle_period_end(Seconds idle_length) {
    if (idle_hist_ != nullptr) idle_hist_->add(idle_length.value());
  }

  // ---- fault injector -----------------------------------------------------
  /// Also triggers the flight recorder's post-mortem dump.
  void fault(Seconds now, FaultKind kind, double magnitude);

  // ---- hardware components ------------------------------------------------
  /// `index` tags the flight record as code = (index << 8) | state.
  void component_state(Seconds now, std::uint16_t index,
                       std::string_view component, hw::PowerState from,
                       hw::PowerState to, MilliWatts power) {
    flight(now, FlightEventType::ComponentState,
           static_cast<std::uint16_t>((static_cast<unsigned>(index) << 8) |
                                      static_cast<unsigned>(to)),
           power.value());
    if (tracing()) {
      trace(now, ComponentState{component, hw::to_string(from),
                                hw::to_string(to), power.value()});
    }
  }
  /// The exact energy delta the component just integrated over `dt` in
  /// `state` (`waking`: during a wakeup transition).
  void energy_accrued(const std::string& component, hw::PowerState state,
                      bool waking, Joules delta, Seconds dt) {
    if (ledger_ != nullptr) charge_energy(component, state, waking, delta, dt);
  }

 private:
  /// Hot paths check tracing() first to skip building the payload.
  void trace(Seconds now, Payload payload) {
    if (trace_ != nullptr) trace_->record(now.value(), std::move(payload));
  }
  void flight(Seconds now, FlightEventType type, std::uint16_t code,
              double a = 0.0, double b = 0.0) {
    if (flight_ != nullptr) {
      flight_->record(now.value(), type, code, static_cast<float>(a),
                      static_cast<float>(b));
    }
  }
  void set_cause(Cause cause) {
    if (ledger_ != nullptr) ledger_->set_cause(cause);
  }
  void frame_drop(Seconds now, std::uint64_t frame_id,
                  workload::MediaType media);
  void observe_decode(Seconds now, std::uint64_t frame_id,
                      workload::MediaType media, Seconds decode,
                      Seconds delay, std::size_t queue_len);
  void charge_energy(const std::string& component, hw::PowerState state,
                     bool waking, Joules delta, Seconds dt);

  TraceRecorder* trace_;
  MetricsRegistry* metrics_;
  AttributionLedger* ledger_;
  FlightRecorder* flight_;
  double target_delay_s_;
  // Registered when metrics are on, null otherwise.
  HistogramMetric* delay_hist_ = nullptr;
  HistogramMetric* decode_hist_ = nullptr;
  HistogramMetric* delay_violation_hist_ = nullptr;
  HistogramMetric* idle_hist_ = nullptr;
  // Resolved on the first decision / detected change, not up front: a run
  // without one keeps the key out of its registry.
  std::uint64_t* decisions_ = nullptr;
  std::uint64_t* changes_ = nullptr;
};

}  // namespace dvs::obs
