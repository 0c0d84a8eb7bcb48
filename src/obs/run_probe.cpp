#include "obs/run_probe.hpp"

#include <utility>

#include "detect/detector.hpp"

namespace dvs::obs {

RunProbe::RunProbe(TraceRecorder* trace, MetricsRegistry* metrics,
                   AttributionLedger* ledger, FlightRecorder* flight,
                   Seconds target_delay, std::size_t cpu_step,
                   std::vector<double> freq_mhz)
    : trace_(trace),
      metrics_(metrics),
      ledger_(ledger),
      flight_(flight),
      target_delay_s_(target_delay.value()) {
  if (ledger_ != nullptr) {
    ledger_->set_freq_step(cpu_step);
    ledger_->set_freq_table(std::move(freq_mhz));
  }
  if (metrics_ != nullptr) {
    idle_hist_ = &metrics_->histogram("dpm.idle_period_s", 0.0, 120.0);
    delay_hist_ = &metrics_->histogram("frames.delay_s", 0.0, 2.0);
    decode_hist_ = &metrics_->histogram("frames.decode_s", 0.0, 0.2);
    // Frame delay as a multiple of the target — the degradation
    // fingerprint (mass above 1.0 = delay-target violations).
    delay_violation_hist_ =
        &metrics_->histogram("frames.delay_over_target", 0.0, 10.0);
  }
}

void RunProbe::frame_drop(Seconds now, std::uint64_t frame_id,
                          workload::MediaType media) {
  trace(now, FrameDrop{frame_id, workload::to_string(media)});
  flight(now, FlightEventType::FrameDrop, static_cast<std::uint16_t>(media),
         static_cast<double>(frame_id));
}

void RunProbe::observe_decode(Seconds now, std::uint64_t frame_id,
                              workload::MediaType media, Seconds decode,
                              Seconds delay, std::size_t queue_len) {
  if (delay_hist_ != nullptr) {
    delay_hist_->add(delay.value());
    decode_hist_->add(decode.value());
  }
  if (tracing()) {
    trace(now, DecodeDone{frame_id, workload::to_string(media),
                          decode.value(), delay.value(), queue_len});
  }
  if (delay_violation_hist_ != nullptr) {
    delay_violation_hist_->add(delay.value() / target_delay_s_);
  }
  if (ledger_ != nullptr) {
    ledger_->charge_delay(std::string(workload::to_string(media)),
                          delay.value());
  }
}

void RunProbe::detector_decision(Seconds now, std::string_view stream,
                                 const detect::DetectorDecisionInfo& info) {
  if (tracing()) {
    trace(now, DetectorDecision{stream, info.ln_p_max, info.threshold,
                                info.detected, info.rate.value()});
  }
  if (info.detected) set_cause(Cause::DetectorChange);
  if (metrics_ == nullptr) return;
  if (decisions_ == nullptr) {
    decisions_ = &metrics_->counter("detector.decisions");
  }
  ++*decisions_;
  if (!info.detected) return;
  if (changes_ == nullptr) changes_ = &metrics_->counter("detector.changes");
  ++*changes_;
}

void RunProbe::freq_commit(Seconds now, std::size_t step, MegaHertz freq,
                           Volts voltage, Seconds switch_latency) {
  trace(now, FreqCommit{step, freq.value(), voltage.value(),
                        switch_latency.value()});
  flight(now, FlightEventType::FreqCommit, static_cast<std::uint16_t>(step),
         freq.value(), switch_latency.value());
  if (ledger_ != nullptr) ledger_->set_freq_step(step);
}

void RunProbe::watchdog_escalate(Seconds now, Seconds delay, double queue_len,
                                 Seconds backoff) {
  trace(now, WatchdogEscalate{delay.value(), queue_len, backoff.value()});
  set_cause(Cause::WatchdogEscalate);
  flight(now, FlightEventType::WatchdogEscalate, 0, delay.value(), queue_len);
  if (flight_ != nullptr) flight_->trigger(now.value(), "watchdog-escalate");
}

void RunProbe::watchdog_recover(Seconds now, Seconds time_degraded) {
  trace(now, WatchdogRecover{time_degraded.value()});
  set_cause(Cause::WatchdogRecover);
  flight(now, FlightEventType::WatchdogRecover, 0, time_degraded.value());
}

void RunProbe::dpm_idle_enter(Seconds now, std::optional<Seconds> hint) {
  const double hint_s = hint ? hint->value() : -1.0;
  trace(now, DpmIdleEnter{hint_s});
  flight(now, FlightEventType::DpmIdleEnter, 0, hint_s);
}

void RunProbe::dpm_sleep(Seconds now, hw::PowerState state) {
  trace(now, DpmSleepCommand{hw::to_string(state)});
  set_cause(Cause::DpmSleep);
  flight(now, FlightEventType::DpmSleep, static_cast<std::uint16_t>(state));
}

void RunProbe::dpm_wakeup(Seconds now, hw::PowerState from, Seconds latency,
                          Seconds idle_length) {
  trace(now, DpmWakeup{hw::to_string(from), latency.value(),
                       idle_length.value()});
  flight(now, FlightEventType::DpmWakeup, static_cast<std::uint16_t>(from),
         latency.value(), idle_length.value());
}

void RunProbe::fault(Seconds now, FaultKind kind, double magnitude) {
  trace(now, FaultInjected{to_string(kind), magnitude});
  set_cause(Cause::Fault);
  flight(now, FlightEventType::FaultInjected, static_cast<std::uint16_t>(kind),
         magnitude);
  if (flight_ != nullptr) flight_->trigger(now.value(), "fault-injected");
}

void RunProbe::charge_energy(const std::string& component,
                             hw::PowerState state, bool waking, Joules delta,
                             Seconds dt) {
  ledger_->charge_energy(
      component, waking ? std::string("wake") : std::string(hw::to_string(state)),
      delta.value(), dt.value());
}

}  // namespace dvs::obs
