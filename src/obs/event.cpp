#include "obs/event.hpp"

namespace dvs::obs {

namespace {

struct TypeNameVisitor {
  std::string_view operator()(const FrameArrival&) const { return "frame_arrival"; }
  std::string_view operator()(const FrameDrop&) const { return "frame_drop"; }
  std::string_view operator()(const DecodeStart&) const { return "decode_start"; }
  std::string_view operator()(const DecodeDone&) const { return "decode_done"; }
  std::string_view operator()(const DetectorSample&) const { return "detector_sample"; }
  std::string_view operator()(const DetectorDecision&) const {
    return "detector_decision";
  }
  std::string_view operator()(const FreqCommit&) const { return "freq_commit"; }
  std::string_view operator()(const DpmIdleEnter&) const { return "dpm_idle_enter"; }
  std::string_view operator()(const DpmSleepCommand&) const { return "dpm_sleep"; }
  std::string_view operator()(const DpmWakeup&) const { return "dpm_wakeup"; }
  std::string_view operator()(const ComponentState&) const {
    return "component_state";
  }
  std::string_view operator()(const FaultInjected&) const { return "fault_injected"; }
  std::string_view operator()(const WatchdogEscalate&) const {
    return "watchdog_escalate";
  }
  std::string_view operator()(const WatchdogRecover&) const {
    return "watchdog_recover";
  }
};

}  // namespace

std::string_view to_string(FaultKind kind) {
  // Indexed by the enum's ordinal, which is the flight record's code.
  constexpr std::string_view kNames[] = {"wakeup_delay", "wakeup_fail",
                                         "freq_fail", "rail_stuck"};
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kNames) ? kNames[i] : std::string_view{"?"};
}

std::string_view type_name(const Payload& payload) {
  return std::visit(TypeNameVisitor{}, payload);
}

}  // namespace dvs::obs
