// Structured trace events for the observability layer.
//
// Every decision the engine makes — frame lifecycle, detector verdicts,
// governor (f, V) commits, DPM transitions, component power-state changes —
// is describable as one of these typed payloads stamped with the simulation
// time.  Sinks (obs/sinks.hpp) consume events synchronously at record time,
// so the string_view fields only need to outlive the record() call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <variant>

namespace dvs::obs {

/// A frame was received from the WLAN and pushed into the frame buffer.
struct FrameArrival {
  std::uint64_t frame_id = 0;
  std::string_view media;     ///< "mp3" / "mpeg"
  std::size_t queue_len = 0;  ///< buffer occupancy after the push
};

/// A frame was rejected by a bounded frame buffer (tail drop).
struct FrameDrop {
  std::uint64_t frame_id = 0;
  std::string_view media;
};

/// The decoder picked up a frame.
struct DecodeStart {
  std::uint64_t frame_id = 0;
  std::string_view media;
  double freq_mhz = 0.0;          ///< CPU frequency the decode runs at
  double switch_latency_s = 0.0;  ///< PLL retune paid at this boundary
};

/// A decode finished and the frame departed.
struct DecodeDone {
  std::uint64_t frame_id = 0;
  std::string_view media;
  double decode_s = 0.0;      ///< pure decode duration
  double delay_s = 0.0;       ///< total (queue + decode) frame delay
  std::size_t queue_len = 0;  ///< buffer occupancy after the departure
};

/// A detector consumed one interval sample.
struct DetectorSample {
  std::string_view stream;    ///< "arrival" or "service"
  std::string_view detector;  ///< detector name, e.g. "change-point"
  double interval_s = 0.0;    ///< the raw interval fed in
  double rate_hz = 0.0;       ///< estimate after the sample
};

/// A change-point detector evaluated its likelihood test.
struct DetectorDecision {
  std::string_view stream;  ///< "arrival" or "service"
  double ln_p_max = 0.0;    ///< best log-likelihood-ratio statistic
  double threshold = 0.0;   ///< level it had to clear (incl. scan margin)
  bool detected = false;    ///< verdict
  double rate_hz = 0.0;     ///< estimate after the check
};

/// The governor committed a frequency/voltage step to the hardware.
struct FreqCommit {
  std::size_t step = 0;
  double freq_mhz = 0.0;
  double voltage_v = 0.0;
  double switch_latency_s = 0.0;
};

/// The DPM took ownership of an idle period.
struct DpmIdleEnter {
  double hint_s = -1.0;  ///< oracle idle-length hint; < 0 = none
};

/// The DPM commanded the badge into a sleep state.
struct DpmSleepCommand {
  std::string_view state;  ///< "standby" or "off"
};

/// A request ended a sleep; the badge is waking up.
struct DpmWakeup {
  std::string_view from_state;
  double latency_s = 0.0;      ///< wakeup delay paid
  double idle_length_s = 0.0;  ///< length of the idle period that just ended
};

/// One hardware component changed power state.
struct ComponentState {
  std::string_view component;
  std::string_view from;
  std::string_view to;
  double power_mw = 0.0;  ///< power drawn in (or while transitioning to) `to`
};

/// Hardware fault classes.  The ordinal is the flight record's code
/// (docs/OBSERVABILITY.md), so the order is part of the dump format.
enum class FaultKind : std::uint16_t { WakeupDelay, WakeupFail, FreqFail, RailStuck };

/// "wakeup_delay", "wakeup_fail", "freq_fail", "rail_stuck"; "?" for a
/// value outside the enum (e.g. a corrupt dump code).
std::string_view to_string(FaultKind kind);

/// A hardware fault fired (fault-injection runs only).
struct FaultInjected {
  std::string_view kind;   ///< "wakeup_fail", "wakeup_delay", "freq_fail", "rail_stuck"
  double magnitude = 0.0;  ///< fault-specific size (extra delay s, blocked step, ...)
};

/// The governor's watchdog declared sustained overload and escalated.
struct WatchdogEscalate {
  double delay_s = 0.0;     ///< frame delay that tripped the threshold
  double queue_len = 0.0;   ///< buffered frames at escalation time
  double backoff_s = 0.0;   ///< backoff until the next allowed escalation
};

/// The watchdog observed a sustained return to target and left degraded mode.
struct WatchdogRecover {
  double time_degraded_s = 0.0;  ///< length of the degraded episode that ended
};

using Payload = std::variant<FrameArrival, FrameDrop, DecodeStart, DecodeDone,
                             DetectorSample, DetectorDecision, FreqCommit,
                             DpmIdleEnter, DpmSleepCommand, DpmWakeup,
                             ComponentState, FaultInjected, WatchdogEscalate,
                             WatchdogRecover>;

struct Event {
  double ts = 0.0;  ///< simulation time, seconds
  Payload payload;
};

/// Stable snake_case name of the payload type ("frame_arrival", ...).
std::string_view type_name(const Payload& payload);

}  // namespace dvs::obs
