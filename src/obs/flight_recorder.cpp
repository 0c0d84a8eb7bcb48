#include "obs/flight_recorder.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace dvs::obs {

namespace {

constexpr std::string_view kTypeNames[] = {
    "decode_done",  "frame_drop",        "freq_commit",
    "dpm_idle",     "dpm_sleep",         "dpm_wakeup",
    "component",    "watchdog_escalate", "watchdog_recover",
    "fault",        "trigger",
};
constexpr std::size_t kNumTypes = sizeof kTypeNames / sizeof kTypeNames[0];

/// `text` as an unsigned integer no larger than `max`: digits only (no
/// sign, no blank, no trailing junk), else an error naming `what`.
std::uint64_t read_unsigned(const std::string& text, std::uint64_t max,
                            const std::string& what) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v > max) {
    throw std::runtime_error("flight dump: " + what + ": '" + text +
                             "' is not an unsigned integer <= " +
                             std::to_string(max));
  }
  return v;
}

/// `text` as a T (double or float), whole: no blank, no leading `+`, no
/// trailing junk, else an error naming `what`.  `inf` and `nan` pass: a
/// float payload narrowed from a double beyond float range is infinite.
template <typename T>
T read_real(const std::string& text, const std::string& what) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) {
    throw std::runtime_error("flight dump: " + what + ": '" + text +
                             "' is not a number");
  }
  return v;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::string_view to_string(FlightEventType type) {
  const auto i = static_cast<std::size_t>(type);
  return i < kNumTypes ? kTypeNames[i] : std::string_view{"?"};
}

bool flight_type_from_string(std::string_view name, FlightEventType& out) {
  for (std::size_t i = 0; i < kNumTypes; ++i) {
    if (kTypeNames[i] == name) {
      out = static_cast<FlightEventType>(i);
      return true;
    }
  }
  return false;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(round_up_pow2(capacity == 0 ? 1 : capacity)),
      mask_(ring_.size() - 1) {}

void FlightRecorder::trigger(double ts, std::string_view reason) {
  record(ts, FlightEventType::Trigger,
         static_cast<std::uint16_t>(triggers_ < 0xffff ? triggers_ : 0xffff),
         0.0F, 0.0F);
  ++triggers_;
  if (first_reason_.empty()) first_reason_ = std::string(reason);
  if (!dumped_ && !auto_dump_path_.empty()) {
    dump_to_file(auto_dump_path_, reason);
  }
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::vector<FlightRecord> out;
  const std::uint64_t n = head_ < ring_.size() ? head_ : ring_.size();
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = head_ - n; i < head_; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(i) & mask_]);
  }
  return out;
}

void FlightRecorder::dump(std::ostream& os, std::string_view reason) const {
  os << "# dvs-flight-recorder-v1\n";
  os << "# reason: " << reason << "\n";
  os << "# recorded: " << head_ << "\n";
  os << "# capacity: " << ring_.size() << "\n";
  char line[160];
  for (const FlightRecord& r : snapshot()) {
    std::snprintf(line, sizeof line, "%.9f\t%s\t%u\t%.9g\t%.9g\n", r.ts,
                  std::string(to_string(static_cast<FlightEventType>(r.type)))
                      .c_str(),
                  static_cast<unsigned>(r.code), static_cast<double>(r.a),
                  static_cast<double>(r.b));
    os << line;
  }
}

bool FlightRecorder::dump_to_file(const std::string& path,
                                  std::string_view reason) {
  std::ofstream os{path};
  if (!os) return false;
  dump(os, reason);
  dumped_ = true;
  return true;
}

FlightDump parse_flight_dump(std::istream& is) {
  FlightDump out;
  std::string line;
  if (!std::getline(is, line) || line != "# dvs-flight-recorder-v1") {
    throw std::runtime_error("flight dump: missing dvs-flight-recorder-v1 header");
  }
  const auto header_value = [&](const std::string& l) {
    const std::size_t colon = l.find(": ");
    return colon == std::string::npos ? std::string{} : l.substr(colon + 2);
  };
  std::size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("# reason:", 0) == 0) out.reason = header_value(line);
      if (line.rfind("# recorded:", 0) == 0) {
        out.recorded = read_unsigned(
            header_value(line), std::numeric_limits<std::uint64_t>::max(),
            "header '# recorded'");
      }
      if (line.rfind("# capacity:", 0) == 0) {
        out.capacity = read_unsigned(
            header_value(line), std::numeric_limits<std::size_t>::max(),
            "header '# capacity'");
      }
      continue;
    }
    std::istringstream cells{line};
    std::string ts_s;
    std::string type_s;
    std::string code_s;
    std::string a_s;
    std::string b_s;
    if (!std::getline(cells, ts_s, '\t') || !std::getline(cells, type_s, '\t') ||
        !std::getline(cells, code_s, '\t') || !std::getline(cells, a_s, '\t') ||
        !std::getline(cells, b_s)) {
      throw std::runtime_error("flight dump: malformed record at line " +
                               std::to_string(lineno));
    }
    FlightEventType type{};
    if (!flight_type_from_string(type_s, type)) {
      throw std::runtime_error("flight dump: unknown event type '" + type_s +
                               "' at line " + std::to_string(lineno));
    }
    const std::string at = " at line " + std::to_string(lineno);
    FlightRecord r;
    r.code = static_cast<std::uint16_t>(read_unsigned(
        code_s, std::numeric_limits<std::uint16_t>::max(), "code" + at));
    r.ts = read_real<double>(ts_s, "ts" + at);
    if (!std::isfinite(r.ts)) {
      throw std::runtime_error("flight dump: ts" + at + ": '" + ts_s +
                               "' is not a finite time");
    }
    r.a = read_real<float>(a_s, "a" + at);
    r.b = read_real<float>(b_s, "b" + at);
    r.type = static_cast<std::uint16_t>(type);
    out.records.push_back(r);
  }
  return out;
}

}  // namespace dvs::obs
