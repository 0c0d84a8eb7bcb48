#include "cli_common.hpp"

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <system_error>
#include <type_traits>

#include "policy/governor_factory.hpp"

namespace dvs::cli {

void usage(const char* msg) {
  std::fprintf(stderr,
               "dvs_sim: %s\n"
               "usage: dvs_sim run|sweep|fleet|serve|report|list [options] "
               "(see the header of tools/dvs_sim_cli.cpp)\n",
               msg);
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const char* text, T lo, T hi) {
  const char* const end = text + std::strlen(text);
  // from_chars takes no '+'; accept one sign, so `--seed +5` is 5.
  const char* const first = text[0] == '+' && text[1] != '-' ? text + 1 : text;
  T value{};
  const auto [stop, ec] = std::from_chars(first, end, value);
  // !(a && b) also rejects a NaN, which compares false both ways.
  if (ec != std::errc{} || stop != end || !(value >= lo && value <= hi)) {
    std::string want;
    if constexpr (std::is_floating_point_v<T>) {
      want = "a finite number";
    } else {
      want = "an integer in [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]";
    }
    usage((flag + ": invalid value '" + text + "' (want " + want + ")")
              .c_str());
  }
  return value;
}

template int parse_number<int>(const std::string&, const char*, int, int);
template std::uint64_t parse_number<std::uint64_t>(const std::string&,
                                                   const char*, std::uint64_t,
                                                   std::uint64_t);
template double parse_number<double>(const std::string&, const char*, double,
                                     double);

CliOptions parse_flags(int argc, char** argv, int first) {
  CliOptions o;
  auto need = [&](int i) -> const char* {
    if (i + 1 >= argc) usage("missing argument value");
    return argv[i + 1];
  };
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--media") { o.run.media = need(i); ++i; }
    else if (a == "--sequence") { o.run.sequence = need(i); ++i; }
    else if (a == "--clip") { o.run.clip = need(i); ++i; }
    else if (a == "--seconds") { o.run.seconds = parse_number<double>(a, need(i)); ++i; }
    else if (a == "--session") { o.run.session = true; }
    else if (a == "--cycles") { o.run.cycles = parse_number<int>(a, need(i)); ++i; }
    else if (a == "--detector") { o.run.detector = need(i); ++i; }
    else if (a == "--policy") { o.run.policy = need(i); ++i; }
    else if (a == "--ema-gain") { o.ema_gain = parse_number<double>(a, need(i)); ++i; }
    else if (a == "--delay") { o.run.delay = parse_number<double>(a, need(i)); ++i; }
    else if (a == "--cv2") { o.run.cv2 = parse_number<double>(a, need(i)); ++i; }
    else if (a == "--dpm") { o.run.dpm = need(i); ++i; }
    else if (a == "--dpm-delay") { o.run.dpm_delay = parse_number<double>(a, need(i)); ++i; }
    else if (a == "--seed") { o.seed = parse_number<std::uint64_t>(a, need(i)); o.seed_set = true; ++i; }
    else if (a == "--scenario") { o.scenario = need(i); ++i; }
    else if (a == "--faults") { o.run.faults = need(i); ++i; }
    else if (a == "--jobs") { o.jobs = parse_number<int>(a, need(i), 0); ++i; }
    else if (a == "--devices") {
      o.devices = parse_number<std::uint64_t>(a, need(i)); ++i;
    }
    else if (a == "--fleet-csv") { o.fleet_csv = need(i); ++i; }
    else if (a == "--shard-size") {
      o.shard_size = parse_number<std::uint64_t>(a, need(i)); ++i;
    }
    else if (a == "--replicates") { o.replicates = parse_number<int>(a, need(i), 0); ++i; }
    else if (a == "--sweep-csv") { o.sweep_csv = need(i); ++i; }
    else if (a == "--save-trace") { o.save_trace = need(i); ++i; }
    else if (a == "--load-trace") { o.load_trace = need(i); ++i; }
    else if (a == "--power-csv") { o.power_csv = need(i); ++i; }
    else if (a == "--trace-jsonl") { o.trace_jsonl = need(i); ++i; }
    else if (a == "--trace-csv") { o.trace_csv = need(i); ++i; }
    else if (a == "--chrome-trace") { o.chrome_trace = need(i); ++i; }
    else if (a == "--metrics-json") { o.metrics_json = need(i); ++i; }
    else if (a == "--ledger-json") { o.ledger_json = need(i); ++i; }
    else if (a == "--flight-dump") { o.flight_dump = need(i); ++i; }
    else if (a == "--flight-dump-dir") { o.flight_dump_dir = need(i); ++i; }
    else if (a == "--flight-capacity") {
      o.flight_capacity = parse_number<std::uint64_t>(a, need(i)); ++i;
    }
    else if (a == "--no-flight-recorder") { o.no_flight = true; }
    else if (a == "--heartbeat") { o.heartbeat = need(i); ++i; }
    else if (a == "--telemetry-jsonl") { o.telemetry_jsonl = need(i); ++i; }
    else if (a == "--telemetry-every") { o.telemetry_every = parse_number<double>(a, need(i)); ++i; }
    else if (a == "--metrics-openmetrics") { o.metrics_openmetrics = need(i); ++i; }
    else if (a == "--self-profile") { o.self_profile = need(i); ++i; }
    else if (a == "--serve-root") { o.serve_root = need(i); ++i; }
    else if (a == "--help" || a == "-h") { usage("help requested"); }
    else { usage(("unknown option " + a).c_str()); }
  }
  if (!o.run.policy.empty() &&
      !policy::GovernorFactory::instance().has(o.run.policy)) {
    std::string known;
    for (const auto& e : policy::GovernorFactory::instance().entries()) {
      if (!known.empty()) known += ", ";
      known += e.name;
    }
    usage(("unknown policy " + o.run.policy + " (known: " + known + ")")
              .c_str());
  }
  return o;
}

std::vector<fault::FaultSpec> resolve_faults(const std::string& csv) {
  try {
    return fault::parse_fault_list(csv);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}

void print_metrics(std::FILE* out, const core::Metrics& m) {
  std::fprintf(out, "duration            %10.1f s\n", m.duration.value());
  std::fprintf(out, "energy              %10.1f J  (%.3f kJ)\n",
               m.total_energy.value(), m.energy_kj());
  std::fprintf(out, "  cpu+memory        %10.1f J\n", m.cpu_memory_energy().value());
  std::fprintf(out, "average power       %10.1f mW\n", m.average_power.value());
  std::fprintf(out, "frames              %10llu arrived, %llu decoded, %llu dropped\n",
               static_cast<unsigned long long>(m.frames_arrived),
               static_cast<unsigned long long>(m.frames_decoded),
               static_cast<unsigned long long>(m.frames_dropped));
  std::fprintf(out, "mean frame delay    %10.3f s  (max %.3f)\n",
               m.mean_frame_delay.value(), m.max_frame_delay.value());
  std::fprintf(out, "mean buffered       %10.2f frames\n", m.mean_buffered_frames);
  std::fprintf(out, "mean cpu frequency  %10.1f MHz  (%d switches)\n",
               m.mean_cpu_frequency.value(), m.cpu_switches);
  std::fprintf(out, "dpm                 %10d idle periods, %d sleeps, %d wakeups,"
               " %.2f s wakeup delay\n",
               m.dpm_idle_periods, m.dpm_sleeps, m.dpm_wakeups,
               m.dpm_total_wakeup_delay.value());
  if (m.faults_injected != 0 || m.watchdog_escalations != 0 ||
      m.watchdog_recoveries != 0) {
    std::fprintf(out, "faults              %10llu injected; watchdog:"
                 " %d escalations, %d recoveries, %.1f s degraded\n",
                 static_cast<unsigned long long>(m.faults_injected),
                 m.watchdog_escalations, m.watchdog_recoveries,
                 m.time_in_degraded.value());
  }
}

bool write_document(const std::string& path, const char* label,
                    std::FILE* hout,
                    const std::function<void(std::ostream&)>& write) {
  if (path.empty()) return true;
  if (path == "-") {
    write(std::cout);
    return true;
  }
  std::ofstream os{path};
  if (!os) {
    std::fprintf(stderr, "dvs_sim: cannot open %s\n", path.c_str());
    return false;
  }
  write(os);
  std::fprintf(hout, "%s -> %s\n", label, path.c_str());
  return true;
}

void warn_clamped_histograms(const obs::MetricsRegistry& registry) {
  for (const auto& [name, frac] : registry.clamped_histograms(0.01)) {
    std::fprintf(stderr,
                 "dvs_sim: warning: histogram %s clamped %.1f%% of samples"
                 " outside its range (see underflow/overflow in the"
                 " metrics JSON; sketch quantiles see the true values)\n",
                 name.c_str(), frac * 100.0);
  }
}

std::string local_time(double ts, const char* fmt) {
  const std::time_t t = static_cast<std::time_t>(ts);
  std::tm tm{};
  localtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, fmt, &tm);
  return buf;
}

std::string event_detail(const serve::ServeEvent& ev) {
  if (ev.type == "daemon_start") return "pid " + std::to_string(ev.pid);
  if (ev.type == "daemon_stop") {
    return "after " + std::to_string(ev.jobs_processed) + " job" +
           (ev.jobs_processed == 1 ? "" : "s");
  }
  if (ev.type == "checkpoint_flush") {
    return std::to_string(ev.units_done) + "/" +
           std::to_string(ev.units_total) + " units durable";
  }
  if (ev.type == "job_finished") {
    return ev.kind + ", " + std::to_string(ev.executed) + " executed, " +
           std::to_string(ev.restored) + " restored";
  }
  if (ev.type == "job_failed") {
    std::string d = ev.error;
    if (!ev.flight_dir.empty()) d += " (flight dumps: " + ev.flight_dir + ")";
    return d;
  }
  return {};
}

}  // namespace dvs::cli
