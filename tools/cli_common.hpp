// Shared option surface of the dvs_sim subcommands.
//
// One flag vocabulary serves the artifact-producing subcommands (run,
// sweep, fleet, report, list); `serve` parses its own small daemon flag
// set in cmd_serve.cpp.  Subcommand entry points live in cmd_run.cpp /
// cmd_sweep.cpp / cmd_list.cpp; the dispatcher is tools/dvs_sim_cli.cpp.
#pragma once

#include <cstdio>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/sweep.hpp"
#include "fault/fault_spec.hpp"
#include "obs/metrics_registry.hpp"
#include "serve/event_log.hpp"

namespace dvs::cli {

struct CliOptions {
  /// run: the single-run request (--media, --sequence, --clip, --seconds,
  /// --session, --cycles, --detector, --policy, --delay, --cv2, --dpm,
  /// --dpm-delay, --faults).  sweep reads only `policy` and `faults`, as
  /// overrides of the scenario's policy and fault axes.
  core::RunRequest run;
  double ema_gain = 0.03;
  std::uint64_t seed = 1;
  bool seed_set = false;
  std::string scenario;
  /// fleet: spec name (positional operand of `dvs_sim fleet`).
  std::string fleet;
  /// fleet: device-count override (0 = the spec's population size).
  std::size_t devices = 0;
  /// fleet: write <base>_fleet.csv (population slices + total row).
  std::string fleet_csv;
  /// fleet: devices per work-stealing shard (0 = FleetOptions default).
  std::size_t shard_size = 0;
  int jobs = 1;
  int replicates = 0;  // 0 = scenario default
  std::string sweep_csv;
  std::string save_trace;
  std::string load_trace;
  std::string power_csv;
  std::string trace_jsonl;
  std::string trace_csv;
  std::string chrome_trace;
  std::string metrics_json;
  std::string ledger_json;
  /// run: arms the flight-recorder auto-dump at this path.
  /// report: an existing dump to analyze.
  std::string flight_dump;
  /// sweep: directory for per-point auto-dumps (CI failure artifacts).
  std::string flight_dump_dir;
  std::size_t flight_capacity = 0;  // 0 = FlightRecorder default
  bool no_flight = false;
  /// sweep: live progress heartbeat JSONL path ("-" = stderr).
  std::string heartbeat;
  /// run/sweep: append-only telemetry snapshot JSONL (file path).
  /// report: an existing snapshot series to analyze.
  std::string telemetry_jsonl;
  /// run: sim-time snapshot cadence in seconds (default 1.0).
  /// sweep: minimum wall-time between per-point snapshots (default 0 =
  /// every finished point).
  double telemetry_every = 0.0;
  /// run/sweep: OpenMetrics text exposition ("-" = stdout).
  std::string metrics_openmetrics;
  /// run: write the hierarchical span profile (collapsed-stack format).
  /// report: an existing profile to analyze.
  std::string self_profile;
  /// report: a serve daemon root to merge (event timeline + per-job
  /// rollups from done/<id>.out/job_summary.json).
  std::string serve_root;
};

/// Prints `msg` and exits 2 (the CLI's usage-error code).
[[noreturn]] void usage(const char* msg);

/// The value of numeric flag `flag`: the whole of `text` must parse as a T
/// in [lo, hi] (for floating point, also finite); anything else exits via
/// usage() naming the flag.  One leading '+' is accepted; whitespace is
/// not.  An unsigned T rejects a leading '-' instead of wrapping it
/// around.  Defined for int, std::uint64_t and double.
template <typename T>
T parse_number(const std::string& flag, const char* text,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max());

/// Parses the shared flag vocabulary starting at argv[first]; exits via
/// usage() on unknown flags or missing values.
CliOptions parse_flags(int argc, char** argv, int first);

/// Resolves --faults into specs; exits with usage() on unknown names.
std::vector<fault::FaultSpec> resolve_faults(const std::string& csv);

void print_metrics(std::FILE* out, const core::Metrics& m);

/// Writes one machine document to `path` through `write`: "-" is stdout;
/// a file also gets a "<label> -> <path>" note on `hout`.  An empty path
/// writes nothing.  Returns false, after reporting on stderr, when the file
/// cannot be opened.
bool write_document(const std::string& path, const char* label,
                    std::FILE* hout,
                    const std::function<void(std::ostream&)>& write);

/// Warns on stderr about every histogram that counted more than 1% of its
/// samples as underflow/overflow (its [lo, hi) range is too narrow).
void warn_clamped_histograms(const obs::MetricsRegistry& registry);

/// Unix seconds as local wall-clock time in strftime format `fmt`.
std::string local_time(double ts, const char* fmt);

/// The event-specific fields of a lifecycle event as one line of prose
/// (what `tail` and `report --serve-root` print after the job id).
std::string event_detail(const serve::ServeEvent& ev);

// ---- subcommand entry points --------------------------------------------------

/// `dvs_sim run`: one engine session (single trace or mixed session).
int cmd_run(const CliOptions& o);

/// `dvs_sim sweep`: a scenario grid through the SweepRunner.
int cmd_sweep(const CliOptions& o);

/// `dvs_sim fleet`: a device population through the FleetRunner.
int cmd_fleet(const CliOptions& o);

/// `dvs_sim report`: offline analyzer over run/sweep artifacts
/// (metrics JSON, ledger JSON, JSONL traces, flight-recorder dumps).
int cmd_report(const CliOptions& o);

/// `dvs_sim serve <dir>`: the job-queue daemon (parses its own flags —
/// the daemon surface is directories and cadences, not run parameters).
int cmd_serve(int argc, char** argv, int first);

/// `dvs_sim status <root>`: one-shot view of a daemon's status.json
/// (parses its own flags, like serve).
int cmd_status(int argc, char** argv, int first);

/// `dvs_sim tail <root>`: follow the daemon's lifecycle event log; exits
/// cleanly when a daemon_stop event is the newest record.
int cmd_tail(int argc, char** argv, int first);

int cmd_list_scenarios();
int cmd_list_faults();
/// `dvs_sim list fleets`: the built-in fleet populations.
int cmd_list_fleets();
/// `dvs_sim list policies`: the registered governor policies.
int cmd_list_policies();
/// `dvs_sim list metrics`: stock metric families + OpenMetrics names
/// (enumerated from a real minimal run, so the list cannot drift).
int cmd_list_metrics();
/// `dvs_sim list schemas`: the versioned JSON/text schema identifiers this
/// repo emits and which subcommand produces each.
int cmd_list_schemas();

}  // namespace dvs::cli
