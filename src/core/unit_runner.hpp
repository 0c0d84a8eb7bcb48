// The unit runner: the one execution substrate under SweepRunner (a unit
// is a RunPoint) and FleetRunner (a unit is a shard of devices).
//
// A run is N independent units, each computing one Partial into its own
// slot.  Units restored from a checkpoint are copied into their slots and
// never executed; the rest run on parallel_for's work-stealing pool, and
// the slots come back in index order for the caller's pinned serial fold —
// which is why results are byte-identical at any --jobs and across a
// SIGKILL-restore.
//
// Progress is a side channel that never feeds results.  Every finished
// unit, on the worker thread that executed it and under one progress
// lock, (1) calls the caller's observer (checkpoint append, daemon
// progress), (2) advances done/total — restored units count as already
// done, (3) writes one flushed heartbeat JSONL line and (4) takes one
// telemetry snapshot.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/telemetry/snapshotter.hpp"

namespace dvs::core {

/// Resolves a --jobs value: 0 means hardware concurrency, floor 1.
int resolve_jobs(int jobs);

/// Runs fn(i) for every i in [0, n) on `jobs` threads.  Work is split into
/// per-worker ranges; idle workers steal from the back of the busiest
/// victim's remainder.  jobs <= 1 (after resolution) runs inline.  The
/// first exception thrown by fn is rethrown after all workers stop.
void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& fn);

/// The options every unit runner shares (SweepOptions and FleetOptions
/// derive from this).
struct UnitRunOptions {
  int jobs = 1;  ///< 0 = hardware concurrency
  /// Non-empty: live progress heartbeat as JSONL, one flushed object per
  /// finished unit (done/total, elapsed, ETA, the unit's own fields).
  /// "-" = stderr.  Telemetry only — it never influences results.
  std::string heartbeat_path;
  /// Non-empty: every heartbeat record leads with a `"job":"<id>"` member —
  /// the serve daemon's trace context, linking a heartbeat line back to the
  /// job (and its checkpoint/event records) that produced it.
  std::string heartbeat_job;
  /// Live telemetry: one snapshot per finished unit, wall-clock `t`,
  /// completion order (same contract as the heartbeat).
  obs::TelemetrySnapshotter* telemetry = nullptr;
};

/// One finished unit as the heartbeat and the telemetry snapshot show it.
struct UnitReport {
  /// The unit's heartbeat members after `eta_s`, pre-rendered JSON
  /// (`"point":3,...`, no braces).
  std::string heartbeat;
  /// The unit's snapshot fields after `done` and `total`.
  obs::TelemetrySnapshotter::Live live;
  /// The snapshot's registry; null = an empty one.
  const obs::MetricsRegistry* registry = nullptr;
};

/// How a run and its progress are named in the heartbeat and telemetry.
struct UnitLabels {
  const char* key = "";     ///< heartbeat member naming the run
  std::string name;         ///< its value: the scenario / fleet name
  const char* source = "";  ///< telemetry snapshot source tag
  std::size_t total = 0;    ///< progress total, in weight units
};

/// One kind of unit: what the runner needs beyond the partial type.
template <class Partial>
struct UnitKind : UnitLabels {
  /// Counts a done unit into the caller's running progress state and
  /// returns its progress weight (a shard counts its devices); empty = 1.
  /// Called once per unit: for restored units before any unit runs, for
  /// executed ones under the progress lock after the observer.
  std::function<std::size_t(const Partial&)> tally;
  /// Computes unit i into its slot, on a worker thread.
  std::function<void(std::size_t, Partial&)> execute;
  /// The caller's observer: every executed unit, on its worker thread,
  /// under the progress lock, before the heartbeat line.  May be empty.
  std::function<void(std::size_t, const Partial&)> observe;
  /// Describes a finished unit; called under the progress lock, only when
  /// a heartbeat or telemetry sink is on.
  std::function<UnitReport(std::size_t, const Partial&)> report;
};

namespace detail {
/// The partial-free body of run_units; `observe` may be empty.
void run_units(std::size_t n, const std::vector<char>& restored,
               std::size_t restored_weight, const UnitRunOptions& opts,
               std::chrono::steady_clock::time_point t0,
               const UnitLabels& labels,
               const std::function<void(std::size_t)>& execute,
               const std::function<void(std::size_t)>& observe,
               const std::function<std::size_t(std::size_t)>& tally,
               const std::function<UnitReport(std::size_t)>& report);
}  // namespace detail

/// Runs every unit of `kind` not in `restored` on opts.jobs workers and
/// returns all N partials in index order (restored ones copied verbatim).
/// `t0` anchors the heartbeat's and snapshots' elapsed time.
template <class Partial>
std::vector<Partial> run_units(std::size_t n,
                               const std::map<std::size_t, Partial>* restored,
                               const UnitRunOptions& opts,
                               std::chrono::steady_clock::time_point t0,
                               const UnitKind<Partial>& kind) {
  std::vector<Partial> parts(n);
  std::vector<char> skip(n, 0);
  const auto tally = [&kind](const Partial& p) -> std::size_t {
    return kind.tally ? kind.tally(p) : 1;
  };
  std::size_t restored_weight = 0;
  if (restored != nullptr) {
    for (const auto& [i, part] : *restored) {
      if (i >= n) continue;
      parts[i] = part;
      skip[i] = 1;
      restored_weight += tally(part);
    }
  }
  std::function<void(std::size_t)> observe;
  if (kind.observe) observe = [&](std::size_t i) { kind.observe(i, parts[i]); };
  detail::run_units(
      n, skip, restored_weight, opts, t0, kind,
      [&](std::size_t i) { kind.execute(i, parts[i]); }, observe,
      [&](std::size_t i) { return tally(parts[i]); },
      [&](std::size_t i) { return kind.report(i, parts[i]); });
  return parts;
}

}  // namespace dvs::core
