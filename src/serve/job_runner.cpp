#include "serve/job_runner.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/csv.hpp"
#include "core/sweep.hpp"
#include "fleet/fleet_runner.hpp"
#include "serve/checkpoint.hpp"
#include "serve/status.hpp"

namespace dvs::serve {
namespace {

namespace fs = std::filesystem;

/// The one path every job shares: load what an interrupted run left
/// behind, append every executed fold-unit to the checkpoint, tell the
/// daemon, flush at the end, and summarize.  A run-kind job is a single
/// unit and never checkpoints.
class JobSession {
 public:
  JobSession(const JobSpec& spec, const JobPaths& paths, std::size_t total)
      : spec_(spec), paths_(paths), total_(total) {
    const std::string& path = paths.checkpoint_path;
    if (path.empty() || spec.kind == JobKind::Run) return;
    restored_ = load_checkpoint(path);
    if (!restored_.empty() && restored_.kind != to_string(spec.kind)) {
      throw std::runtime_error("checkpoint " + path + " is for a " +
                               restored_.kind + " job, not " +
                               to_string(spec.kind));
    }
    writer_.emplace(path, spec.id, to_string(spec.kind), spec.checkpoint_every);
    done_ = restored_.points.size() + restored_.shards.size();
  }

  [[nodiscard]] const CheckpointData& restored() const { return restored_; }

  /// The runner's unit observer: records the unit through
  /// `append(writer, unit...)` when checkpointing, then tells the daemon.
  /// Installed only when listened(), so unobserved runs skip the lock.
  template <class Append>
  auto observer(Append append) {
    return [this, append](const auto&... unit) {
      const bool flushed = writer_ && append(*writer_, unit...);
      if (paths_.on_progress) paths_.on_progress({++done_, total_, flushed});
    };
  }
  [[nodiscard]] bool listened() const {
    return writer_.has_value() || static_cast<bool>(paths_.on_progress);
  }

  /// Flushes the checkpoint, fills the summary's shared fields, writes it.
  JobOutcome finish(JobSummary& summary, double elapsed_s) {
    if (writer_) writer_->flush();
    JobOutcome out;
    out.restored_units = restored_.points.size() + restored_.shards.size();
    out.executed_units = total_ - std::min(total_, out.restored_units);
    summary.job_id = spec_.id;
    summary.kind = to_string(spec_.kind);
    summary.units_total = total_;
    summary.executed = out.executed_units;
    summary.restored = out.restored_units;
    summary.elapsed_s = elapsed_s;
    write_job_summary(summary, paths_.output_dir + "/job_summary.json");
    return out;
  }

 private:
  const JobSpec& spec_;
  const JobPaths& paths_;
  std::size_t total_;
  CheckpointData restored_;
  std::optional<CheckpointWriter> writer_;
  std::size_t done_ = 0;  ///< restored + executed units (progress lock)
};

JobOutcome run_sweep_job(const JobSpec& spec, const JobPaths& paths,
                         int jobs) {
  core::ScenarioSpec scenario = *spec.spec_scenario();
  if (spec.sweep.replicates > 0) scenario.replicates = spec.sweep.replicates;
  if (spec.seed_set) scenario.base_seed = spec.seed;
  if (!spec.sweep.faults.empty()) {
    scenario.faults = fault::parse_fault_list(spec.sweep.faults);
  }
  if (!spec.sweep.policy.empty()) scenario.policies = {spec.sweep.policy};

  JobSession job(spec, paths, scenario.num_points());
  core::SweepOptions sopts;
  sopts.jobs = jobs;
  // Always collect quantiles: the cells CSV must carry the same percentile
  // columns whether the job ran straight through or resumed from a
  // checkpoint, and restored sketches can only merge into collected ones.
  sopts.collect_quantiles = true;
  sopts.heartbeat_path = paths.output_dir + "/heartbeat.jsonl";
  sopts.heartbeat_job = spec.id;
  // Anomaly auto-dumps land with the job's other artifacts, not the
  // daemon's CWD; the point/replicate in the name is the trace context
  // back to the checkpoint record.
  const std::string flight_dir = paths.output_dir + "/flight";
  fs::create_directories(flight_dir);
  const std::string scenario_name = scenario.name;
  sopts.configure_run = [flight_dir, scenario_name](const core::RunPoint& p,
                                                    core::RunOptions& ropts) {
    ropts.flight_dump_path = flight_dir + "/" + scenario_name + "_point" +
                             std::to_string(p.index) + "_rep" +
                             std::to_string(p.replicate) + ".flight.txt";
  };
  if (!job.restored().points.empty()) sopts.restored = &job.restored().points;
  if (job.listened()) {
    sopts.on_point_checkpoint = job.observer(
        [](CheckpointWriter& w, const core::RunPoint& p, const core::Metrics& m,
           const obs::QuantileSketch& sketch) {
          return w.append_point(p.index, m, sketch);
        });
  }

  const core::SweepResult res = core::SweepRunner{sopts}.run(scenario);
  CsvWriter cells{paths.output_dir + "/sweep_cells.csv"};
  res.write_cells_csv(cells);
  CsvWriter points{paths.output_dir + "/sweep_points.csv"};
  res.write_points_csv(points);

  JobSummary summary;
  for (const core::PointResult& p : res.points) {
    summary.frames_decoded += p.metrics.frames_decoded;
    summary.frames_dropped += p.metrics.frames_dropped;
    summary.energy_j += p.metrics.total_energy.value();
    summary.frame_delay_sum_s += p.metrics.mean_frame_delay.value() *
                                 static_cast<double>(p.metrics.frames_decoded);
  }
  // Cell order — the same pinned fold the cells CSV uses, so the summary
  // sketch is byte-stable at any --jobs and across restarts.
  for (const core::CellResult& c : res.cells) {
    summary.frame_delay_sketch.merge(c.delay_sketch);
  }
  return job.finish(summary, res.wall_seconds);
}

JobOutcome run_fleet_job(const JobSpec& spec, const JobPaths& paths,
                         int jobs) {
  dvs::fleet::FleetSpec fspec = *spec.spec_fleet();
  if (spec.fleet.devices > 0) fspec.num_devices = spec.fleet.devices;
  if (spec.seed_set) fspec.fleet_seed = spec.seed;

  dvs::fleet::FleetOptions fopts;
  fopts.jobs = jobs;
  if (spec.fleet.shard_size > 0) fopts.shard_size = spec.fleet.shard_size;
  fopts.heartbeat_path = paths.output_dir + "/heartbeat.jsonl";
  fopts.heartbeat_job = spec.id;
  const std::size_t shards =
      (fspec.num_devices + fopts.shard_size - 1) / fopts.shard_size;
  JobSession job(spec, paths, shards);
  if (!job.restored().shards.empty()) fopts.restored = &job.restored().shards;
  if (job.listened()) {
    fopts.on_shard = job.observer(
        [](CheckpointWriter& w, std::size_t shard,
           const dvs::fleet::FleetShardPartial& part) {
          return w.append_shard(shard, part);
        });
  }

  const dvs::fleet::FleetResult res = dvs::fleet::FleetRunner{fopts}.run(fspec);
  CsvWriter csv{paths.output_dir + "/fleet.csv"};
  res.write_csv(csv);

  JobSummary summary;
  summary.frames_decoded = res.total.frames_decoded;
  summary.frames_dropped = res.total.frames_dropped;
  summary.energy_j = res.total.energy_j;
  // Over-devices distribution (one sample per device's mean delay) — the
  // fleet-wide fold, already pinned in shard order by the runner.
  summary.device_delay_sketch = res.total.delay_sketch;
  summary.device_delay_sum_s = res.total.sum_mean_delay_s;
  return job.finish(summary, res.wall_seconds);
}

JobOutcome run_run_job(const JobSpec& spec, const JobPaths& paths) {
  const auto t0 = std::chrono::steady_clock::now();
  // The sweep point's construction path (core::RunRequest).
  const core::RunRequest& r = spec.run;
  const std::uint64_t seed = spec.seed_set ? spec.seed : 1;
  const core::CpuAsset cpu = core::build_cpu_asset("sa1100");
  const fault::FaultSpec plan = r.fault_plan();
  const core::WorkloadAsset asset = core::build_workload_asset(
      r.workload(), cpu.cpu, seed, plan, core::mix_seed(seed, 0xfa));
  const core::RunAssembly assembly = r.assembly(seed, plan);
  core::DetectorFactoryConfig detector_cfg;
  if (assembly.detector == core::DetectorKind::ChangePoint) {
    detector_cfg.prepare();
  }
  core::RunOptions opts =
      core::assemble_run_options(assembly, cpu, asset.idle, detector_cfg);
  // Observability attachments: a private registry harvests the frame-delay
  // sketch for job_summary.json, and the flight recorder's auto-dump is
  // routed next to the job's other artifacts.  Neither feeds the results.
  obs::MetricsRegistry reg;
  opts.metrics = &reg;
  const std::string flight_dir = paths.output_dir + "/flight";
  fs::create_directories(flight_dir);
  opts.flight_dump_path = flight_dir + "/run.flight.txt";
  const core::Metrics m = core::run_items(*asset.items, opts);

  // The run's machine artifact: a one-row CSV with the table-level numbers
  // (%.17g comes only from checkpoints; this is a report, not a fold input).
  CsvWriter csv{paths.output_dir + "/run.csv"};
  csv.write_row(std::vector<std::string>{
      "duration_s", "energy_j", "avg_power_mw", "frames_decoded",
      "frames_dropped", "mean_delay_s", "max_delay_s", "cpu_switches",
      "dpm_sleeps"});
  csv.write_row(std::vector<double>{
      m.duration.value(), m.total_energy.value(), m.average_power.value(),
      static_cast<double>(m.frames_decoded),
      static_cast<double>(m.frames_dropped), m.mean_frame_delay.value(),
      m.max_frame_delay.value(), static_cast<double>(m.cpu_switches),
      static_cast<double>(m.dpm_sleeps)});

  JobSummary summary;
  summary.frames_decoded = m.frames_decoded;
  summary.frames_dropped = m.frames_dropped;
  summary.energy_j = m.total_energy.value();
  if (const obs::HistogramMetric* h = reg.find_histogram("frames.delay_s")) {
    summary.frame_delay_sketch = h->sketch();
    summary.frame_delay_sum_s = h->sum();
  }
  const JobOutcome out = JobSession(spec, paths, 1).finish(
      summary,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
  if (paths.on_progress) paths.on_progress({1, 1, false});
  return out;
}

}  // namespace

JobOutcome run_job(const JobSpec& spec, const JobPaths& paths,
                   int default_jobs) {
  spec.validate();
  fs::create_directories(paths.output_dir);
  const int jobs = spec.jobs > 0 ? spec.jobs : default_jobs;

  JobOutcome out;
  switch (spec.kind) {
    // A run job is one engine run, serial whatever `jobs` says.
    case JobKind::Run: out = run_run_job(spec, paths); break;
    case JobKind::Sweep: out = run_sweep_job(spec, paths, jobs); break;
    case JobKind::Fleet: out = run_fleet_job(spec, paths, jobs); break;
  }
  // Success: the checkpoint has served its purpose; a finished job must
  // never be "resumed".
  if (!paths.checkpoint_path.empty()) {
    std::error_code ec;
    fs::remove(paths.checkpoint_path, ec);
  }
  return out;
}

}  // namespace dvs::serve
