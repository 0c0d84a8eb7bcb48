#include "core/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "fault/trace_transforms.hpp"
#include "hw/smartbadge.hpp"
#include "policy/governor_factory.hpp"
#include "policy/optimal_oracle.hpp"
#include "workload/clips.hpp"
#include "workload/trace.hpp"

namespace dvs::core {

double t95_quantile(std::size_t df) {
  // Two-sided 95% (upper 97.5%) Student-t critical values, df = 1..30.
  static constexpr double kTable[30] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  if (df <= 30) return kTable[df - 1];
  return 1.960;
}

Aggregate aggregate(const RunningStats& s) {
  Aggregate a;
  a.n = s.count();
  if (a.n == 0) return a;
  a.mean = s.mean();
  if (a.n >= 2) {
    a.stddev = s.stddev();
    a.ci95_half =
        t95_quantile(a.n - 1) * a.stddev / std::sqrt(static_cast<double>(a.n));
  }
  return a;
}

CpuAsset build_cpu_asset(const std::string& name) {
  CpuAsset a{cpu_by_name(name), {}};
  const hw::SmartBadge badge{a.cpu};
  a.costs = dpm::smartbadge_cost_model(badge);
  return a;
}

WorkloadAsset trace_asset(workload::FrameTrace trace, const hw::Sa1100& cpu) {
  const workload::MediaType type = trace.type();
  const workload::DecoderModel dec =
      type == workload::MediaType::Mp3Audio
          ? workload::reference_mp3_decoder(cpu.max_frequency())
          : workload::reference_mpeg_decoder(cpu.max_frequency());
  const Seconds end = trace.duration();
  auto items = std::make_shared<std::vector<PlaybackItem>>();
  items->push_back(PlaybackItem{std::move(trace), dec,
                                default_nominal_arrival(type),
                                default_nominal_service(type), end});
  return WorkloadAsset{std::move(items), default_idle_distribution()};
}

WorkloadAsset build_workload_asset(const WorkloadSpec& w,
                                   const hw::Sa1100& cpu,
                                   std::uint64_t trace_seed,
                                   const fault::FaultSpec& faults,
                                   std::uint64_t fault_seed) {
  // Workload fault transforms run here, once per shared asset: every
  // detector/DPM combination of the same row and fault spec sees the exact
  // same perturbed trace (the Tables-3/4 "same inputs" contract survives
  // fault injection).  One Rng walks the items in order — deterministic
  // because the item list itself is deterministic in trace_seed.
  Rng fault_rng{fault_seed};
  const auto perturb = [&](workload::FrameTrace trace) {
    if (faults.trace_faults.empty()) return trace;
    return fault::apply_faults(trace, faults.trace_faults, fault_rng);
  };
  Rng rng{trace_seed};
  switch (w.kind) {
    case WorkloadKind::Mp3Sequence: {
      const workload::DecoderModel dec =
          workload::reference_mp3_decoder(cpu.max_frequency());
      return trace_asset(
          perturb(workload::build_mp3_trace(
              workload::mp3_sequence(w.mp3_labels), dec, rng)),
          cpu);
    }
    case WorkloadKind::MpegClip: {
      if (w.mpeg_clip != "football" && w.mpeg_clip != "terminator2") {
        throw std::invalid_argument("WorkloadSpec: unknown mpeg clip '" +
                                    w.mpeg_clip + "'");
      }
      workload::MpegClip clip = w.mpeg_clip == "terminator2"
                                    ? workload::terminator2_clip()
                                    : workload::football_clip();
      if (w.mpeg_limit.value() > 0.0) {
        clip.duration =
            seconds(std::min(w.mpeg_limit.value(), clip.duration.value()));
      }
      const workload::DecoderModel dec =
          workload::reference_mpeg_decoder(cpu.max_frequency());
      return trace_asset(perturb(workload::build_mpeg_trace(clip, dec, rng)),
                         cpu);
    }
    case WorkloadKind::Session: {
      SessionConfig cfg = w.session;
      cfg.seed = trace_seed;
      Session session = build_session(cfg, cpu);
      if (!faults.trace_faults.empty()) {
        for (PlaybackItem& item : session.items) {
          // Per-item perturbation; the item's scheduled end is preserved so
          // the session timeline (idle gaps included) stays intact.
          item.trace = perturb(std::move(item.trace));
        }
      }
      return WorkloadAsset{std::make_shared<const std::vector<PlaybackItem>>(
                               std::move(session.items)),
                           session.idle_model};
    }
  }
  return {};
}

RunOptions assemble_run_options(const RunAssembly& a, const CpuAsset& cpu,
                                const dpm::IdleDistributionPtr& idle,
                                const DetectorFactoryConfig& detector_cfg) {
  RunOptions opts;
  opts.detector = a.detector;
  opts.policy = a.policy;
  opts.target_delay = a.delay_target;
  opts.service_cv2 = a.service_cv2;
  opts.detector_cfg = &detector_cfg;
  opts.dpm_policy = make_dpm_policy(a.dpm, cpu.costs, idle);
  opts.seed = a.engine_seed;
  opts.cpu = &cpu.cpu;
  if (a.faults != nullptr) {
    opts.watchdog = a.faults->watchdog;
    opts.hw_faults = a.faults->hw;
  }
  return opts;
}

RunOptions assemble_run_options(const RunPoint& p, const CpuAsset& cpu,
                                const dpm::IdleDistributionPtr& idle,
                                const DetectorFactoryConfig& detector_cfg) {
  RunAssembly a;
  a.detector = p.detector;
  a.policy = p.policy;
  a.delay_target = p.delay_target;
  a.service_cv2 = p.service_cv2;
  a.dpm = p.dpm;
  a.engine_seed = p.engine_seed;
  a.faults = &p.faults;
  return assemble_run_options(a, cpu, idle, detector_cfg);
}

// ---- single runs --------------------------------------------------------------

namespace {

[[noreturn]] void bad_field(const char* field, const std::string& what) {
  throw std::invalid_argument(std::string(field) + ": " + what);
}

}  // namespace

void RunRequest::validate() const {
  if (media != "mp3" && media != "mpeg") {
    bad_field("media", "unknown media \"" + media + "\" (mp3|mpeg)");
  }
  if (cycles <= 0) bad_field("cycles", "must be > 0");
  const auto non_negative = [](const char* field, double v) {
    if (!std::isfinite(v) || v < 0.0) {
      bad_field(field, "must be finite and >= 0");
    }
  };
  non_negative("seconds", seconds);
  non_negative("dpm_delay", dpm_delay);
  non_negative("delay", delay);
  non_negative("cv2", cv2);
  if (!session && media == "mpeg" && clip != "football" &&
      clip != "terminator2") {
    bad_field("clip",
              "unknown clip \"" + clip + "\" (football|terminator2)");
  }
  // Table 2's clip labels.
  if (!session && media == "mp3" &&
      (sequence.empty() ||
       sequence.find_first_not_of("ABCDEF") != std::string::npos)) {
    bad_field("sequence", "\"" + sequence +
                              "\" is not a sequence of clip labels A-F");
  }
  if (!detector_kind_from_string(detector)) {
    bad_field("detector", "unknown detector \"" + detector + "\"");
  }
  if (!policy.empty() && !policy::GovernorFactory::instance().has(policy)) {
    bad_field("policy", "unknown policy \"" + policy + "\"");
  }
  if (!dpm_kind_from_string(dpm)) {
    bad_field("dpm", "unknown dpm policy \"" + dpm + "\"");
  }
  if (!faults.empty()) {
    try {
      (void)fault::parse_fault_list(faults);
    } catch (const std::invalid_argument& e) {
      bad_field("faults", e.what());
    }
  }
}

WorkloadSpec RunRequest::workload() const {
  if (session) {
    SessionConfig cfg;
    cfg.cycles = cycles;
    if (seconds > 0.0) cfg.mpeg_segment = Seconds{seconds};
    return WorkloadSpec::usage_session(std::move(cfg));
  }
  if (media == "mpeg") return WorkloadSpec::mpeg(clip, Seconds{seconds});
  return WorkloadSpec::mp3(sequence);
}

fault::FaultSpec RunRequest::fault_plan() const {
  if (faults.empty()) return {};
  const std::vector<fault::FaultSpec> specs = fault::parse_fault_list(faults);
  fault::FaultSpec plan = specs.front();
  for (std::size_t i = 1; i < specs.size(); ++i) {
    plan.trace_faults.insert(plan.trace_faults.end(),
                             specs[i].trace_faults.begin(),
                             specs[i].trace_faults.end());
  }
  return plan;
}

RunAssembly RunRequest::assembly(std::uint64_t seed,
                                 const fault::FaultSpec& plan) const {
  RunAssembly a;
  a.detector = detector_kind_from_string(detector).value();
  if (!policy.empty()) a.policy = policy;
  a.delay_target =
      delay > 0.0 ? Seconds{delay} : workload().default_delay_target();
  a.service_cv2 = cv2;
  a.dpm.kind = dpm_kind_from_string(dpm).value();
  a.dpm.max_delay = Seconds{dpm_delay};
  a.engine_seed = seed;
  a.faults = &plan;
  return a;
}

const CellResult* SweepResult::find_cell(
    const std::function<bool(const CellResult&)>& pred) const {
  for (const CellResult& c : cells) {
    if (pred(c)) return &c;
  }
  return nullptr;
}

SweepResult SweepRunner::run(const ScenarioSpec& spec) const {
  SweepResult out;
  out.scenario = spec.name;
  out.jobs = resolve_jobs(opts_.jobs);

  std::vector<RunPoint> points = spec.expand();

  // ---- shared immutable assets, built once ------------------------------
  DetectorFactoryConfig detector_cfg = spec.detector_cfg;
  for (DetectorKind d : spec.detectors) {
    if (d == DetectorKind::ChangePoint) {
      detector_cfg.prepare();
      break;
    }
  }

  std::vector<CpuAsset> cpu_assets;
  cpu_assets.reserve(spec.cpus.size());
  for (const std::string& name : spec.cpus) {
    cpu_assets.push_back(build_cpu_asset(name));
  }

  // Shared assets and oracle solves are built on the worker pool, each
  // into its own key-indexed slot; every build depends only on its key's
  // seeds, so the slots hold the same bytes at any --jobs.
  const std::size_t num_asset_keys = spec.cpus.size() * spec.workloads.size() *
                                     static_cast<std::size_t>(spec.replicates) *
                                     spec.faults.size();
  const auto asset_key = [&](const RunPoint& p) {
    return ((p.cpu_idx * spec.workloads.size() + p.workload_idx) *
                static_cast<std::size_t>(spec.replicates) +
            static_cast<std::size_t>(p.replicate)) *
               spec.faults.size() +
           p.fault_idx;
  };
  std::vector<WorkloadAsset> workload_assets(num_asset_keys);
  {
    // The first point of each key carries the key's seeds and fault spec.
    std::vector<const RunPoint*> first(num_asset_keys, nullptr);
    for (const RunPoint& p : points) {
      const RunPoint*& slot = first[asset_key(p)];
      if (slot == nullptr) slot = &p;
    }
    parallel_for(num_asset_keys, out.jobs, [&](std::size_t key) {
      const RunPoint* p = first[key];
      if (p == nullptr) return;
      workload_assets[key] =
          build_workload_asset(p->workload, cpu_assets[p->cpu_idx].cpu,
                               p->trace_seed, p->faults, p->fault_seed);
    });
  }

  // ---- offline-optimal oracle, solved before dispatch -------------------
  // One taut-string solve per (workload asset, delay target): every policy
  // and detector on the same trace divides by the same lower bound.  Each
  // solve fills its own slot before any point runs, so the ratios are
  // byte-identical at any --jobs.
  std::map<std::pair<std::size_t, double>, std::size_t> oracle_slot;
  std::vector<double> oracle_energy;
  if (spec.oracle) {
    std::vector<const RunPoint*> solves;
    for (const RunPoint& p : points) {
      const auto key = std::make_pair(asset_key(p), p.delay_target.value());
      if (oracle_slot.emplace(key, solves.size()).second) solves.push_back(&p);
    }
    oracle_energy.resize(solves.size());
    parallel_for(solves.size(), out.jobs, [&](std::size_t i) {
      const RunPoint& p = *solves[i];
      std::vector<policy::OracleJob> jobs;
      for (const PlaybackItem& item : *workload_assets[asset_key(p)].items) {
        policy::OptimalOracle::append_jobs(item.trace, item.decoder,
                                           p.delay_target, jobs);
      }
      const policy::OptimalOracle oracle{cpu_assets[p.cpu_idx].cpu};
      oracle_energy[i] = oracle.solve(std::move(jobs)).discrete_energy.value();
    });
  }

  // ---- execute ----------------------------------------------------------
  // Per-point registries: each worker writes only its own slot, and the
  // serial fold afterwards walks expansion order, so quantile collection
  // keeps the bit-identical-at-any---jobs contract.
  const bool collect = opts_.collect_quantiles || opts_.metrics != nullptr;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> point_regs;
  if (collect) {
    point_regs.resize(points.size());
    for (auto& r : point_regs) r = std::make_unique<obs::MetricsRegistry>();
  }
  const auto delay_sketch = [&](std::size_t i) -> const obs::QuantileSketch* {
    const obs::HistogramMetric* h =
        collect ? point_regs[i]->find_histogram("frames.delay_s") : nullptr;
    return h != nullptr ? &h->sketch() : nullptr;
  };

  UnitKind<RestoredPoint> kind;
  kind.key = "scenario";
  kind.name = spec.name;
  kind.source = "sweep";
  kind.total = points.size();
  kind.execute = [&](std::size_t i, RestoredPoint& part) {
    const RunPoint& p = points[i];
    const CpuAsset& cpu = cpu_assets[p.cpu_idx];
    const WorkloadAsset& asset = workload_assets[asset_key(p)];
    RunOptions opts = assemble_run_options(p, cpu, asset.idle, detector_cfg);
    if (collect) opts.metrics = point_regs[i].get();
    if (opts_.configure_run) opts_.configure_run(p, opts);
    part.metrics = run_items(*asset.items, opts);
  };
  if (opts_.on_point_checkpoint) {
    kind.observe = [&](std::size_t i, const RestoredPoint& part) {
      static const obs::QuantileSketch kNoSketch;
      const obs::QuantileSketch* sketch = delay_sketch(i);
      opts_.on_point_checkpoint(points[i], part.metrics,
                                sketch != nullptr ? *sketch : kNoSketch);
    };
  }
  // Running means over the points executed so far (guarded by the
  // progress lock, like every report call).
  RunningStats run_energy_kj, run_delay_s;
  kind.report = [&](std::size_t i, const RestoredPoint& part) {
    const RunPoint& p = points[i];
    const Metrics& m = part.metrics;
    run_energy_kj.add(m.energy_kj());
    run_delay_s.add(m.mean_frame_delay.value());
    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        "\"point\":%zu,\"cell\":%zu,\"replicate\":%d,\"energy_kj\":%.9g,"
        "\"mean_delay_s\":%.9g,\"running_mean_energy_kj\":%.9g,"
        "\"running_mean_delay_s\":%.9g",
        p.index, p.cell, p.replicate, m.energy_kj(), m.mean_frame_delay.value(),
        run_energy_kj.mean(), run_delay_s.mean());
    return UnitReport{buf,
                      {{"point", static_cast<double>(p.index)},
                       {"cell", static_cast<double>(p.cell)},
                       {"replicate", static_cast<double>(p.replicate)},
                       {"energy_kj", m.energy_kj()},
                       {"mean_delay_s", m.mean_frame_delay.value()}},
                      collect ? point_regs[i].get() : nullptr};
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<RestoredPoint> parts =
      run_units(points.size(), opts_.restored, opts_, t0, kind);
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // ---- collect in expansion order, aggregate per cell -------------------
  out.points.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointResult pr{std::move(points[i]), std::move(parts[i].metrics)};
    if (spec.oracle) {
      const double bound = oracle_energy[oracle_slot.at(std::make_pair(
          asset_key(pr.point), pr.point.delay_target.value()))];
      if (bound > 0.0) {
        pr.competitive_ratio = pr.metrics.cpu_energy().value() / bound;
      }
    }
    out.points.push_back(std::move(pr));
  }

  std::size_t i = 0;
  while (i < out.points.size()) {
    const std::size_t cell = out.points[i].point.cell;
    CellResult c;
    c.point = out.points[i].point;
    RunningStats energy, cpu_mem, delay, max_delay, freq, switches, sleeps,
        wakeup, power, faults, recoveries, degraded, cratio;
    for (; i < out.points.size() && out.points[i].point.cell == cell; ++i) {
      const Metrics& m = out.points[i].metrics;
      // Merge the replicate's frame-delay sketch into the cell's population
      // sketch — the same place the Student-t CI reduction runs, so the
      // cells CSV reports honest population percentiles instead of a mean
      // of per-run quantiles.  A restored point's checkpointed sketch
      // merges at exactly the position its fresh counterpart would have:
      // the text format round-trips the sketch state bit-exactly, so the
      // merged cell sketch matches an uninterrupted run byte-for-byte.
      if (!parts[i].delay_sketch.empty()) {
        c.delay_sketch.merge(parts[i].delay_sketch);
      } else if (const obs::QuantileSketch* s = delay_sketch(i)) {
        c.delay_sketch.merge(*s);
      }
      energy.add(m.energy_kj());
      cpu_mem.add(m.cpu_memory_energy().value() / 1e3);
      delay.add(m.mean_frame_delay.value());
      max_delay.add(m.max_frame_delay.value());
      freq.add(m.mean_cpu_frequency.value());
      switches.add(m.cpu_switches);
      sleeps.add(m.dpm_sleeps);
      wakeup.add(m.dpm_total_wakeup_delay.value());
      power.add(m.average_power.value());
      faults.add(static_cast<double>(m.faults_injected));
      recoveries.add(m.watchdog_recoveries);
      degraded.add(m.time_in_degraded.value());
      cratio.add(out.points[i].competitive_ratio);
    }
    c.energy_kj = aggregate(energy);
    c.cpu_mem_kj = aggregate(cpu_mem);
    c.delay_s = aggregate(delay);
    c.max_delay_s = aggregate(max_delay);
    c.freq_mhz = aggregate(freq);
    c.switches = aggregate(switches);
    c.sleeps = aggregate(sleeps);
    c.wakeup_delay_s = aggregate(wakeup);
    c.power_mw = aggregate(power);
    c.faults_injected = aggregate(faults);
    c.recoveries = aggregate(recoveries);
    c.time_degraded_s = aggregate(degraded);
    c.competitive_ratio = aggregate(cratio);
    if (!c.delay_sketch.empty()) {
      c.delay_p50 = c.delay_sketch.quantile(0.5);
      c.delay_p90 = c.delay_sketch.quantile(0.9);
      c.delay_p99 = c.delay_sketch.quantile(0.99);
    }
    out.cells.push_back(std::move(c));
  }

  // ---- summary observability -------------------------------------------
  if (opts_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *opts_.metrics;
    // Fold every point's registry in, in expansion order: counters add,
    // histograms and their quantile sketches merge, gauges are skipped
    // (obs/metrics_registry.hpp) — the summary's frames.delay_s percentiles
    // describe the whole population across workers and replicates.
    for (const auto& pr : point_regs) reg.merge_from(*pr);
    reg.counter("sweep.points") += out.points.size();
    reg.counter("sweep.cells") += out.cells.size();
    reg.gauge("sweep.jobs") = out.jobs;
    reg.gauge("sweep.wall_seconds") = out.wall_seconds;
    auto& energy_hist = reg.histogram("sweep.point_energy_kj", 0.0, 50.0);
    auto& delay_hist = reg.histogram("sweep.point_delay_s", 0.0, 2.0);
    std::uint64_t total_faults = 0;
    std::uint64_t total_recoveries = 0;
    double total_degraded = 0.0;
    for (const PointResult& p : out.points) {
      energy_hist.add(p.metrics.energy_kj());
      delay_hist.add(p.metrics.mean_frame_delay.value());
      total_faults += p.metrics.faults_injected;
      total_recoveries +=
          static_cast<std::uint64_t>(p.metrics.watchdog_recoveries);
      total_degraded += p.metrics.time_in_degraded.value();
    }
    if (total_faults != 0 || total_recoveries != 0 || total_degraded > 0.0) {
      reg.counter("sweep.faults_injected") += total_faults;
      reg.counter("sweep.recoveries") += total_recoveries;
      reg.gauge("sweep.time_in_degraded_s") = total_degraded;
    }
  }
  return out;
}

// ---- consolidated CSV ----------------------------------------------------------

void SweepResult::write_points_csv(CsvWriter& csv) const {
  csv.write_header({"scenario", "point", "cell", "replicate", "workload",
                    "detector", "policy", "dpm", "faults", "cpu",
                    "delay_target_s", "service_cv2", "trace_seed",
                    "engine_seed", "energy_kj", "cpu_mem_kj", "delay_s",
                    "max_delay_s", "freq_mhz", "switches", "sleeps",
                    "wakeup_delay_s", "power_mw", "frames", "frames_admitted",
                    "frames_dropped", "duration_s", "faults_injected",
                    "escalations", "recoveries", "time_degraded_s",
                    "competitive_ratio"});
  for (const PointResult& p : points) {
    const Metrics& m = p.metrics;
    csv.row(scenario, p.point.index, p.point.cell, p.point.replicate,
            p.point.workload.name(), to_string(p.point.detector),
            p.point.policy, p.point.dpm.name(), p.point.faults.name,
            p.point.cpu, p.point.delay_target.value(), p.point.service_cv2,
            p.point.trace_seed, p.point.engine_seed, m.energy_kj(),
            m.cpu_memory_energy().value() / 1e3, m.mean_frame_delay.value(),
            m.max_frame_delay.value(), m.mean_cpu_frequency.value(),
            m.cpu_switches, m.dpm_sleeps, m.dpm_total_wakeup_delay.value(),
            m.average_power.value(), m.frames_decoded, m.frames_admitted,
            m.frames_dropped, m.duration.value(), m.faults_injected,
            m.watchdog_escalations, m.watchdog_recoveries,
            m.time_in_degraded.value(), p.competitive_ratio);
  }
}

void SweepResult::write_cells_csv(CsvWriter& csv) const {
  csv.write_header(
      {"scenario", "cell", "workload", "detector", "policy", "dpm", "faults",
       "cpu", "delay_target_s", "service_cv2", "replicates", "energy_kj_mean",
       "energy_kj_sd", "energy_kj_ci95", "cpu_mem_kj_mean", "cpu_mem_kj_sd",
       "cpu_mem_kj_ci95", "delay_s_mean", "delay_s_sd", "delay_s_ci95",
       "freq_mhz_mean", "freq_mhz_sd", "freq_mhz_ci95", "switches_mean",
       "sleeps_mean", "wakeup_delay_s_mean", "power_mw_mean",
       "faults_injected_mean", "recoveries_mean", "time_degraded_s_mean",
       "delay_p50", "delay_p90", "delay_p99", "competitive_ratio"});
  for (const CellResult& c : cells) {
    csv.row(scenario, c.point.cell, c.point.workload.name(),
            to_string(c.point.detector), c.point.policy, c.point.dpm.name(),
            c.point.faults.name, c.point.cpu, c.point.delay_target.value(),
            c.point.service_cv2, c.energy_kj.n, c.energy_kj.mean,
            c.energy_kj.stddev, c.energy_kj.ci95_half, c.cpu_mem_kj.mean,
            c.cpu_mem_kj.stddev, c.cpu_mem_kj.ci95_half, c.delay_s.mean,
            c.delay_s.stddev, c.delay_s.ci95_half, c.freq_mhz.mean,
            c.freq_mhz.stddev, c.freq_mhz.ci95_half, c.switches.mean,
            c.sleeps.mean, c.wakeup_delay_s.mean, c.power_mw.mean,
            c.faults_injected.mean, c.recoveries.mean,
            c.time_degraded_s.mean, c.delay_p50, c.delay_p90, c.delay_p99,
            c.competitive_ratio.mean);
  }
}

}  // namespace dvs::core
