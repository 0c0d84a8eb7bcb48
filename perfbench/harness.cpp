// Benchmark harness: runs one workload of the repository benchmark and
// prints its metrics as one JSON line (the last line of stdout).
//
//   dvs_perfbench --workload paper-sweep|fleet-population|serve-backlog
//                 --seed N --seconds T --trace 0|1 --sim <dvs-sim binary>
//                 --digests <digests.json> --work <scratch dir>
//                 [--jobs 4] [--tiny] [--inject flip-digest|bad-job]
//                 [--print-digests]
//
// Every workload is stated as a list of dvs-job-v1 jobs generated from the
// seed; the program under test only ever sees those jobs.  paper-sweep and
// fleet-population run their jobs in this process through
// core::SweepRunner / fleet::FleetRunner; serve-backlog drops them into a
// fresh spool and starts `dvs-sim serve <root> --drain` as this process's
// only child.  All times are host time.  Simulated statistics are not
// metrics here: the CSV bytes each job produces are digested and compared
// against the committed digests (default seed) or against a jobs=1 run
// (any other seed); a mismatch fails the job's operations.
//
// --trace 0 reports the end-to-end metrics.  --trace 1 reports per-layer
// costs, timed from here around calls into each module's public functions
// and hooks; nothing inside src/ is instrumented.  See README.md.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "dvs.hpp"
#include "hw/component.hpp"
#include "obs/telemetry/openmetrics.hpp"
#include "serve/checkpoint.hpp"
#include "serve/daemon.hpp"
#include "serve/event_log.hpp"
#include "serve/job_spec.hpp"
#include "serve/status.hpp"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using namespace dvs;
using Clock = std::chrono::steady_clock;

// The worker count the workloads run at: the reference machine (a 4-vCPU
// Intel Xeon VM) has four cores, and a run never uses more.
constexpr int kDefaultJobs = 4;
// The seed whose output digests are committed in digests.json.
constexpr std::uint64_t kDigestSeed = 1;

/// Results of timed probe loops land here so that the loops cannot be
/// optimized away.
volatile double g_sink = 0.0;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double unix_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Linear interpolation between closest ranks; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const fs::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + p.string());
}

/// FNV-1a over the bytes of `files`, in the order given, each prefixed by
/// its name so that moving bytes between files changes the digest.
std::string digest_files(const std::vector<fs::path>& files) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  };
  for (const fs::path& f : files) {
    mix(f.filename().string());
    mix(read_file(f));
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double peak_rss_self_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- arguments -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = kDigestSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string sim;
  std::string digests;
  std::string work;
  int jobs = kDefaultJobs;
  bool tiny = false;
  std::string inject;  ///< "", "flip-digest" or "bad-job"
  bool print_digests = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = val() == "1";
    else if (k == "--sim") a.sim = val();
    else if (k == "--digests") a.digests = val();
    else if (k == "--work") a.work = val();
    else if (k == "--jobs") a.jobs = std::stoi(val());
    else if (k == "--tiny") a.tiny = true;
    else if (k == "--inject") a.inject = val();
    else if (k == "--print-digests") a.print_digests = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload != "paper-sweep" && a.workload != "fleet-population" &&
      a.workload != "serve-backlog") {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (a.work.empty()) throw std::invalid_argument("--work is required");
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  if (a.inject == "bad-job" && a.workload != "serve-backlog") {
    throw std::invalid_argument("--inject bad-job needs serve-backlog");
  }
  return a;
}

// ---- the workload as dvs-job-v1 jobs --------------------------------------

struct Job {
  std::string id;
  std::string text;  ///< the job file, exactly as dropped into a spool
  serve::JobSpec spec;
};

Job make_job(const std::string& id, const std::string& fields) {
  Job j;
  j.id = id;
  j.text = "{\"schema\": \"dvs-job-v1\", \"id\": \"" + id + "\", " + fields +
           "}\n";
  j.spec = serve::JobSpec::parse_text(j.text, id);
  return j;
}

/// Seeds stay below 2^31 so that they survive the JSON number round trip.
std::uint64_t job_seed(std::uint64_t seed, std::uint64_t stream) {
  return core::mix_seed(seed, stream) % 2147483647ULL + 1;
}

Job sweep_job(const std::string& id, const std::string& scenario,
              int replicates, std::uint64_t seed) {
  return make_job(id, "\"kind\": \"sweep\", \"seed\": " + std::to_string(seed) +
                          ", \"checkpoint_every\": 1, \"sweep\": {\"scenario\": \"" +
                          scenario + "\", \"replicates\": " +
                          std::to_string(replicates) + "}");
}

Job fleet_job(const std::string& id, std::size_t devices, std::size_t shard,
              std::uint64_t seed) {
  return make_job(id, "\"kind\": \"fleet\", \"seed\": " + std::to_string(seed) +
                          ", \"checkpoint_every\": 1, \"fleet\": {\"name\": "
                          "\"fleet_smoke\", \"devices\": " +
                          std::to_string(devices) + ", \"shard_size\": " +
                          std::to_string(shard) + "}");
}

Job run_job(const std::string& id, char label, std::uint64_t seed) {
  return make_job(id, "\"kind\": \"run\", \"seed\": " + std::to_string(seed) +
                          ", \"checkpoint_every\": 1, \"run\": {\"media\": "
                          "\"mp3\", \"sequence\": \"" +
                          std::string(1, label) + "\", \"dpm\": \"tismdp\"}");
}

struct Workload {
  std::vector<Job> jobs;    ///< the measured jobs
  std::vector<Job> warmup;  ///< serve-backlog: one per kind, claimed first
};

Workload make_workload(const Args& a) {
  Workload w;
  if (a.workload == "paper-sweep") {
    // Replicates raised so one pass of the four sweeps lasts ~1.5 s at
    // jobs 4 (table3 alone is ~0.25 s at its default size).
    struct Row {
      const char* scenario;
      int replicates;
    };
    const Row rows[] = {{"table3", 6}, {"table4", 6}, {"table5", 8},
                        {"policy_shootout", 8}};
    std::uint64_t stream = 1;
    for (const Row& r : rows) {
      w.jobs.push_back(sweep_job(std::string("sweep-") + r.scenario,
                                 r.scenario, a.tiny ? 1 : r.replicates,
                                 job_seed(a.seed, stream++)));
    }
  } else if (a.workload == "fleet-population") {
    // Four fleets of 24 shards (six per worker at jobs 4).  A fleet plays
    // only 8 trace variants per workload, so its frame count depends on
    // the fleet seed; four seeds per pass average that out.
    for (int i = 0; i < 4; ++i) {
      w.jobs.push_back(fleet_job("fleet-smoke-" + std::to_string(i), a.tiny ? 512 : 1536,
                                 a.tiny ? 32 : 64, job_seed(a.seed, 1 + i)));
    }
  } else {
    w.warmup = {sweep_job("000-warm-0", "quick", 1, job_seed(a.seed, 900)),
                sweep_job("000-warm-1", "policy_shootout", 1,
                          job_seed(a.seed, 901)),
                fleet_job("000-warm-2", 32, 16, job_seed(a.seed, 902)),
                run_job("000-warm-3", 'A', job_seed(a.seed, 903))};
    // A fixed mix in seed-shuffled order: 40% quick sweeps, 25% shootout
    // sweeps, 25% small fleets, 10% single runs.  Fixed shares keep the
    // latency quantiles inside one job kind's band instead of on the edge
    // between two bands, where the seed's mix would move them.
    const std::size_t n = a.tiny ? 12 : 240;
    std::vector<int> kinds(n, 3);
    for (std::size_t i = 0; i < n; ++i) {
      kinds[i] = i < n * 40 / 100 ? 0 : i < n * 65 / 100 ? 1 : i < n * 90 / 100 ? 2 : 3;
    }
    for (std::size_t i = n; i > 1; --i) {
      std::swap(kinds[i - 1], kinds[core::mix_seed(a.seed, 500 + i) % i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t s = job_seed(a.seed, 1000 + i);
      char id[32];
      std::snprintf(id, sizeof id, "job-%04zu", i);
      switch (kinds[i]) {
        case 0: w.jobs.push_back(sweep_job(id, "quick", 2, s)); break;
        case 1: w.jobs.push_back(sweep_job(id, "policy_shootout", 1, s)); break;
        case 2: w.jobs.push_back(fleet_job(id, 64, 16, s)); break;
        default: w.jobs.push_back(run_job(id, "ABCDEF"[s % 6], s)); break;
      }
    }
  }
  return w;
}

/// The job's scenario with its overrides applied, as the serve job runner
/// applies them.
core::ScenarioSpec resolve_sweep(const serve::JobSpec& j) {
  core::ScenarioSpec s = *j.spec_scenario();
  if (j.sweep.replicates > 0) s.replicates = j.sweep.replicates;
  if (j.seed_set) s.base_seed = j.seed;
  return s;
}

fleet::FleetSpec resolve_fleet(const serve::JobSpec& j) {
  fleet::FleetSpec f = *j.spec_fleet();
  if (j.fleet.devices > 0) f.num_devices = j.fleet.devices;
  if (j.seed_set) f.fleet_seed = j.seed;
  return f;
}

std::size_t fleet_shards(const serve::JobSpec& j) {
  const std::size_t shard = j.fleet.shard_size > 0 ? j.fleet.shard_size : 1024;
  return (resolve_fleet(j).num_devices + shard - 1) / shard;
}

/// Fold-units of one job: sweep points, fleet shards, or 1 for a run.
std::size_t job_units(const Job& j) {
  switch (j.spec.kind) {
    case serve::JobKind::Sweep: return resolve_sweep(j.spec).num_points();
    case serve::JobKind::Fleet: return fleet_shards(j.spec);
    case serve::JobKind::Run: return 1;
  }
  return 1;
}

// ---- one in-process job execution -----------------------------------------

struct PointRecord {
  std::size_t index = 0;
  core::Metrics metrics;
  obs::QuantileSketch sketch;
};

struct JobRun {
  std::string id;
  double wall = 0.0;        ///< SweepRunner::run / FleetRunner::run call
  double inner_wall = 0.0;  ///< SweepResult / FleetResult::wall_seconds
  std::uint64_t frames = 0;
  std::uint64_t dropped = 0;
  std::size_t units = 0;
  std::string digest;
  bool threw = false;
  std::vector<double> unit_s;       ///< per point or shard latency
  std::vector<double> unit_done_s;  ///< per unit: completion since the call
  std::uint64_t switches = 0, sleeps = 0, wakeups = 0;
  // Kept only by traced executions, for the checkpoint probe.
  std::vector<PointRecord> points;
  std::vector<fleet::FleetShardPartial> shards;
};

JobRun run_sweep(const Job& job, int jobs, const fs::path& dir, bool traced,
                 bool quantiles) {
  JobRun r;
  r.id = job.id;
  const core::ScenarioSpec spec = resolve_sweep(job.spec);
  r.units = spec.num_points();
  core::SweepOptions opts;
  opts.jobs = jobs;
  opts.collect_quantiles = quantiles;
  // Point latency from the runner's own hooks: configure_run on the worker
  // just before the engine starts, on_point_checkpoint (serialized) when it
  // is done.  Each worker writes only its own point's start slot;
  // parallel_for joins its threads before run() returns.
  std::vector<Clock::time_point> start(r.units);
  Clock::time_point t0;
  opts.configure_run = [&start](const core::RunPoint& p, core::RunOptions&) {
    start[p.index] = Clock::now();
  };
  r.unit_s.assign(r.units, 0.0);
  opts.on_point_checkpoint = [&](const core::RunPoint& p, const core::Metrics& m,
                                 const obs::QuantileSketch& s) {
    const auto now = Clock::now();
    r.unit_s[p.index] = std::chrono::duration<double>(now - start[p.index]).count();
    r.unit_done_s.push_back(std::chrono::duration<double>(now - t0).count());
    if (traced) r.points.push_back({p.index, m, s});
  };
  core::SweepResult res;
  try {
    t0 = Clock::now();
    res = core::SweepRunner(opts).run(spec);
    r.wall = since(t0);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: job " << job.id << " threw: " << e.what() << "\n";
    r.threw = true;
    return r;
  }
  r.inner_wall = res.wall_seconds;
  for (const core::PointResult& p : res.points) {
    r.frames += p.metrics.frames_decoded + p.metrics.frames_dropped;
    r.dropped += p.metrics.frames_dropped;
    r.switches += static_cast<std::uint64_t>(p.metrics.cpu_switches);
    r.sleeps += static_cast<std::uint64_t>(p.metrics.dpm_sleeps);
    r.wakeups += static_cast<std::uint64_t>(p.metrics.dpm_wakeups);
  }
  const fs::path points = dir / (job.id + "_points.csv");
  const fs::path cells = dir / (job.id + "_cells.csv");
  {
    CsvWriter pc(points.string());
    res.write_points_csv(pc);
    CsvWriter cc(cells.string());
    res.write_cells_csv(cc);
  }
  r.digest = digest_files({cells, points});
  fs::remove(points);
  fs::remove(cells);
  return r;
}

JobRun run_fleet(const Job& job, int jobs, const fs::path& dir, bool traced) {
  JobRun r;
  r.id = job.id;
  const fleet::FleetSpec spec = resolve_fleet(job.spec);
  r.units = fleet_shards(job.spec);
  fleet::FleetOptions opts;
  opts.jobs = jobs;
  if (job.spec.fleet.shard_size > 0) opts.shard_size = job.spec.fleet.shard_size;
  // on_shard runs on the worker that simulated the shard, so consecutive
  // completions on one thread bound each shard's latency; a worker's first
  // shard also covers the runner's serial set-up and is left out.
  Clock::time_point t0;
  std::map<std::thread::id, std::vector<double>> done_by_worker;
  opts.on_shard = [&](std::size_t, const fleet::FleetShardPartial& part) {
    const double t = since(t0);
    done_by_worker[std::this_thread::get_id()].push_back(t);
    r.unit_done_s.push_back(t);
    if (traced) r.shards.push_back(part);
  };
  fleet::FleetResult res;
  try {
    t0 = Clock::now();
    res = fleet::FleetRunner(opts).run(spec);
    r.wall = since(t0);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: job " << job.id << " threw: " << e.what() << "\n";
    r.threw = true;
    return r;
  }
  r.inner_wall = res.wall_seconds;
  for (const auto& [id, done] : done_by_worker) {
    for (std::size_t i = 1; i < done.size(); ++i) r.unit_s.push_back(done[i] - done[i - 1]);
  }
  r.frames = res.frames_total;
  r.dropped = res.total.frames_dropped;
  const fs::path csv = dir / (job.id + "_fleet.csv");
  {
    CsvWriter c(csv.string());
    res.write_csv(c);
  }
  r.digest = digest_files({csv});
  fs::remove(csv);
  return r;
}

JobRun run_in_process(const Job& job, int jobs, const fs::path& dir,
                      bool traced) {
  if (job.spec.kind == serve::JobKind::Fleet) {
    return run_fleet(job, jobs, dir, traced);
  }
  return run_sweep(job, jobs, dir, traced, false);
}

// ---- one serve-backlog round: a fresh spool drained by a child daemon -----

struct ServeRound {
  double setup_s = 0.0;  ///< spawn -> last warm-up job finished
  double drain_s = 0.0;  ///< last warm-up finished -> last job finished
  std::vector<double> latency_s;    ///< claim -> finish, measured jobs
  std::vector<double> pickup_gap_s; ///< finish/fail -> next claim
  std::uint64_t frames = 0;
  std::uint64_t dropped = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t units = 0;
  double rss_mb = 0.0;
  std::map<std::string, std::string> digests;  ///< measured jobs that finished
};

ServeRound serve_round(const Args& a, const Workload& w, const fs::path& root,
                       int jobs, bool bad_job) {
  fs::remove_all(root);
  fs::create_directories(root / "queue");
  for (const Job& j : w.warmup) write_file(root / "queue" / (j.id + ".json"), j.text);
  for (const Job& j : w.jobs) write_file(root / "queue" / (j.id + ".json"), j.text);
  if (bad_job) write_file(root / "queue" / "job-unparsable.json", "{\"schema\": [[[\n");
  // The daemon's work is mostly small-file I/O: write back what earlier
  // rounds left dirty now, so that it is not charged to this round.
  sync();

  const std::string log = (root / "daemon.log").string();
  const std::string jobs_s = std::to_string(jobs);
  const std::string root_s = root.string();
  std::vector<char*> argv = {const_cast<char*>(a.sim.c_str()),
                             const_cast<char*>("serve"),
                             const_cast<char*>(root_s.c_str()),
                             const_cast<char*>("--drain"),
                             const_cast<char*>("--jobs"),
                             const_cast<char*>(jobs_s.c_str()), nullptr};
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
  const double spawned = unix_now();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, a.sim.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) throw std::runtime_error("cannot start " + a.sim);
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid) throw std::runtime_error("wait4 failed");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("daemon exited abnormally; see " + log);
  }

  ServeRound r;
  r.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  std::set<std::string> measured;
  for (const Job& j : w.jobs) measured.insert(j.id);
  std::set<std::string> warm;
  for (const Job& j : w.warmup) warm.insert(j.id);

  std::map<std::string, double> claimed;
  double warm_end = spawned;
  double last_end = spawned;
  double prev_end = -1.0;
  for (const serve::ServeEvent& e : serve::load_events((root / "events.jsonl").string())) {
    if (e.type == "job_claimed" || e.type == "job_recovered") {
      claimed[e.job] = e.ts;
      if (prev_end >= 0.0 && measured.count(e.job) > 0) {
        r.pickup_gap_s.push_back(e.ts - prev_end);
      }
    } else if (e.type == "job_finished" || e.type == "job_failed") {
      prev_end = e.ts;
      if (warm.count(e.job) > 0) {
        warm_end = std::max(warm_end, e.ts);
      } else {
        last_end = std::max(last_end, e.ts);
        if (e.type == "job_finished" && measured.count(e.job) > 0) {
          r.latency_s.push_back(e.ts - claimed.at(e.job));
        }
      }
    }
  }
  r.setup_s = warm_end - spawned;
  r.drain_s = last_end - warm_end;

  r.attempted = w.jobs.size() + (bad_job ? 1 : 0);
  for (const Job& j : w.jobs) {
    const fs::path out = root / "done" / (j.id + ".out");
    if (!fs::exists(root / "done" / (j.id + ".json")) || !fs::exists(out)) {
      ++r.failed;
      continue;
    }
    std::vector<fs::path> csvs;
    for (const auto& entry : fs::directory_iterator(out)) {
      if (entry.path().extension() == ".csv") csvs.push_back(entry.path());
    }
    std::sort(csvs.begin(), csvs.end());
    r.digests[j.id] = digest_files(csvs);
    const serve::JobSummary s =
        serve::load_job_summary((out / "job_summary.json").string());
    r.frames += s.frames_decoded + s.frames_dropped;
    r.dropped += s.frames_dropped;
    r.units += s.units_total;
  }
  if (bad_job && !fs::exists(root / "failed" / "job-unparsable.json")) {
    throw std::runtime_error("unparsable job was not moved to failed/");
  }
  if (bad_job) ++r.failed;
  return r;
}

// ---- committed digests ----------------------------------------------------

/// Job id -> digest for `workload` at the digest seed; empty when absent.
std::map<std::string, std::string> committed_digests(const std::string& path,
                                                     const std::string& workload) {
  std::map<std::string, std::string> out;
  if (path.empty() || !fs::exists(path)) return out;
  const json::ValuePtr doc = json::parse(read_file(path));
  const json::Value* wl = doc->find(workload);
  if (wl == nullptr) return out;
  for (const auto& [id, v] : wl->as_object()) out[id] = v->as_string();
  return out;
}

// ---- cold set-up: threshold tables + TISMDP solves ------------------------

struct SolveInput {
  core::DpmSpec dpm;
  core::CpuAsset cpu;
  dpm::IdleDistributionPtr idle;
};

struct SetupPlan {
  std::vector<detect::ChangePointConfig> tables;
  std::vector<SolveInput> solves;
};

/// What a fresh process must prepare before the jobs' engines run: one
/// threshold table per change-point configuration and the DPM solves for
/// every (DPM spec, workload idle model) pair.  Building the idle models
/// (session traces) is asset work and happens here, untimed.
SetupPlan make_setup_plan(const std::vector<Job>& jobs) {
  SetupPlan plan;
  std::set<std::string> seen;
  const auto add_table = [&](const detect::ChangePointConfig& c) {
    for (const auto& t : plan.tables) {
      if (t == c) return;
    }
    plan.tables.push_back(c);
  };
  const auto add_solves = [&](const std::string& key,
                              const std::vector<core::DpmSpec>& dpms,
                              const std::vector<core::WorkloadSpec>& workloads,
                              const std::string& cpu, std::uint64_t seed) {
    if (!seen.insert(key).second) return;
    const core::CpuAsset ca = core::build_cpu_asset(cpu);
    for (const core::WorkloadSpec& w : workloads) {
      dpm::IdleDistributionPtr idle;
      for (const core::DpmSpec& d : dpms) {
        if (d.kind == core::DpmKind::None) continue;
        if (!idle) {
          idle = core::build_workload_asset(w, ca.cpu, seed, fault::FaultSpec{}, 0).idle;
        }
        plan.solves.push_back({d, ca, idle});
      }
    }
  };
  for (const Job& j : jobs) {
    switch (j.spec.kind) {
      case serve::JobKind::Sweep: {
        const core::ScenarioSpec s = resolve_sweep(j.spec);
        if (std::find(s.detectors.begin(), s.detectors.end(),
                      core::DetectorKind::ChangePoint) != s.detectors.end()) {
          add_table(s.detector_cfg.change_point);
        }
        for (const std::string& cpu : s.cpus) {
          add_solves("sweep:" + s.name + ":" + cpu, s.dpm, s.workloads, cpu,
                     s.base_seed);
        }
        break;
      }
      case serve::JobKind::Fleet: {
        const fleet::FleetSpec f = resolve_fleet(j.spec);
        if (f.detector == core::DetectorKind::ChangePoint) {
          add_table(f.detector_cfg.change_point);
        }
        std::vector<core::WorkloadSpec> ws;
        for (const auto& share : f.workloads) ws.push_back(share.workload);
        add_solves("fleet:" + f.name, {f.dpm}, ws, f.cpu, f.fleet_seed);
        break;
      }
      case serve::JobKind::Run: {
        if (serve::resolve_detector(j.spec.run.detector) ==
            core::DetectorKind::ChangePoint) {
          add_table(detect::ChangePointConfig{});
        }
        core::DpmSpec d;
        d.kind = *core::dpm_kind_from_string(j.spec.run.dpm);
        d.max_delay = seconds(j.spec.run.dpm_delay);
        if (d.kind != core::DpmKind::None && seen.insert("run:" + j.spec.run.dpm).second) {
          plan.solves.push_back(
              {d, core::build_cpu_asset("sa1100"), core::default_idle_distribution()});
        }
        break;
      }
    }
  }
  return plan;
}

struct SetupCost {
  double table_s = 0.0;
  double solve_s = 0.0;
};

SetupCost cold_setup(const SetupPlan& plan) {
  detect::clear_threshold_table_cache();
  dpm::clear_tismdp_solve_cache();
  SetupCost c;
  auto t0 = Clock::now();
  for (const auto& cfg : plan.tables) {
    core::DetectorFactoryConfig dc;
    dc.change_point = cfg;
    dc.prepare();
  }
  c.table_s = since(t0);
  t0 = Clock::now();
  for (const SolveInput& s : plan.solves) {
    (void)core::make_dpm_policy(s.dpm, s.cpu.costs, s.idle);
  }
  c.solve_s = since(t0);
  return c;
}

// ---- metric output --------------------------------------------------------

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<MetricOut>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": " << fmt(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// ---- layer probes (traced runs) --------------------------------------------

/// Repeats `body` (which performs `per_call` operations) until at least
/// `min_s` has passed, five times over, and returns the median ns/op.
double time_per_op(const std::function<void()>& body, std::size_t per_call,
                   double min_s = 0.04) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    std::size_t ops = 0;
    const auto t0 = Clock::now();
    do {
      body();
      ops += per_call;
    } while (since(t0) < min_s);
    samples.push_back(since(t0) * 1e9 / static_cast<double>(ops));
  }
  return median(samples);
}

struct ProbeAsset {
  core::WorkloadSpec workload;
  core::WorkloadAsset asset;
  hw::Sa1100 cpu;
  Seconds delay_target{0.1};
  bool oracle = false;
};

struct AssetSurvey {
  double build_s = 0.0;
  std::size_t count = 0;
  std::vector<ProbeAsset> kept;  ///< oracle assets + first asset per media
};

const char* media_of(const core::WorkloadSpec& w) {
  switch (w.kind) {
    case core::WorkloadKind::Mp3Sequence: return "mp3";
    case core::WorkloadKind::MpegClip: return "mpeg";
    case core::WorkloadKind::Session: return "session";
  }
  return "mp3";
}

/// Builds every shared asset the jobs' runners build, timing each
/// core::build_workload_asset call, and keeps the ones later probes need.
AssetSurvey survey_assets(const std::vector<Job>& jobs) {
  AssetSurvey out;
  std::set<std::string> kept_media;
  const auto build = [&](const core::WorkloadSpec& w, const hw::Sa1100& cpu,
                         std::uint64_t seed, const fault::FaultSpec& f,
                         std::uint64_t fseed, Seconds target, bool oracle) {
    const auto t0 = Clock::now();
    core::WorkloadAsset asset = core::build_workload_asset(w, cpu, seed, f, fseed);
    out.build_s += since(t0);
    ++out.count;
    if (oracle || kept_media.insert(media_of(w)).second) {
      out.kept.push_back({w, std::move(asset), cpu, target, oracle});
    }
  };
  for (const Job& j : jobs) {
    if (j.spec.kind == serve::JobKind::Sweep) {
      const core::ScenarioSpec s = resolve_sweep(j.spec);
      std::set<std::tuple<std::size_t, std::size_t, int, std::size_t>> seen;
      std::vector<core::CpuAsset> cpus;
      for (const auto& c : s.cpus) cpus.push_back(core::build_cpu_asset(c));
      for (const core::RunPoint& p : s.expand()) {
        if (!seen.insert({p.cpu_idx, p.workload_idx, p.replicate, p.fault_idx}).second) continue;
        build(p.workload, cpus[p.cpu_idx].cpu, p.trace_seed, p.faults,
              p.fault_seed, p.delay_target, s.oracle);
      }
    } else if (j.spec.kind == serve::JobKind::Fleet) {
      const fleet::FleetSpec f = resolve_fleet(j.spec);
      const core::CpuAsset cpu = core::build_cpu_asset(f.cpu);
      const fault::FaultSpec* wave =
          f.wave.fraction > 0.0 ? fault::find_fault(f.wave.fault) : nullptr;
      for (std::size_t w = 0; w < f.workloads.size(); ++w) {
        const core::WorkloadSpec& ws = f.workloads[w].workload;
        for (std::size_t v = 0; v < f.trace_variants; ++v) {
          const std::uint64_t seed = fleet::fleet_trace_seed(f, w, v);
          build(ws, cpu.cpu, seed, fault::FaultSpec{}, 0,
                ws.default_delay_target(), false);
          if (wave != nullptr) {
            build(ws, cpu.cpu, seed, *wave, fleet::fleet_fault_seed(f, w, v),
                  ws.default_delay_target(), false);
          }
        }
      }
    }
  }
  return out;
}

std::vector<const workload::TraceFrame*> frames_of(const ProbeAsset& a) {
  std::vector<const workload::TraceFrame*> out;
  for (const core::PlaybackItem& item : *a.asset.items) {
    for (const workload::TraceFrame& f : item.trace.frames()) out.push_back(&f);
  }
  return out;
}

struct EngineProbe {
  double ns_per_frame = 0.0;
  double metrics_overhead_pct = 0.0;
  core::Metrics last;
};

/// Host ns per simulated frame of core::run_items on one asset at jobs 1,
/// and (optionally) the cost of attaching a metrics registry to the run.
EngineProbe probe_engine(const ProbeAsset& a,
                         const core::DetectorFactoryConfig& det,
                         bool with_overhead) {
  const core::CpuAsset cpu{a.cpu, dpm::smartbadge_cost_model(hw::SmartBadge{a.cpu})};
  core::RunAssembly as;
  as.delay_target = a.workload.default_delay_target();
  if (a.workload.kind == core::WorkloadKind::Session) {
    as.dpm.kind = core::DpmKind::Tismdp;
  }
  EngineProbe out;
  const auto one = [&](bool metrics) {
    core::RunOptions opts = core::assemble_run_options(as, cpu, a.asset.idle, det);
    obs::MetricsRegistry reg;
    if (metrics) opts.metrics = &reg;
    const auto t0 = Clock::now();
    out.last = core::run_items(*a.asset.items, opts);
    return since(t0);
  };
  std::vector<double> ns;
  std::vector<double> overhead;
  const auto t0 = Clock::now();
  while (ns.size() < 3 || since(t0) < 0.3) {
    const double plain = one(false);
    const double frames =
        static_cast<double>(out.last.frames_decoded + out.last.frames_dropped);
    ns.push_back(plain * 1e9 / std::max(1.0, frames));
    if (with_overhead) overhead.push_back((one(true) / plain - 1.0) * 100.0);
    if (ns.size() >= 200) break;
  }
  out.ns_per_frame = median(ns);
  out.metrics_overhead_pct = median(overhead);
  return out;
}

double probe_change_point(const std::vector<const workload::TraceFrame*>& frames,
                          const core::DetectorFactoryConfig& det) {
  std::vector<double> gaps;
  for (std::size_t i = 1; i < frames.size(); ++i) {
    const double g = frames[i]->arrival.value() - frames[i - 1]->arrival.value();
    if (g > 0.0 && g < 2.0) gaps.push_back(g);
  }
  if (gaps.empty()) gaps.push_back(0.03);
  detect::ChangePointDetector d(det.thresholds);
  d.reset(Hertz{1.0 / gaps[0]});
  double now = 0.0;
  double sink = 0.0;
  const double ns = time_per_op(
      [&] {
        for (double g : gaps) {
          now += g;
          sink += d.on_sample(Seconds{now}, Seconds{g}).value();
        }
      },
      gaps.size());
  g_sink = sink;
  return ns;
}

double probe_governor(const ProbeAsset& a, const std::string& policy,
                      const core::DetectorFactoryConfig& det) {
  const core::PlaybackItem& item = a.asset.items->front();
  hw::SmartBadge badge{a.cpu};
  policy::GovernorContext ctx{badge, item.decoder, a.workload.default_delay_target(), 1.0};
  ctx.seed = 1;
  ctx.make_arrival_detector = [&det] {
    return core::make_detector(core::DetectorKind::ChangePoint, det, {});
  };
  ctx.make_service_detector = ctx.make_arrival_detector;
  policy::GovernorPtr gov = policy::GovernorFactory::instance().create(policy, ctx);
  gov->initialize(item.nominal_arrival, item.nominal_service_at_max, Seconds{0.0});
  const auto frames = item.trace.frames();
  double offset = 0.0;
  // One decoder, frames served in arrival order: a decode starts when both
  // the frame and the decoder are there, so time never runs backwards.
  return time_per_op(
      [&] {
        double prev = offset;
        double busy = offset;
        for (const workload::TraceFrame& f : frames) {
          const double now = offset + f.arrival.value();
          gov->on_arrival(Seconds{now}, Seconds{std::max(1e-6, now - prev)}, 1.0);
          prev = now;
          const MegaHertz freq = a.cpu.frequency_at(gov->desired_step());
          const Seconds dt = item.decoder.decode_time(freq, f.work);
          const double done = std::max(now, busy) + dt.value();
          gov->on_decode_complete(Seconds{done}, dt, freq, 0.0, Seconds{done - now});
          gov->apply(Seconds{done});
          busy = done;
        }
        offset = std::max(prev, busy) + 1.0;
      },
      frames.size());
}

double probe_frame_buffer(const std::vector<const workload::TraceFrame*>& frames) {
  queue::FrameBuffer fb;
  double offset = 0.0;
  return time_per_op(
      [&] {
        double clock = offset;
        for (const workload::TraceFrame* f : frames) {
          const Seconds at{std::max(clock, offset + f->arrival.value())};
          const Seconds served = at + Seconds{1e-4};
          fb.push(workload::Frame{f->id, workload::MediaType::Mp3Audio, at, f->work}, at);
          const auto out = fb.pop(served);
          if (out) fb.record_departure(out->arrival, served);
          clock = served.value();
        }
        offset = clock + 1.0;
      },
      frames.size());
}

double probe_component(const std::vector<const workload::TraceFrame*>& frames) {
  hw::SmartBadge badge;
  hw::Component& c = badge.component(hw::BadgeComponentId::Cpu);
  double offset = 0.0;
  bool active = false;
  return time_per_op(
      [&] {
        double last = offset;
        for (const workload::TraceFrame* f : frames) {
          const Seconds at{offset + f->arrival.value()};
          active = !active;
          c.set_state(active ? hw::PowerState::Active : hw::PowerState::Idle, at);
          c.accrue(at);
          last = at.value();
        }
        offset = last + 1.0;
      },
      frames.size());
}

double probe_flight(const std::vector<const workload::TraceFrame*>& frames) {
  obs::FlightRecorder fr;
  return time_per_op(
      [&] {
        for (const workload::TraceFrame* f : frames) {
          fr.record(f->arrival.value(), obs::FlightEventType::DecodeDone, 0,
                    static_cast<float>(f->work), 1.0F);
        }
      },
      frames.size());
}

/// The engine keeps a handful of events pending (arrival cursor, decode
/// completion, DPM arm, WLAN burst, samplers); the probes keep eight.
constexpr int kEngineHeap = 8;

double probe_sim_event() {
  sim::Simulator s;
  std::uint64_t fired = 0;
  double t = 0.0;
  for (int i = 0; i < kEngineHeap; ++i) s.schedule_at(Seconds{1e12 + i}, [] {});
  constexpr int kBatch = 4096;
  return time_per_op(
      [&] {
        for (int i = 0; i < kBatch; ++i) {
          t += 1e-3;
          s.schedule_at(Seconds{t}, [&fired] { ++fired; });
        }
        s.run_until(Seconds{t});
      },
      kBatch);
}

double probe_sim_cancel() {
  sim::Simulator s;
  double t = 0.0;
  for (int i = 0; i < kEngineHeap; ++i) s.schedule_at(Seconds{1e12 + i}, [] {});
  constexpr int kBatch = 4096;
  return time_per_op(
      [&] {
        for (int i = 0; i < kBatch; ++i) {
          t += 1e-3;
          s.cancel(s.schedule_at(Seconds{t}, [] {}));
        }
        s.run_until(Seconds{t});
      },
      kBatch);
}

/// Per-unit cost of appending the workload's own unit results to a
/// dvs-checkpoint-v1 file with a flush per unit (checkpoint_every 1).
double probe_checkpoint(const fs::path& dir, const std::vector<PointRecord>& points,
                        const std::vector<fleet::FleetShardPartial>& shards) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const fs::path p = dir / "probe.ckpt.jsonl";
    fs::remove(p);
    std::size_t units = 0;
    const auto t0 = Clock::now();
    if (!points.empty()) {
      serve::CheckpointWriter w(p.string(), "probe", "sweep", 1);
      for (const PointRecord& r : points) {
        w.append_point(r.index, r.metrics, r.sketch);
        ++units;
      }
    }
    if (!shards.empty()) {
      const fs::path q = dir / "probe-fleet.ckpt.jsonl";
      fs::remove(q);
      serve::CheckpointWriter w(q.string(), "probe", "fleet", 1);
      for (std::size_t i = 0; i < shards.size(); ++i) {
        w.append_shard(i, shards[i]);
        ++units;
      }
    }
    samples.push_back(since(t0) * 1e6 / static_cast<double>(std::max<std::size_t>(1, units)));
  }
  return median(samples);
}

/// Per-event cost of the daemon's event log: claim, one flush record per
/// unit, finish — for every job of the workload.
double probe_event_log(const fs::path& dir, const std::vector<Job>& jobs) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const fs::path p = dir / "probe-events.jsonl";
    fs::remove(p);
    serve::EventLog log(p.string());
    std::size_t events = 0;
    const auto t0 = Clock::now();
    for (const Job& j : jobs) {
      const std::size_t units = std::min<std::size_t>(job_units(j), 64);
      log.job_claimed(j.id);
      for (std::size_t u = 1; u <= units; ++u) log.checkpoint_flush(j.id, u, units);
      log.job_finished(j.id, serve::to_string(j.spec.kind), units, 0);
      events += units + 2;
    }
    samples.push_back(since(t0) * 1e6 / static_cast<double>(events));
  }
  return median(samples);
}

/// One status.json rewrite with every job of the workload in the queue.
double probe_status(const fs::path& dir, const std::vector<Job>& jobs) {
  serve::ServeStatus st;
  st.pid = static_cast<int>(getpid());
  st.state = "running";
  st.queue_depth = jobs.size();
  for (const Job& j : jobs) {
    serve::JobStatus js;
    js.id = j.id;
    js.kind = serve::to_string(j.spec.kind);
    js.state = "queued";
    js.units_total = job_units(j);
    st.jobs.push_back(js);
  }
  const std::string path = (dir / "status.json").string();
  return time_per_op([&] { serve::write_status_atomic(st, path); }, 1, 0.05) / 1e3;
}

/// collect_daemon_metrics + write_openmetrics_atomic over a spool root
/// holding `done` completed jobs.
double probe_metrics_refresh(const fs::path& root) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    obs::write_openmetrics_atomic(serve::collect_daemon_metrics(root.string()),
                                  (root / "metrics.om").string());
    samples.push_back(since(t0) * 1e3);
  }
  return median(samples);
}

/// A spool root whose done/ holds one job summary per job run in-process.
fs::path summaries_root(const fs::path& dir, const std::vector<JobRun>& runs,
                        const std::vector<Job>& jobs) {
  const fs::path root = dir / "summaries";
  fs::remove_all(root);
  fs::create_directories(root / "failed");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const fs::path out = root / "done" / (runs[i].id + ".out");
    fs::create_directories(out);
    write_file(root / "done" / (runs[i].id + ".json"), jobs[i].text);
    serve::JobSummary s;
    s.job_id = runs[i].id;
    s.kind = serve::to_string(jobs[i].spec.kind);
    s.units_total = runs[i].units;
    s.executed = runs[i].units;
    s.frames_decoded = runs[i].frames - runs[i].dropped;
    s.frames_dropped = runs[i].dropped;
    s.elapsed_s = runs[i].wall;
    serve::write_job_summary(s, (out / "job_summary.json").string());
  }
  return root;
}

double probe_spec_parse(const fs::path& dir, const std::vector<Job>& jobs) {
  std::vector<std::string> paths;
  for (const Job& j : jobs) {
    const fs::path p = dir / "specs" / (j.id + ".json");
    fs::create_directories(p.parent_path());
    write_file(p, j.text);
    paths.push_back(p.string());
  }
  return time_per_op(
             [&] {
               for (const std::string& p : paths) (void)serve::JobSpec::parse_file(p);
             },
             paths.size()) /
         1e3;
}

/// finish -> next claim gaps of an in-process daemon draining a few tiny
/// jobs; used by the workloads that do not run the daemon themselves.
std::vector<double> probe_pickup_gaps(const fs::path& dir, std::uint64_t seed) {
  Workload w;
  for (int i = 0; i < 8; ++i) {
    char id[16];
    std::snprintf(id, sizeof id, "gap-%d", i);
    w.jobs.push_back(sweep_job(id, "quick", 1, job_seed(seed, 700 + i)));
  }
  const fs::path root = dir / "gap-spool";
  fs::remove_all(root);
  fs::create_directories(root / "queue");
  for (const Job& j : w.jobs) write_file(root / "queue" / (j.id + ".json"), j.text);
  serve::DaemonOptions o;
  o.root = root.string();
  o.jobs = 1;
  o.drain = true;
  // The daemon narrates its jobs on stdout, whose last line must stay the
  // benchmark's result: send the narration to a log for the probe.
  std::cout.flush();
  std::fflush(stdout);
  const int saved = dup(STDOUT_FILENO);
  const int log = open((root / "daemon.log").c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (saved < 0 || log < 0) throw std::runtime_error("cannot redirect stdout");
  dup2(log, STDOUT_FILENO);
  close(log);
  const int rc = serve::run_daemon(o);
  std::fflush(stdout);
  dup2(saved, STDOUT_FILENO);
  close(saved);
  if (rc != 0) throw std::runtime_error("pickup-gap probe daemon failed");
  std::vector<double> gaps;
  double prev_end = -1.0;
  for (const serve::ServeEvent& e : serve::load_events((root / "events.jsonl").string())) {
    if (e.type == "job_claimed" && prev_end >= 0.0) gaps.push_back(e.ts - prev_end);
    if (e.type == "job_finished") prev_end = e.ts;
  }
  return gaps;
}

// ---- the run ---------------------------------------------------------------

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// One JSON line in the layout of digests.json.
void print_digests(const std::string& workload,
                   const std::map<std::string, std::string>& digests) {
  std::cout << "{\"" << workload << "\": {";
  bool first = true;
  for (const auto& [id, d] : digests) {
    std::cout << (first ? "" : ", ") << "\"" << id << "\": \"" << d << "\"";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

int run(const Args& a) {
  const fs::path work = a.work;
  fs::create_directories(work);
  const Workload w = make_workload(a);
  const bool serve_wl = a.workload == "serve-backlog";
  const bool use_committed = a.seed == kDigestSeed && !a.tiny && !a.print_digests;
  std::map<std::string, std::string> ref =
      use_committed ? committed_digests(a.digests, a.workload)
                    : std::map<std::string, std::string>{};
  if (use_committed && ref.size() != w.jobs.size()) {
    throw std::runtime_error("digests.json has no complete entry for " + a.workload);
  }
  // The self-tests' planted mismatch: one job's reference digest is wrong.
  const auto flip = [&a](std::map<std::string, std::string>& digests) {
    if (a.inject == "flip-digest" && !digests.empty()) digests.begin()->second[0] ^= 1;
  };
  if (use_committed) flip(ref);

  Tally tally;
  std::vector<MetricOut> out;
  std::vector<double> rates_plain, rates_traced;  // frames/s per repetition
  std::vector<double> job_rates, latencies, setups;
  double rss_mb = 0.0;

  // Per-layer state gathered while the workload runs traced.
  std::vector<JobRun> traced_runs;  // one traced pass over the jobs
  std::vector<double> pickup_gaps;
  fs::path serve_root_last;
  std::uint64_t frames_per_pass = 0, dropped_per_pass = 0;
  std::size_t units_per_pass = 0;

  if (!serve_wl) {
    const SetupPlan plan = make_setup_plan(w.jobs);
    // At least nine cold set-ups and 1.5 s of them, so that a set-up of a
    // few milliseconds still gets a steady median.
    const std::size_t setups_n = a.tiny ? 2 : 9;
    const double setups_min_s = a.tiny ? 0.0 : 1.5;
    std::vector<double> tables, solves;
    const auto t_setup = Clock::now();
    while (setups.size() < setups_n || since(t_setup) < setups_min_s) {
      const SetupCost c = cold_setup(plan);
      setups.push_back(c.table_s + c.solve_s);
      tables.push_back(c.table_s);
      solves.push_back(c.solve_s);
    }
    if (a.trace) {
      out.push_back({"detect.threshold_table_s", median(tables), "s"});
      out.push_back({"dpm.tismdp_solve_s", median(solves), "s"});
    }

    // Steady state: whole passes over the jobs until the time is up.  A
    // traced run alternates untraced and traced passes so that the two
    // rates come from the same stretch of machine time.
    std::map<std::string, std::string> first_digest;
    sync();
    const auto t_run = Clock::now();
    int pass = 0;
    while (pass < 2 || since(t_run) < a.seconds) {
      const bool traced = a.trace && pass % 2 == 1;
      std::vector<JobRun> runs;
      double wall = 0.0;
      std::uint64_t frames = 0;
      for (const Job& j : w.jobs) {
        runs.push_back(run_in_process(j, a.jobs, work, traced));
        wall += runs.back().wall;
        frames += runs.back().frames;
        latencies.insert(latencies.end(), runs.back().unit_s.begin(), runs.back().unit_s.end());
      }
      for (const JobRun& r : runs) {
        tally.attempted += r.units;
        if (r.threw) {
          tally.failed += r.units;
          continue;
        }
        // Every pass must reproduce the first pass's bytes.
        const auto [it, fresh] = first_digest.emplace(r.id, r.digest);
        if (!fresh && it->second != r.digest) tally.failed += r.units;
        else if (use_committed && ref.at(r.id) != r.digest) tally.failed += r.units;
      }
      std::cerr << "perfbench: pass " << pass << (traced ? " (traced)" : "")
                << ": " << wall << " s, " << frames << " frames\n";
      (traced ? rates_traced : rates_plain).push_back(static_cast<double>(frames) / wall);
      job_rates.push_back(static_cast<double>(runs.size()) / wall);
      if (traced && traced_runs.empty()) traced_runs = runs;
      frames_per_pass = frames;
      dropped_per_pass = 0;
      units_per_pass = 0;
      for (const JobRun& r : runs) {
        dropped_per_pass += r.dropped;
        units_per_pass += r.units;
      }
      ++pass;
    }
    rss_mb = peak_rss_self_mb();

    // Output check for seeds without committed digests: the same jobs at
    // jobs=1 must give the same bytes as every pass at the measured jobs.
    if (!use_committed) {
      for (const Job& j : w.jobs) {
        JobRun r = run_in_process(j, 1, work, false);
        if (!r.threw) ref[j.id] = r.digest;
      }
      flip(ref);
      for (const Job& j : w.jobs) {
        const auto it = ref.find(j.id);
        if (it == ref.end() || it->second != first_digest[j.id]) {
          tally.failed += static_cast<std::size_t>(pass) * job_units(j);
        }
      }
    }
    if (a.print_digests) print_digests(a.workload, first_digest);

  } else {
    // serve-backlog: whole rounds, each a fresh spool and a fresh daemon,
    // until the time is up.
    std::map<std::string, std::string> first_digest;
    const auto t_run = Clock::now();
    int round = 0;
    while (round < (a.trace ? 2 : 1) || since(t_run) < a.seconds) {
      const fs::path root = work / ("spool-" + std::to_string(round));
      const ServeRound r = serve_round(a, w, root, a.jobs, a.inject == "bad-job");
      std::cerr << "perfbench: round " << round << ": set-up " << r.setup_s
                << " s, drain " << r.drain_s << " s, " << r.latency_s.size()
                << " jobs finished\n";
      setups.push_back(r.setup_s);
      const double rate = static_cast<double>(r.frames) / r.drain_s;
      (a.trace && round % 2 == 1 ? rates_traced : rates_plain).push_back(rate);
      job_rates.push_back(static_cast<double>(w.jobs.size()) / r.drain_s);
      latencies.insert(latencies.end(), r.latency_s.begin(), r.latency_s.end());
      pickup_gaps.insert(pickup_gaps.end(), r.pickup_gap_s.begin(), r.pickup_gap_s.end());
      rss_mb = std::max(rss_mb, r.rss_mb);
      tally.attempted += r.attempted;
      tally.failed += r.failed;
      for (const auto& [id, d] : r.digests) {
        const auto [it, fresh] = first_digest.emplace(id, d);
        const bool bad = (!fresh && it->second != d) ||
                         (use_committed && (ref.count(id) == 0 || ref.at(id) != d));
        if (bad) ++tally.failed;
      }
      frames_per_pass = r.frames;
      dropped_per_pass = r.dropped;
      units_per_pass = r.units;
      // Spools stay until the run ends: deleting them between rounds puts
      // file-system work into the next round's timing.
      serve_root_last = root;
      ++round;
    }
    if (!use_committed) {
      const ServeRound r1 = serve_round(a, w, work / "spool-jobs1", 1, false);
      ref = r1.digests;
      flip(ref);
      for (const auto& [id, d] : first_digest) {
        if (ref.count(id) == 0 || ref.at(id) != d) tally.failed += static_cast<std::size_t>(round);
      }
    }
    if (a.print_digests) print_digests(a.workload, first_digest);
  }

  tally.failed = std::min(tally.failed, tally.attempted);
  const bool correct = tally.failed == 0;
  std::cerr << "perfbench: " << a.workload << " seed " << a.seed << ": "
            << tally.attempted << " operations, " << tally.failed
            << " failed (error_rate "
            << (tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                          static_cast<double>(tally.attempted)
                                    : 0.0)
            << "), " << latencies.size() << " job latency samples, "
            << setups.size() << " set-up samples, " << rates_plain.size() + rates_traced.size()
            << " repetitions\n";

  std::cout << "{\"samples\": {\"repetitions\": " << rates_plain.size() + rates_traced.size()
            << ", \"setup\": " << setups.size() << ", \"job_latency\": " << latencies.size()
            << "}}" << std::endl;
  if (!a.trace) {
    out.push_back({"setup_s", median(setups), "s"});
    out.push_back({"frames_per_s", median(rates_plain), "1/s"});
    out.push_back({"jobs_per_s", median(job_rates), "1/s"});
    out.push_back({"job_latency_p50_s", quantile(latencies, 0.5), "s"});
    out.push_back({"job_latency_p95_s", quantile(latencies, 0.95), "s"});
    out.push_back({"peak_rss_mb", rss_mb, "MB"});
    print_result(correct, tally.attempted, tally.failed, out);
    return 0;
  }

  // ---- traced run: per-layer costs ----------------------------------------
  // Layers the workload does not exercise are measured on small reference
  // jobs (seeded from the same seed) so that every metric is present; the
  // README's table says on which workload each one reaches end-to-end.
  std::vector<Job> probe_jobs = w.jobs;
  probe_jobs.insert(probe_jobs.end(), w.warmup.begin(), w.warmup.end());
  bool has_oracle_sweep = false, has_fleet = false;
  for (const Job& j : probe_jobs) {
    if (j.spec.kind == serve::JobKind::Fleet) has_fleet = true;
    if (j.spec.kind == serve::JobKind::Sweep && resolve_sweep(j.spec).oracle) {
      has_oracle_sweep = true;
    }
  }
  std::vector<Job> refs;
  if (!has_oracle_sweep) {
    refs.push_back(sweep_job("ref-shootout", "policy_shootout", 1, job_seed(a.seed, 99)));
  }
  if (!has_fleet) refs.push_back(fleet_job("ref-fleet", 1024, 64, job_seed(a.seed, 98)));
  probe_jobs.insert(probe_jobs.end(), refs.begin(), refs.end());

  std::vector<JobRun> structure_runs;  // sweep and fleet executions, traced
  std::vector<Job> structure_jobs;
  if (serve_wl) {
    // The daemon ran the jobs in its own process; run them again here,
    // traced and with quantiles on as the serve job runner has them, to
    // time the set-up and the sweep and fleet runners on serve's own jobs.
    const SetupPlan plan = make_setup_plan(probe_jobs);
    std::vector<double> tables, solves;
    for (int i = 0; i < 3; ++i) {
      const SetupCost c = cold_setup(plan);
      tables.push_back(c.table_s);
      solves.push_back(c.solve_s);
    }
    out.push_back({"detect.threshold_table_s", median(tables), "s"});
    out.push_back({"dpm.tismdp_solve_s", median(solves), "s"});
    for (const Job& j : probe_jobs) {
      if (j.spec.kind == serve::JobKind::Run) continue;
      structure_runs.push_back(
          j.spec.kind == serve::JobKind::Fleet
              ? run_fleet(j, a.jobs, work, true)
              : run_sweep(j, a.jobs, work, true, true));
      structure_jobs.push_back(j);
    }
  } else {
    structure_runs = traced_runs;
    structure_jobs = w.jobs;
    for (const Job& j : refs) {
      structure_runs.push_back(run_in_process(j, a.jobs, work, true));
      structure_jobs.push_back(j);
    }
  }

  const AssetSurvey survey = survey_assets(probe_jobs);
  out.push_back({"workload.asset_build_s", survey.build_s, "s"});
  out.push_back({"workload.assets", static_cast<double>(survey.count), "count"});

  double oracle_s = 0.0;
  std::size_t oracle_jobs = 0;
  for (const ProbeAsset& pa : survey.kept) {
    if (!pa.oracle) continue;
    std::vector<policy::OracleJob> jobs;
    for (const core::PlaybackItem& item : *pa.asset.items) {
      policy::OptimalOracle::append_jobs(item.trace, item.decoder, pa.delay_target, jobs);
    }
    oracle_jobs += jobs.size();
    const policy::OptimalOracle oracle{pa.cpu};
    const auto t0 = Clock::now();
    const policy::OracleSchedule s = oracle.solve(std::move(jobs));
    oracle_s += since(t0);
    g_sink = s.discrete_energy.value();
  }
  out.push_back({"policy.oracle_solve_s", oracle_s, "s"});
  out.push_back({"policy.oracle_jobs", static_cast<double>(oracle_jobs), "count"});

  // Sweep structure: serial share, point times, parallel efficiency.
  double serial_s = 0.0, point_sum = 0.0, exec_wall = 0.0;
  std::vector<double> point_s;
  double fleet_core_us = 0.0;
  std::size_t fleet_devices = 0;
  std::vector<double> shard_tails;
  std::vector<PointRecord> ckpt_points;
  std::vector<fleet::FleetShardPartial> ckpt_shards;
  for (std::size_t i = 0; i < structure_runs.size(); ++i) {
    const JobRun& r = structure_runs[i];
    if (structure_jobs[i].spec.kind == serve::JobKind::Sweep) {
      serial_s += r.wall - r.inner_wall;
      exec_wall += r.inner_wall;
      for (double s : r.unit_s) {
        point_s.push_back(s);
        point_sum += s;
      }
      ckpt_points.insert(ckpt_points.end(), r.points.begin(), r.points.end());
    } else {
      fleet_core_us += static_cast<double>(a.jobs) * r.wall * 1e6;
      fleet_devices += resolve_fleet(structure_jobs[i].spec).num_devices;
      // The last `jobs` shard completions: how long the pool's tail ran
      // with idle workers.
      std::vector<double> done = r.unit_done_s;
      std::sort(done.begin(), done.end());
      const std::size_t k = std::min<std::size_t>(done.size(), static_cast<std::size_t>(a.jobs));
      if (k >= 2) shard_tails.push_back(done.back() - done[done.size() - k]);
      ckpt_shards.insert(ckpt_shards.end(), r.shards.begin(), r.shards.end());
    }
  }
  out.push_back({"core.sweep_serial_s", serial_s, "s"});
  out.push_back({"core.point_s_p50", quantile(point_s, 0.5), "s"});
  out.push_back({"core.point_s_p95", quantile(point_s, 0.95), "s"});
  out.push_back({"core.parallel_eff",
                 exec_wall > 0.0 ? point_sum / (static_cast<double>(a.jobs) * exec_wall) : 0.0,
                 "ratio"});
  out.push_back({"fleet.device_core_us",
                 fleet_core_us / static_cast<double>(std::max<std::size_t>(1, fleet_devices)),
                 "us"});
  out.push_back({"fleet.shard_tail_s", median(shard_tails), "s"});

  // Engine and per-frame component costs on the workload's own traces.
  core::DetectorFactoryConfig det;
  det.prepare();
  const ProbeAsset* by_media[3] = {nullptr, nullptr, nullptr};
  for (const ProbeAsset& pa : survey.kept) {
    const auto k = static_cast<std::size_t>(pa.workload.kind);
    if (by_media[k] == nullptr) by_media[k] = &pa;
  }
  std::vector<ProbeAsset> fallback;
  fallback.reserve(3);
  const core::ScenarioSpec* media_ref[3] = {core::find_scenario("table3"),
                                            core::find_scenario("table4"),
                                            core::find_scenario("table5")};
  for (std::size_t k = 0; k < 3; ++k) {
    if (by_media[k] != nullptr) continue;
    const core::WorkloadSpec& ws = media_ref[k]->workloads.front();
    const core::CpuAsset cpu = core::build_cpu_asset("sa1100");
    fallback.push_back({ws,
                        core::build_workload_asset(ws, cpu.cpu, job_seed(a.seed, 97),
                                                   fault::FaultSpec{}, 0),
                        cpu.cpu, ws.default_delay_target(), false});
    by_media[k] = &fallback.back();
  }
  // The first asset the workload builds stands for its per-frame path.
  const ProbeAsset& main_asset = survey.kept.empty() ? *by_media[0] : survey.kept.front();
  double overhead_pct = 0.0;
  std::uint64_t probe_switches = 0, probe_sleeps = 0, probe_wakeups = 0;
  const char* media_names[3] = {"mp3", "mpeg", "session"};
  for (std::size_t k = 0; k < 3; ++k) {
    const bool is_main = by_media[k] == &main_asset;
    const EngineProbe e = probe_engine(*by_media[k], det, is_main);
    if (is_main) overhead_pct = e.metrics_overhead_pct;
    probe_switches += static_cast<std::uint64_t>(e.last.cpu_switches);
    probe_sleeps += static_cast<std::uint64_t>(e.last.dpm_sleeps);
    probe_wakeups += static_cast<std::uint64_t>(e.last.dpm_wakeups);
    out.push_back({std::string("core.engine_ns_per_frame.") + media_names[k],
                   e.ns_per_frame, "ns"});
  }
  const auto frames = frames_of(main_asset);
  out.push_back({"sim.event_ns", probe_sim_event(), "ns"});
  out.push_back({"sim.cancel_ns", probe_sim_cancel(), "ns"});
  out.push_back({"detect.change_point_ns", probe_change_point(frames, det), "ns"});
  out.push_back({"policy.governor_step_ns.paper", probe_governor(main_asset, "paper", det), "ns"});
  out.push_back({"policy.governor_step_ns.qdpm", probe_governor(main_asset, "qdpm", det), "ns"});
  out.push_back({"queue.frame_buffer_ns", probe_frame_buffer(frames), "ns"});
  out.push_back({"hw.component_ns", probe_component(frames), "ns"});
  out.push_back({"obs.flight_record_ns", probe_flight(frames), "ns"});
  out.push_back({"obs.metrics_overhead_pct", overhead_pct, "%"});

  // Serve bookkeeping on the workload's own jobs and unit results.
  out.push_back({"serve.spec_parse_us", probe_spec_parse(work, w.jobs), "us"});
  out.push_back({"serve.checkpoint_append_us", probe_checkpoint(work, ckpt_points, ckpt_shards), "us"});
  out.push_back({"serve.event_append_us", probe_event_log(work, w.jobs), "us"});
  out.push_back({"serve.status_write_us", probe_status(work, w.jobs), "us"});
  const fs::path summaries =
      serve_wl ? serve_root_last : summaries_root(work, structure_runs, structure_jobs);
  out.push_back({"serve.metrics_refresh_ms", probe_metrics_refresh(summaries), "ms"});
  if (!serve_wl) pickup_gaps = probe_pickup_gaps(work, a.seed);
  out.push_back({"serve.pickup_gap_ms", median(pickup_gaps) * 1e3, "ms"});

  // Counts that say how much work the figures above cover.
  std::uint64_t switches = 0, sleeps = 0, wakeups = 0;
  for (const JobRun& r : structure_runs) {
    switches += r.switches;
    sleeps += r.sleeps;
    wakeups += r.wakeups;
  }
  if (a.workload == "fleet-population") {
    // Fleet results carry no per-run Metrics: count the engine probes.
    switches = probe_switches;
    sleeps = probe_sleeps;
    wakeups = probe_wakeups;
  }
  out.push_back({"core.frames", static_cast<double>(frames_per_pass), "count"});
  out.push_back({"policy.cpu_switches", static_cast<double>(switches), "count"});
  out.push_back({"dpm.sleeps", static_cast<double>(sleeps), "count"});
  out.push_back({"dpm.wakeups", static_cast<double>(wakeups), "count"});
  out.push_back({"queue.frames_dropped", static_cast<double>(dropped_per_pass), "count"});
  out.push_back({"serve.units", static_cast<double>(units_per_pass), "count"});
  out.push_back({"trace.overhead_pct",
                 rates_traced.empty() ? 0.0
                                      : (median(rates_plain) / median(rates_traced) - 1.0) * 100.0,
                 "%"});
  print_result(correct, tally.attempted, tally.failed, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::cerr << "perfbench: refusing to measure an unoptimized build ("
            << DVS_BENCH_BUILD_TYPE << ")\n";
  return 3;
#endif
  try {
    const Args a = parse_args(argc, argv);
    std::cout << "{\"build\": {\"type\": \"" << DVS_BENCH_BUILD_TYPE
              << "\", \"compiler\": \"" << DVS_BENCH_COMPILER
              << "\", \"optimized\": true}}" << std::endl;
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
