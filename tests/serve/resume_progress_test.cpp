// Progress on a resumed job: units restored from the checkpoint count as
// already done.  The heartbeat starts past them and still ends at the
// total, the daemon's JobProgress runs from k+1 to the total, and no
// restored unit reaches the runner's observer — at any worker count.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/sweep.hpp"
#include "fleet/fleet_runner.hpp"
#include "serve/checkpoint.hpp"
#include "serve/job_runner.hpp"
#include "serve/job_spec.hpp"

namespace dvs::serve {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const char* name)
      : path_(fs::temp_directory_path() / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// Keeps the header plus the first `records` records of a checkpoint.
void keep_records(const fs::path& path, std::size_t records) {
  std::ifstream in(path);
  std::vector<std::string> kept;
  std::string line;
  while (kept.size() < records + 1 && std::getline(in, line)) {
    kept.push_back(line);
  }
  in.close();
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& l : kept) out << l << "\n";
}

std::vector<json::ValuePtr> heartbeats(const std::string& output_dir) {
  std::ifstream in(output_dir + "/heartbeat.jsonl");
  std::vector<json::ValuePtr> beats;
  std::string line;
  while (std::getline(in, line)) beats.push_back(json::parse(line));
  return beats;
}

/// Resumes `job` from `master` cut to `k` records; checks the heartbeat
/// and the JobProgress feed.  `first_done(first_beat)` is the first
/// heartbeat's expected `done`.
template <class FirstDone>
void check_resumed_progress(const JobSpec& job, const fs::path& dir,
                            const fs::path& master, std::size_t k,
                            std::size_t total_units, double total_progress,
                            FirstDone first_done) {
  for (int jobs : {1, 3}) {
    const std::string tag = "_j" + std::to_string(jobs);
    const fs::path ckpt = dir / ("resume" + tag + ".ckpt.jsonl");
    fs::copy_file(master, ckpt, fs::copy_options::overwrite_existing);
    keep_records(ckpt, k);

    JobPaths paths;
    paths.output_dir = (dir / ("out" + tag)).string();
    paths.checkpoint_path = ckpt.string();
    std::vector<std::size_t> units_done;
    paths.on_progress = [&](const JobProgress& p) {
      EXPECT_EQ(p.units_total, total_units);
      units_done.push_back(p.units_done);
    };
    const JobOutcome out = run_job(job, paths, jobs);
    EXPECT_EQ(out.restored_units, k) << "jobs=" << jobs;

    ASSERT_EQ(units_done.size(), total_units - k) << "jobs=" << jobs;
    for (std::size_t i = 0; i < units_done.size(); ++i) {
      EXPECT_EQ(units_done[i], k + 1 + i) << "jobs=" << jobs;
    }

    const std::vector<json::ValuePtr> beats = heartbeats(paths.output_dir);
    ASSERT_EQ(beats.size(), total_units - k) << "jobs=" << jobs;
    EXPECT_DOUBLE_EQ(beats.front()->at("done").as_number(),
                     first_done(*beats.front()))
        << "jobs=" << jobs;
    EXPECT_DOUBLE_EQ(beats.back()->at("done").as_number(), total_progress)
        << "jobs=" << jobs;
    EXPECT_DOUBLE_EQ(beats.back()->at("total").as_number(), total_progress);
    EXPECT_EQ(beats.front()->at("job").as_string(), job.id);
  }
}

TEST(ServeResumeProgress, SweepCountsRestoredPointsAsDone) {
  TempDir tmp("serve_resume_progress_sweep");
  const JobSpec job = JobSpec::parse_text(
      R"({"schema": "dvs-job-v1", "kind": "sweep",
          "sweep": {"scenario": "quick"}})",
      "sweep-progress");
  const core::ScenarioSpec scenario = *core::find_scenario("quick");
  const std::size_t total = scenario.num_points();
  const std::size_t k = 2;

  const fs::path master = tmp.path() / "master.ckpt.jsonl";
  {
    CheckpointWriter w(master.string(), job.id, "sweep", 1);
    core::SweepOptions sopts;
    sopts.collect_quantiles = true;
    sopts.on_point_checkpoint = [&w](const core::RunPoint& p,
                                     const core::Metrics& m,
                                     const obs::QuantileSketch& sketch) {
      w.append_point(p.index, m, sketch);
    };
    (void)core::SweepRunner{sopts}.run(scenario);
  }
  check_resumed_progress(job, tmp.path(), master, k, total,
                         static_cast<double>(total),
                         [k](const json::Value&) { return k + 1.0; });

  // The runner's observer never sees a restored point.
  fs::copy_file(master, tmp.path() / "direct.ckpt.jsonl");
  keep_records(tmp.path() / "direct.ckpt.jsonl", k);
  const CheckpointData data =
      load_checkpoint((tmp.path() / "direct.ckpt.jsonl").string());
  ASSERT_EQ(data.points.size(), k);
  for (int jobs : {1, 3}) {
    core::SweepOptions sopts;
    sopts.jobs = jobs;
    sopts.collect_quantiles = true;
    sopts.restored = &data.points;
    std::vector<std::size_t> observed;
    sopts.on_point_checkpoint = [&](const core::RunPoint& p,
                                    const core::Metrics&,
                                    const obs::QuantileSketch&) {
      EXPECT_EQ(data.points.count(p.index), 0u) << "restored point observed";
      observed.push_back(p.index);
    };
    (void)core::SweepRunner{sopts}.run(scenario);
    EXPECT_EQ(observed.size(), total - k) << "jobs=" << jobs;
  }
}

TEST(ServeResumeProgress, FleetCountsRestoredDevicesAsDone) {
  TempDir tmp("serve_resume_progress_fleet");
  const JobSpec job = JobSpec::parse_text(
      R"({"schema": "dvs-job-v1", "kind": "fleet", "seed": 11,
          "fleet": {"name": "fleet_smoke", "devices": 192,
                    "shard_size": 32}})",
      "fleet-progress");
  dvs::fleet::FleetSpec fspec = *dvs::fleet::find_fleet("fleet_smoke");
  fspec.num_devices = 192;
  fspec.fleet_seed = 11;
  const std::size_t shards = 6;
  const std::size_t k = 3;

  const fs::path master = tmp.path() / "master.ckpt.jsonl";
  {
    CheckpointWriter w(master.string(), job.id, "fleet", 1);
    dvs::fleet::FleetOptions fopts;
    fopts.shard_size = 32;
    fopts.on_shard = [&w](std::size_t shard,
                          const dvs::fleet::FleetShardPartial& part) {
      w.append_shard(shard, part);
    };
    (void)dvs::fleet::FleetRunner{fopts}.run(fspec);
  }
  // The first record's done = the restored devices + that shard's own.
  check_resumed_progress(job, tmp.path(), master, k, shards, 192.0,
                         [k](const json::Value& first) {
                           return 32.0 * k + first.at("devices").as_number();
                         });

  fs::copy_file(master, tmp.path() / "direct.ckpt.jsonl");
  keep_records(tmp.path() / "direct.ckpt.jsonl", k);
  const CheckpointData data =
      load_checkpoint((tmp.path() / "direct.ckpt.jsonl").string());
  ASSERT_EQ(data.shards.size(), k);
  for (int jobs : {1, 3}) {
    dvs::fleet::FleetOptions fopts;
    fopts.jobs = jobs;
    fopts.shard_size = 32;
    fopts.restored = &data.shards;
    std::vector<std::size_t> observed;
    fopts.on_shard = [&](std::size_t shard,
                         const dvs::fleet::FleetShardPartial&) {
      EXPECT_EQ(data.shards.count(shard), 0u) << "restored shard observed";
      observed.push_back(shard);
    };
    (void)dvs::fleet::FleetRunner{fopts}.run(fspec);
    EXPECT_EQ(observed.size(), shards - k) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace dvs::serve
