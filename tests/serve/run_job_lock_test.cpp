// Run-path behaviour lock for serve run jobs: three run-kind jobs (an MP3
// sequence, a truncated MPEG clip and a usage session, two of them under
// stacked fault specs) executed in-process through serve::run_job.  The
// run.csv bytes are pinned verbatim and job_summary.json (minus the
// wall-clock elapsed_s line) by FNV-1a digest, so any change to how a run
// job builds its trace, fault plan, delay target or engine options shows up
// here.  The matching CLI lock lives in tests/cli_smoke_test.py.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "serve/job_runner.hpp"
#include "serve/job_spec.hpp"

namespace dvs::serve {
namespace {

namespace fs = std::filesystem;

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string slurp(const fs::path& p) {
  std::ifstream is{p, std::ios::binary};
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// job_summary.json without its "elapsed_s" line (wall time, not a result).
std::string summary_without_elapsed(const fs::path& p) {
  std::istringstream is{slurp(p)};
  std::string out;
  for (std::string line; std::getline(is, line);) {
    if (line.find("\"elapsed_s\"") == std::string::npos) out += line + "\n";
  }
  return out;
}

struct JobBytes {
  std::string run_csv;
  std::string summary;
};

JobBytes run_locked_job(const char* id, const std::string& run_section,
                        const char* seed) {
  const fs::path dir = fs::temp_directory_path() /
                       (std::string("serve_run_lock_") + id);
  fs::remove_all(dir);
  const std::string text =
      std::string(R"({"schema": "dvs-job-v1", "kind": "run", )") + seed +
      R"("run": )" + run_section + "}";
  const JobSpec job = JobSpec::parse_text(text, id);
  JobPaths paths;
  paths.output_dir = dir.string();
  (void)run_job(job, paths, 1);
  JobBytes out{slurp(dir / "run.csv"),
               summary_without_elapsed(dir / "job_summary.json")};
  fs::remove_all(dir);
  return out;
}

constexpr const char* kRunCsvHeader =
    "duration_s,energy_j,avg_power_mw,frames_decoded,frames_dropped,"
    "mean_delay_s,max_delay_s,cpu_switches,dpm_sleeps\n";

TEST(RunJobLock, Mp3SequenceWithStackedFaults) {
  const JobBytes b = run_locked_job(
      "mp3",
      R"({"media": "mp3", "sequence": "AC", "dpm": "tismdp",
          "faults": "spike10x,chaos"})",
      R"("seed": 7, )");
  EXPECT_EQ(b.run_csv,
            std::string(kRunCsvHeader) +
                "420.547,409.728,974.273,42937,0,158.25,310.995,5,2\n");
  EXPECT_EQ(hex(fnv1a(b.summary)), "0x020dd6d90d4d2521");
}

TEST(RunJobLock, TruncatedMpegClipUnderQdpm) {
  const JobBytes b = run_locked_job(
      "mpeg",
      R"({"media": "mpeg", "clip": "terminator2", "seconds": 30,
          "detector": "ema", "policy": "qdpm"})",
      "");
  EXPECT_EQ(b.run_csv,
            std::string(kRunCsvHeader) +
                "30.6832,43.6542,1422.74,734,0,0.0833246,0.264282,588,0\n");
  EXPECT_EQ(hex(fnv1a(b.summary)), "0x8a37e0e3b382260e");
}

TEST(RunJobLock, SessionWithStackedFaults) {
  const JobBytes b = run_locked_job(
      "session",
      R"({"session": true, "cycles": 2, "seconds": 20, "dpm": "tismdp",
          "faults": "spike10x,chaos"})",
      R"("seed": 7, )");
  EXPECT_EQ(b.run_csv,
            std::string(kRunCsvHeader) +
                "1038.26,1487.19,1432.4,102454,0,359.868,785.188,8,2\n");
  EXPECT_EQ(hex(fnv1a(b.summary)), "0x22eb3bb2b7587e8a");
}

}  // namespace
}  // namespace dvs::serve
