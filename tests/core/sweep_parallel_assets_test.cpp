// The sweep builds its shared workload assets and oracle solves on the
// worker pool, each into its own key-indexed slot.  A grid that mixes every
// workload kind with a trace fault and several replicates has many distinct
// assets of very different sizes, so the pool finishes them out of order;
// the CSV artifacts must still be byte-identical at any --jobs.  Part of the
// ThreadSanitizer job's test set.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/csv.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "fault/fault_spec.hpp"

namespace dvs::core {
namespace {

ScenarioSpec mixed_spec() {
  ScenarioSpec s;
  s.name = "parallel-assets";
  SessionConfig session;
  session.cycles = 2;
  session.mp3_labels = "AB";
  session.mpeg_segment = Seconds{20.0};
  s.workloads = {WorkloadSpec::mp3("A"),
                 WorkloadSpec::mpeg("football", Seconds{40.0}),
                 WorkloadSpec::usage_session(session)};
  const fault::FaultSpec* spike = fault::find_fault("spike10x");
  EXPECT_NE(spike, nullptr);
  s.faults = {fault::FaultSpec{}, *spike};
  s.replicates = 3;
  s.base_seed = 31;
  s.oracle = true;
  s.detector_cfg.change_point.mc_windows = 400;
  return s;
}

std::string csv_bytes(const ScenarioSpec& spec, int jobs) {
  SweepOptions opts;
  opts.jobs = jobs;
  const SweepResult res = SweepRunner{opts}.run(spec);

  const std::string base =
      testing::TempDir() + "sweep_parallel_assets_j" + std::to_string(jobs);
  {
    CsvWriter points{base + "_points.csv"};
    res.write_points_csv(points);
    CsvWriter cells{base + "_cells.csv"};
    res.write_cells_csv(cells);
  }
  std::ostringstream bytes;
  for (const char* suffix : {"_points.csv", "_cells.csv"}) {
    std::ifstream in{base + suffix, std::ios::binary};
    bytes << in.rdbuf() << '\0';
  }
  return bytes.str();
}

TEST(SweepParallelAssets, MixedWorkloadGridIsByteIdenticalAtAnyJobs) {
  const ScenarioSpec spec = mixed_spec();
  // 3 workloads x 2 faults x 3 replicates: 18 distinct assets and solves.
  ASSERT_EQ(spec.num_points(), 18u);
  const std::string serial = csv_bytes(spec, 1);
  ASSERT_GT(serial.size(), 0u);
  // The oracle ran: every point row carries a competitive ratio.
  EXPECT_NE(serial.find("competitive_ratio"), std::string::npos);
  EXPECT_EQ(serial, csv_bytes(spec, 2));
  EXPECT_EQ(serial, csv_bytes(spec, 4));
}

}  // namespace
}  // namespace dvs::core
