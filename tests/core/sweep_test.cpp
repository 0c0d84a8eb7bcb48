#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/metrics_registry.hpp"

namespace dvs::core {
namespace {

// A cheap two-cell spec shared by the runner tests: one short MP3 clip,
// change-point vs max, two replicates.  The small Monte-Carlo window count
// keeps threshold characterization fast.
std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

ScenarioSpec tiny_spec() {
  ScenarioSpec s;
  s.name = "tiny";
  s.workloads = {WorkloadSpec::mp3("A")};
  s.detectors = {DetectorKind::ChangePoint, DetectorKind::Max};
  s.replicates = 2;
  s.base_seed = 7;
  s.detector_cfg.change_point.mc_windows = 400;
  return s;
}

TEST(T95Quantile, MatchesTheStudentTTable) {
  EXPECT_DOUBLE_EQ(t95_quantile(0), 0.0);
  EXPECT_NEAR(t95_quantile(1), 12.706, 1e-3);
  EXPECT_NEAR(t95_quantile(2), 4.303, 1e-3);
  EXPECT_NEAR(t95_quantile(10), 2.228, 1e-3);
  EXPECT_NEAR(t95_quantile(30), 2.042, 1e-3);
  EXPECT_NEAR(t95_quantile(1000), 1.960, 1e-3);  // normal approximation
}

TEST(AggregateStats, HandComputedThreeReplicates) {
  RunningStats s;
  s.add(1.0);
  s.add(2.0);
  s.add(4.0);
  const Aggregate a = aggregate(s);
  EXPECT_EQ(a.n, 3u);
  // mean = 7/3; sd = sqrt(((1-7/3)^2+(2-7/3)^2+(4-7/3)^2)/2) = sqrt(7/3);
  // ci95 = t_{0.975,2} * sd / sqrt(3) = 4.303 * 1.5275252 / 1.7320508.
  EXPECT_NEAR(a.mean, 2.3333333, 1e-6);
  EXPECT_NEAR(a.stddev, 1.5275252, 1e-6);
  EXPECT_NEAR(a.ci95_half, 3.7948893, 1e-6);
}

TEST(AggregateStats, DegenerateSampleSizes) {
  RunningStats empty;
  const Aggregate a0 = aggregate(empty);
  EXPECT_EQ(a0.n, 0u);
  EXPECT_DOUBLE_EQ(a0.mean, 0.0);
  EXPECT_DOUBLE_EQ(a0.ci95_half, 0.0);

  RunningStats one;
  one.add(5.0);
  const Aggregate a1 = aggregate(one);
  EXPECT_EQ(a1.n, 1u);
  EXPECT_DOUBLE_EQ(a1.mean, 5.0);
  EXPECT_DOUBLE_EQ(a1.stddev, 0.0);
  EXPECT_DOUBLE_EQ(a1.ci95_half, 0.0);
}

TEST(ResolveJobs, PositivePassesThroughZeroMeansAllCores) {
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(8), 8);
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-3), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (int jobs : {1, 2, 8}) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{100}}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(n, jobs, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " n=" << n
                                     << " i=" << i;
      }
    }
  }
}

TEST(ParallelFor, MoreJobsThanWorkStillCompletes) {
  std::atomic<int> count{0};
  parallel_for(2, 16, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 2);
}

TEST(ParallelFor, RethrowsWorkerException) {
  EXPECT_THROW(parallel_for(50, 4,
                            [&](std::size_t i) {
                              if (i == 17) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(SweepRunner, ParallelRunIsBitIdenticalToSerial) {
  const ScenarioSpec spec = tiny_spec();
  SweepOptions serial;
  serial.jobs = 1;
  const SweepResult a = SweepRunner{serial}.run(spec);
  SweepOptions wide;
  wide.jobs = 8;
  const SweepResult b = SweepRunner{wide}.run(spec);

  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const Metrics& m1 = a.points[i].metrics;
    const Metrics& m2 = b.points[i].metrics;
    // EXPECT_EQ on doubles: the contract is bit-identical, not approximate.
    EXPECT_EQ(m1.total_energy.value(), m2.total_energy.value()) << i;
    EXPECT_EQ(m1.cpu_memory_energy().value(), m2.cpu_memory_energy().value())
        << i;
    EXPECT_EQ(m1.mean_frame_delay.value(), m2.mean_frame_delay.value()) << i;
    EXPECT_EQ(m1.max_frame_delay.value(), m2.max_frame_delay.value()) << i;
    EXPECT_EQ(m1.mean_cpu_frequency.value(), m2.mean_cpu_frequency.value())
        << i;
    EXPECT_EQ(m1.cpu_switches, m2.cpu_switches) << i;
    EXPECT_EQ(m1.frames_decoded, m2.frames_decoded) << i;
    EXPECT_EQ(m1.average_power.value(), m2.average_power.value()) << i;
  }
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    EXPECT_EQ(a.cells[c].energy_kj.mean, b.cells[c].energy_kj.mean) << c;
    EXPECT_EQ(a.cells[c].energy_kj.ci95_half, b.cells[c].energy_kj.ci95_half)
        << c;
  }
}

TEST(SweepRunner, FeedsMetricsRegistryAndProgressCallback) {
  const ScenarioSpec spec = tiny_spec();
  obs::MetricsRegistry registry;
  std::atomic<int> seen{0};
  SweepOptions opts;
  opts.jobs = 2;
  opts.metrics = &registry;
  opts.on_point_checkpoint = [&](const RunPoint& p, const Metrics&,
                                 const obs::QuantileSketch&) {
    EXPECT_LT(p.index, spec.num_points());
    seen.fetch_add(1);
  };
  const SweepResult res = SweepRunner{opts}.run(spec);

  EXPECT_EQ(seen.load(), static_cast<int>(spec.num_points()));
  EXPECT_EQ(res.points.size(), spec.num_points());
  EXPECT_EQ(res.cells.size(), spec.num_cells());
  EXPECT_EQ(registry.counter_value("sweep.points"),
            static_cast<std::uint64_t>(spec.num_points()));
  EXPECT_EQ(registry.counter_value("sweep.cells"),
            static_cast<std::uint64_t>(spec.num_cells()));
  EXPECT_EQ(registry.gauge_value("sweep.jobs"), 2.0);
  const obs::HistogramMetric* energy =
      registry.find_histogram("sweep.point_energy_kj");
  ASSERT_NE(energy, nullptr);
  EXPECT_EQ(energy->count(), spec.num_points());
}

TEST(SweepResult, CellsCsvHeaderIsStable) {
  const ScenarioSpec spec = tiny_spec();
  const SweepResult res = SweepRunner{}.run(spec);

  const std::string path = ::testing::TempDir() + "sweep_test_cells.csv";
  {
    CsvWriter csv(path);
    res.write_cells_csv(csv);
  }
  std::istringstream lines(slurp(path));
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header,
            "scenario,cell,workload,detector,policy,dpm,faults,cpu,"
            "delay_target_s,service_cv2,replicates,energy_kj_mean,"
            "energy_kj_sd,energy_kj_ci95,cpu_mem_kj_mean,cpu_mem_kj_sd,"
            "cpu_mem_kj_ci95,delay_s_mean,delay_s_sd,delay_s_ci95,"
            "freq_mhz_mean,freq_mhz_sd,freq_mhz_ci95,switches_mean,"
            "sleeps_mean,wakeup_delay_s_mean,power_mw_mean,"
            "faults_injected_mean,recoveries_mean,time_degraded_s_mean,"
            "delay_p50,delay_p90,delay_p99,competitive_ratio");
  std::string row;
  std::size_t rows = 0;
  while (std::getline(lines, row)) {
    if (!row.empty()) ++rows;
  }
  EXPECT_EQ(rows, spec.num_cells());
}

TEST(SweepResult, PointsCsvHasOneRowPerPoint) {
  const ScenarioSpec spec = tiny_spec();
  const SweepResult res = SweepRunner{}.run(spec);
  const std::string path = ::testing::TempDir() + "sweep_test_points.csv";
  {
    CsvWriter csv(path);
    res.write_points_csv(csv);
  }
  std::istringstream lines(slurp(path));
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header.substr(0, 30), "scenario,point,cell,replicate,");
  std::string row;
  std::size_t rows = 0;
  while (std::getline(lines, row)) {
    if (!row.empty()) ++rows;
  }
  EXPECT_EQ(rows, spec.num_points());
}

TEST(SweepResult, FindCellLocatesByPredicate) {
  const ScenarioSpec spec = tiny_spec();
  const SweepResult res = SweepRunner{}.run(spec);
  const CellResult* max_cell = res.find_cell([](const CellResult& c) {
    return c.point.detector == DetectorKind::Max;
  });
  ASSERT_NE(max_cell, nullptr);
  EXPECT_EQ(max_cell->point.detector, DetectorKind::Max);
  EXPECT_EQ(res.find_cell([](const CellResult&) { return false; }), nullptr);
}

}  // namespace
}  // namespace dvs::core
