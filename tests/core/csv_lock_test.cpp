// CSV behaviour lock: FNV-1a digests of the deterministic CSV bytes of the
// paper's sweeps (table3, table4, table5, policy_shootout at one replicate)
// and of a 1k-device fleet_smoke population, each at jobs 1 and 4.
//
// The constants pin the exact bytes every experiment reports.  A change
// that only makes the code faster or smaller must leave them alone; a
// change that moves one on purpose must say which columns moved, and by
// how much, in its change record.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/csv.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "fleet/fleet_runner.hpp"
#include "fleet/fleet_spec.hpp"

namespace dvs {
namespace {

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

std::string slurp_and_remove(const std::string& path) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  std::remove(path.c_str());
  return bytes;
}

/// Digest of the cells CSV followed by the points CSV of one sweep.
std::string sweep_digest(const std::string& scenario, int jobs) {
  const core::ScenarioSpec* found = core::find_scenario(scenario);
  EXPECT_NE(found, nullptr) << scenario;
  if (found == nullptr) return {};
  core::ScenarioSpec spec = *found;
  spec.replicates = 1;
  core::SweepOptions opts;
  opts.jobs = jobs;
  const core::SweepResult res = core::SweepRunner{opts}.run(spec);
  const std::string base = ::testing::TempDir() + "csv_lock_" + scenario +
                           "_j" + std::to_string(jobs);
  {
    CsvWriter cells{base + "_cells.csv"};
    res.write_cells_csv(cells);
    CsvWriter points{base + "_points.csv"};
    res.write_points_csv(points);
  }
  std::string bytes = slurp_and_remove(base + "_cells.csv");
  bytes += '\0';
  bytes += slurp_and_remove(base + "_points.csv");
  return hex(fnv1a(bytes));
}

std::string fleet_digest(int jobs) {
  const fleet::FleetSpec* found = fleet::find_fleet("fleet_smoke");
  EXPECT_NE(found, nullptr);
  if (found == nullptr) return {};
  fleet::FleetSpec spec = *found;
  spec.num_devices = 1000;
  fleet::FleetOptions opts;
  opts.jobs = jobs;
  opts.shard_size = 64;
  const fleet::FleetResult res = fleet::FleetRunner{opts}.run(spec);
  const std::string path =
      ::testing::TempDir() + "csv_lock_fleet_j" + std::to_string(jobs) + ".csv";
  {
    CsvWriter csv{path};
    res.write_csv(csv);
  }
  return hex(fnv1a(slurp_and_remove(path)));
}

TEST(CsvLock, Table3) {
  EXPECT_EQ(sweep_digest("table3", 1), "0x3bada4d3f78c0a81");
  EXPECT_EQ(sweep_digest("table3", 4), "0x3bada4d3f78c0a81");
}

TEST(CsvLock, Table4) {
  EXPECT_EQ(sweep_digest("table4", 1), "0xd01d2074a5c691e9");
  EXPECT_EQ(sweep_digest("table4", 4), "0xd01d2074a5c691e9");
}

TEST(CsvLock, Table5) {
  EXPECT_EQ(sweep_digest("table5", 1), "0x7b524e398498a724");
  EXPECT_EQ(sweep_digest("table5", 4), "0x7b524e398498a724");
}

TEST(CsvLock, PolicyShootout) {
  EXPECT_EQ(sweep_digest("policy_shootout", 1), "0x1d0ba4c6d2895a84");
  EXPECT_EQ(sweep_digest("policy_shootout", 4), "0x1d0ba4c6d2895a84");
}

TEST(CsvLock, FleetSmoke1k) {
  EXPECT_EQ(fleet_digest(1), "0x45b57be38b0fb5c5");
  EXPECT_EQ(fleet_digest(4), "0x45b57be38b0fb5c5");
}

}  // namespace
}  // namespace dvs
