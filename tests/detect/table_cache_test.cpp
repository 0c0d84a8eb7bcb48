// The process-wide ThresholdTable cache: one characterization per config
// value, bit-identical to a fresh build, no cross-config collisions.
#include <gtest/gtest.h>

#include "core/detectors.hpp"
#include "detect/table_cache.hpp"
#include "detect/threshold_table.hpp"

namespace dvs::detect {
namespace {

ChangePointConfig small_config() {
  ChangePointConfig cfg;
  cfg.mc_windows = 400;  // fast characterization for tests
  return cfg;
}

TEST(TableCache, SameConfigSharesOneInstance) {
  clear_threshold_table_cache();
  const ChangePointConfig cfg = small_config();
  const auto a = shared_threshold_table(cfg);
  const auto b = shared_threshold_table(cfg);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());

  const TableCacheStats stats = threshold_table_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(TableCache, CachedTableIsBitwiseEqualToFreshCharacterization) {
  clear_threshold_table_cache();
  const ChangePointConfig cfg = small_config();
  const auto cached = shared_threshold_table(cfg);
  const ThresholdTable fresh{cfg};

  ASSERT_EQ(cached->entries().size(), fresh.entries().size());
  for (std::size_t i = 0; i < fresh.entries().size(); ++i) {
    EXPECT_EQ(cached->entries()[i].first, fresh.entries()[i].first) << i;
    EXPECT_EQ(cached->entries()[i].second, fresh.entries()[i].second) << i;
  }
  EXPECT_EQ(cached->scan_margin(), fresh.scan_margin());
  EXPECT_EQ(cached->ratios(), fresh.ratios());
  ASSERT_EQ(cached->scan().size(), fresh.scan().size());
  for (std::size_t i = 0; i < fresh.scan().size(); ++i) {
    EXPECT_EQ(cached->scan()[i].ratio, fresh.scan()[i].ratio) << i;
    EXPECT_EQ(cached->scan()[i].log_ratio, fresh.scan()[i].log_ratio) << i;
    EXPECT_EQ(cached->scan()[i].threshold, fresh.scan()[i].threshold) << i;
  }
}

TEST(TableCache, DistinctConfigsDoNotCollide) {
  clear_threshold_table_cache();
  const ChangePointConfig base = small_config();
  ChangePointConfig other = base;
  other.confidence = 0.99;

  const auto a = shared_threshold_table(base);
  const auto b = shared_threshold_table(other);
  EXPECT_NE(a.get(), b.get());
  // 99% vs 99.5% confidence must characterize different thresholds.
  EXPECT_NE(a->entries().front().second, b->entries().front().second);

  const TableCacheStats stats = threshold_table_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(TableCache, ClearDropsEntriesButOutstandingTablesSurvive) {
  clear_threshold_table_cache();
  const ChangePointConfig cfg = small_config();
  const auto a = shared_threshold_table(cfg);
  clear_threshold_table_cache();
  EXPECT_EQ(threshold_table_cache_stats().entries, 0u);
  // The old shared_ptr still works...
  EXPECT_FALSE(a->entries().empty());
  // ...and the next lookup recharacterizes into a new instance.
  const auto b = shared_threshold_table(cfg);
  EXPECT_NE(a.get(), b.get());
}

// The "cold CLI" guarantee: every consumer that prepares the same detector
// configuration in one process pays the Monte-Carlo characterization at
// most once, no matter how many configs/engines/detectors are built.
TEST(TableCache, RepeatedPreparePaysCharacterizationOnce) {
  clear_threshold_table_cache();
  core::DetectorFactoryConfig c1;
  c1.change_point.mc_windows = 400;
  core::DetectorFactoryConfig c2 = c1;

  c1.prepare();
  c2.prepare();
  auto d1 = core::make_detector(core::DetectorKind::ChangePoint, c1, nullptr);
  auto d2 = core::make_detector(core::DetectorKind::ChangePoint, c2, nullptr);
  ASSERT_NE(d1, nullptr);
  ASSERT_NE(d2, nullptr);
  EXPECT_EQ(c1.thresholds.get(), c2.thresholds.get());

  const TableCacheStats stats = threshold_table_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);
}

}  // namespace
}  // namespace dvs::detect
