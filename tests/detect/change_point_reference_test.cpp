// ChangePointDetector against a straightforward reference implementation.
//
// The detector reads precomputed scan records (ln r, threshold per ratio)
// and a running warm-up/settling sum.  The reference below re-derives all
// of it per sample: window sums by explicit loops, the statistic through
// max_log_likelihood_ratio, the threshold through threshold_for_ratio.
// Every returned rate and every decision must agree bit for bit.
#include "detect/change_point.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "detect/threshold_table.hpp"

namespace dvs::detect {

// Names a parameterized config in gtest's failure messages.
void PrintTo(const ChangePointConfig& cfg, std::ostream* os) {
  *os << "window " << cfg.window << ", check_interval " << cfg.check_interval
      << ", min_tail " << cfg.min_tail << ", grid " << cfg.grid_step << "^"
      << cfg.grid_points;
}

namespace {

class ReferenceChangePoint {
 public:
  explicit ReferenceChangePoint(std::shared_ptr<const ThresholdTable> table)
      : table_(std::move(table)) {}

  std::vector<DetectorDecisionInfo> decisions;

  void reset(double initial) {
    window_.clear();
    since_check_ = 0;
    settling_ = 0;
    rate_ = initial;
    warmed_up_ = initial > 0.0;
  }

  double on_sample(double interval) {
    const ChangePointConfig& cfg = table_->config();
    window_.push_back(interval);
    if (window_.size() > cfg.window) window_.erase(window_.begin());
    if (settling_ < cfg.window) ++settling_;

    if (!warmed_up_) {
      if (window_.size() >= cfg.min_tail) {
        double sum = 0.0;
        for (double x : window_) sum += x;
        rate_ = static_cast<double>(window_.size()) / sum;
        warmed_up_ = true;
      }
      return rate_;
    }
    if (settling_ < cfg.window) {
      const std::size_t n = std::min(settling_, window_.size());
      double sum = 0.0;
      for (std::size_t j = window_.size() - n; j < window_.size(); ++j) {
        sum += window_[j];
      }
      if (n >= cfg.min_tail && sum > 0.0) {
        const double refined = static_cast<double>(n) / sum;
        if (std::abs(refined - rate_) > 0.03 * rate_) rate_ = refined;
      }
    }
    ++since_check_;
    if (since_check_ >= cfg.check_interval && window_.size() >= cfg.window) {
      since_check_ = 0;
      detect();
    }
    return rate_;
  }

 private:
  void detect() {
    const ChangePointConfig& cfg = table_->config();
    const std::size_t m = window_.size();
    const std::size_t step = std::max<std::size_t>(cfg.check_interval, 1);
    std::vector<double> normalized(m);
    for (std::size_t j = 0; j < m; ++j) normalized[j] = window_[j] * rate_;

    double best_margin = -std::numeric_limits<double>::infinity();
    double best_stat = -std::numeric_limits<double>::infinity();
    double best_threshold = 0.0;
    std::size_t best_k = 0;
    for (double r : table_->ratios()) {
      const double stat = max_log_likelihood_ratio(normalized, r, cfg);
      // The latest candidate position attaining the maximum.
      std::size_t k = 0;
      double tail_sum = 0.0;
      for (std::size_t j = m; j-- > 0;) {
        tail_sum += normalized[j];
        if (m - j < cfg.min_tail || j % step != 0) continue;
        const double lnp =
            static_cast<double>(m - j) * std::log(r) - (r - 1.0) * tail_sum;
        if (lnp == stat) {
          k = j;
          break;
        }
      }
      const double threshold = table_->threshold_for_ratio(r);
      if (stat - threshold > best_margin) {
        best_margin = stat - threshold;
        best_stat = stat;
        best_threshold = threshold;
        best_k = k;
      }
    }
    const double level = best_threshold + table_->scan_margin();
    if (!(best_margin > table_->scan_margin())) {
      decisions.push_back({best_stat, level, false, Hertz{rate_}});
      return;
    }
    double raw_tail = 0.0;
    for (std::size_t j = best_k; j < m; ++j) raw_tail += window_[j];
    rate_ = static_cast<double>(m - best_k) / raw_tail;
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<std::ptrdiff_t>(best_k));
    settling_ = window_.size();
    decisions.push_back({best_stat, level, true, Hertz{rate_}});
  }

  std::shared_ptr<const ThresholdTable> table_;
  std::vector<double> window_;
  std::size_t since_check_ = 0;
  std::size_t settling_ = 0;
  double rate_ = 0.0;
  bool warmed_up_ = false;
};

ChangePointConfig fast_config() {
  ChangePointConfig cfg;
  cfg.mc_windows = 1000;  // the calibration's quality is not under test
  return cfg;
}

ChangePointConfig odd_config() {
  ChangePointConfig cfg = fast_config();
  cfg.window = 64;
  cfg.check_interval = 7;
  cfg.min_tail = 3;
  cfg.grid_step = 1.4;
  cfg.grid_points = 7;
  return cfg;
}

class ChangePointReference
    : public ::testing::TestWithParam<ChangePointConfig> {};

TEST_P(ChangePointReference, ScanRecordsAreTheTablesOwnValues) {
  const ThresholdTable table{GetParam()};
  ASSERT_EQ(table.scan().size(), table.ratios().size());
  for (std::size_t i = 0; i < table.ratios().size(); ++i) {
    const double r = table.ratios()[i];
    EXPECT_EQ(table.scan()[i].ratio, r) << i;
    EXPECT_EQ(table.scan()[i].log_ratio, std::log(r)) << i;
    EXPECT_EQ(table.scan()[i].threshold, table.threshold_for_ratio(r)) << i;
  }
}

TEST_P(ChangePointReference, RatesAndDecisionsMatchBitForBit) {
  const auto table = std::make_shared<const ThresholdTable>(GetParam());
  ChangePointDetector det{table};
  std::vector<DetectorDecisionInfo> seen;
  det.set_decision_observer([&](Seconds, const DetectorDecisionInfo& info) {
    seen.push_back(info);
  });
  ReferenceChangePoint ref{table};

  // A piecewise-exponential stream: segments of 150..2500 samples at rates
  // that step up and down by up to ~10x, with resets of both detectors
  // every so often — half re-seeded from the current estimate, half cold
  // (rate 0, which exercises the warm-up bootstrap).
  const double rates[] = {30.0, 12.0, 45.0, 5.0, 90.0, 38.3, 20.0, 60.0};
  Rng rng{20240611};
  det.reset(Hertz{rates[0]});
  ref.reset(rates[0]);
  double now = 0.0;
  std::size_t samples = 0;
  std::size_t resets = 0;
  std::size_t segment = 0;
  while (samples < 120000) {
    const double rate = rates[segment++ % std::size(rates)];
    const std::size_t len =
        150 + static_cast<std::size_t>(rng.uniform(0.0, 2350.0));
    for (std::size_t i = 0; i < len; ++i, ++samples) {
      if (rng.uniform(0.0, 1.0) < 1.0 / 4000.0) {
        const double seed = resets++ % 2 == 0 ? det.current_rate().value() : 0.0;
        det.reset(Hertz{seed});
        ref.reset(seed);
      }
      const double x = rng.exponential(rate);
      now += x;
      const double got = det.on_sample(Seconds{now}, Seconds{x}).value();
      ASSERT_EQ(got, ref.on_sample(x)) << "sample " << samples;
    }
  }

  ASSERT_EQ(seen.size(), ref.decisions.size());
  std::size_t detected = 0;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].ln_p_max, ref.decisions[i].ln_p_max) << i;
    EXPECT_EQ(seen[i].threshold, ref.decisions[i].threshold) << i;
    EXPECT_EQ(seen[i].detected, ref.decisions[i].detected) << i;
    EXPECT_EQ(seen[i].rate.value(), ref.decisions[i].rate.value()) << i;
    if (seen[i].detected) ++detected;
  }
  // The stream must have exercised every path: many checks, declared
  // changes (and the settling after them), and both kinds of reset.
  EXPECT_GT(seen.size(), 5000u);
  EXPECT_GT(detected, 40u);
  EXPECT_GE(resets, 10u);
}

INSTANTIATE_TEST_SUITE_P(Configs, ChangePointReference,
                         ::testing::Values(fast_config(), odd_config()),
                         [](const auto& info) {
                           return info.index == 0 ? std::string{"Default"}
                                                  : std::string{"Odd"};
                         });

}  // namespace
}  // namespace dvs::detect
