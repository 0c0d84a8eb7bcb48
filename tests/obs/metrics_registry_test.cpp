#include "obs/metrics_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace dvs::obs {
namespace {

TEST(MetricsRegistry, CountersGetOrCreateAndAccumulate) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.counter_value("frames"), 0u);

  std::uint64_t& c = reg.counter("frames");
  EXPECT_EQ(c, 0u);
  ++c;
  reg.counter("frames") += 2;
  EXPECT_EQ(reg.counter_value("frames"), 3u);
  EXPECT_FALSE(reg.empty());
}

TEST(MetricsRegistry, GaugesHoldLatestValue) {
  MetricsRegistry reg;
  EXPECT_DOUBLE_EQ(reg.gauge_value("power"), 0.0);
  reg.gauge("power") = 12.5;
  reg.gauge("power") = 7.25;
  EXPECT_DOUBLE_EQ(reg.gauge_value("power"), 7.25);
}

TEST(MetricsRegistry, HistogramGetOrCreateReturnsSameObject) {
  MetricsRegistry reg;
  HistogramMetric& h1 = reg.histogram("delay", 0.0, 1.0);
  h1.add(0.25);
  // Second call with the same name must not reset the metric.
  HistogramMetric& h2 = reg.histogram("delay", 0.0, 1.0);
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.count(), 1u);
  EXPECT_EQ(reg.find_histogram("delay"), &h1);
  EXPECT_EQ(reg.find_histogram("absent"), nullptr);
}

// Every summary of a metric over [0, 10), recomputed from the raw samples it
// saw; `under`/`over` are passed in because absorb_sketch leaves them alone.
// The samples are dyadic, so every sum is exact in any order.
void expect_summarizes(const HistogramMetric& m, const std::vector<double>& xs,
                       std::size_t under, std::size_t over) {
  ASSERT_EQ(m.count(), xs.size());
  const double sum = std::accumulate(xs.begin(), xs.end(), 0.0);
  EXPECT_DOUBLE_EQ(m.sum(), sum);
  EXPECT_DOUBLE_EQ(m.mean(), sum / static_cast<double>(xs.size()));
  EXPECT_DOUBLE_EQ(m.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(m.max(), *std::max_element(xs.begin(), xs.end()));
  EXPECT_EQ(m.underflow(), under);
  EXPECT_EQ(m.overflow(), over);
  EXPECT_EQ(m.clamped(), under + over);
}

std::size_t below(const std::vector<double>& xs, double lo) {
  return static_cast<std::size_t>(
      std::count_if(xs.begin(), xs.end(), [lo](double x) { return x < lo; }));
}

std::size_t at_or_above(const std::vector<double>& xs, double hi) {
  return static_cast<std::size_t>(
      std::count_if(xs.begin(), xs.end(), [hi](double x) { return x >= hi; }));
}

TEST(HistogramMetric, SummariesMatchTheRawSamplesAfterAddMergeAndAbsorb) {
  const std::vector<double> a{-2.5, 0.0, 1.25, 9.75, 10.0, 42.0, 3.5};
  const std::vector<double> b{-1.0, 5.0, 12.0};
  const std::vector<double> c{-7.0, 100.0, 2.0};

  HistogramMetric m{0.0, 10.0};
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.sum(), 0.0);
  EXPECT_THROW((void)m.min(), std::logic_error);
  for (double x : a) m.add(x);
  const std::size_t under_a = below(a, 0.0);
  const std::size_t over_a = at_or_above(a, 10.0);
  ASSERT_EQ(under_a, 1u);  // -2.5
  ASSERT_EQ(over_a, 2u);   // hi itself and 42
  expect_summarizes(m, a, under_a, over_a);

  // merge: an empty side changes nothing, either way round.
  m.merge(HistogramMetric{0.0, 10.0});
  expect_summarizes(m, a, under_a, over_a);
  HistogramMetric empty{0.0, 10.0};
  empty.merge(m);
  expect_summarizes(empty, a, under_a, over_a);

  HistogramMetric other{0.0, 10.0};
  for (double x : b) other.add(x);
  m.merge(other);
  std::vector<double> ab = a;
  ab.insert(ab.end(), b.begin(), b.end());
  expect_summarizes(m, ab, below(ab, 0.0), at_or_above(ab, 10.0));
  EXPECT_THROW(m.merge(HistogramMetric{0.0, 20.0}), std::invalid_argument);

  // absorb_sketch: count, sum and extrema follow the absorbed samples; the
  // clamp counts stay those of the samples added or merged.
  QuantileSketch sk;
  for (double x : c) sk.add(x);
  m.absorb_sketch(sk, std::accumulate(c.begin(), c.end(), 0.0));
  std::vector<double> abc = ab;
  abc.insert(abc.end(), c.begin(), c.end());
  expect_summarizes(m, abc, below(ab, 0.0), at_or_above(ab, 10.0));
  m.absorb_sketch(QuantileSketch{}, 123.0);  // empty sketch: no-op
  expect_summarizes(m, abc, below(ab, 0.0), at_or_above(ab, 10.0));
}

TEST(HistogramMetric, EmptyMetricReportsNothing) {
  const HistogramMetric m{0.0, 1.0};
  EXPECT_TRUE(m.sketch().empty());
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.sum(), 0.0);
  EXPECT_TRUE(std::isnan(m.mean()));
  EXPECT_THROW((void)m.min(), std::logic_error);
  EXPECT_THROW((void)m.max(), std::logic_error);
  EXPECT_EQ(m.underflow(), 0u);
  EXPECT_EQ(m.overflow(), 0u);
  EXPECT_DOUBLE_EQ(m.lo(), 0.0);
  EXPECT_DOUBLE_EQ(m.hi(), 1.0);
}

TEST(HistogramMetric, RangeIsHalfOpen) {
  HistogramMetric m{2.0, 4.0};
  m.add(2.0);                               // lo itself: inside
  m.add(std::nextafter(4.0, 0.0));          // just below hi: inside
  EXPECT_EQ(m.clamped(), 0u);
  m.add(4.0);                               // hi itself: overflow
  EXPECT_EQ(m.overflow(), 1u);
  m.add(std::nextafter(2.0, 0.0));          // just below lo: underflow
  EXPECT_EQ(m.underflow(), 1u);
  EXPECT_EQ(m.count(), 4u);
}

TEST(HistogramMetric, SketchSeesTheTrueValuesOfClampedSamples) {
  // Every sample lies outside [0, 1); the summaries must still be those of
  // the samples, not of values pinned to the range's edges.
  HistogramMetric m{0.0, 1.0};
  const std::vector<double> xs{5.0, -3.0, 9.0, 7.0, -1.0};
  for (double x : xs) m.add(x);
  EXPECT_EQ(m.underflow(), 2u);
  EXPECT_EQ(m.overflow(), 3u);
  EXPECT_DOUBLE_EQ(m.min(), -3.0);
  EXPECT_DOUBLE_EQ(m.max(), 9.0);
  EXPECT_DOUBLE_EQ(m.sketch().quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(m.mean(), 17.0 / 5.0);
}

// The value of `xs` at rank q (linear interpolation between order
// statistics, the sketch's own definition in exact mode).
double rank_value(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= xs.size()) return xs.back();
  return xs[i] + (xs[i + 1] - xs[i]) * (pos - static_cast<double>(i));
}

// A metric fed far more samples than the sketch stores verbatim: its p50,
// p90 and p99 must sit within the sketch's documented rank error of 0.02
// (docs/OBSERVABILITY.md) of the raw sample, out-of-range samples included.
TEST(HistogramMetric, QuantilesAgainstANormalSample) {
  Rng rng{41};
  std::vector<double> xs;
  HistogramMetric m{-1.0, 1.0};  // about a third of N(0, 1) falls outside
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(rng.normal());
    m.add(xs.back());
  }
  ASSERT_FALSE(m.sketch().exact());
  for (double q : {0.5, 0.9, 0.99}) {
    const double est = m.sketch().quantile(q);
    EXPECT_GE(est, rank_value(xs, q - 0.02)) << "q=" << q;
    EXPECT_LE(est, rank_value(xs, q + 0.02)) << "q=" << q;
  }
  EXPECT_EQ(m.underflow(), below(xs, -1.0));
  EXPECT_EQ(m.overflow(), at_or_above(xs, 1.0));
}

TEST(HistogramMetric, MergeOfASplitStreamMatchesTheWholeStream) {
  Rng rng{43};
  std::vector<double> xs;
  HistogramMetric whole{0.0, 0.5};
  HistogramMetric even{0.0, 0.5};
  HistogramMetric odd{0.0, 0.5};
  for (int i = 0; i < 6000; ++i) {
    // Multiples of 2^-10: every partial sum is exact in any order.
    const double x = std::ldexp(static_cast<double>(rng.uniform_index(1024)), -10);
    xs.push_back(x);
    whole.add(x);
    (i % 2 == 0 ? even : odd).add(x);
  }
  ASSERT_FALSE(even.sketch().exact());
  ASSERT_FALSE(odd.sketch().exact());
  even.merge(odd);
  expect_summarizes(even, xs, whole.underflow(), whole.overflow());
  EXPECT_DOUBLE_EQ(even.sum(), whole.sum());
  for (double q : {0.5, 0.9, 0.99}) {
    const double est = even.sketch().quantile(q);
    EXPECT_GE(est, rank_value(xs, q - 0.02)) << "q=" << q;
    EXPECT_LE(est, rank_value(xs, q + 0.02)) << "q=" << q;
  }
}

TEST(MetricsRegistry, HistogramKeepsTheRangeItWasCreatedWith) {
  MetricsRegistry reg;
  reg.histogram("delay", 0.0, 1.0).add(2.0);
  // A later get with another range returns the same metric, unchanged.
  HistogramMetric& again = reg.histogram("delay", 0.0, 10.0);
  EXPECT_DOUBLE_EQ(again.hi(), 1.0);
  EXPECT_EQ(again.overflow(), 1u);
  again.add(5.0);
  EXPECT_EQ(again.overflow(), 2u);
}

TEST(MetricsRegistry, ClampedHistogramsSkipEmptyAndNeedMoreThanTheThreshold) {
  MetricsRegistry reg;
  (void)reg.histogram("empty", 0.0, 1.0);
  HistogramMetric& quarter = reg.histogram("quarter", 0.0, 1.0);
  for (double x : {0.5, 0.5, 0.5, 3.0}) quarter.add(x);
  HistogramMetric& clean = reg.histogram("clean", 0.0, 1.0);
  clean.add(0.5);

  // Exactly a quarter clamped: not more than 0.25.
  EXPECT_TRUE(reg.clamped_histograms(0.25).empty());
  const auto flagged = reg.clamped_histograms(0.0);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0].first, "quarter");
  EXPECT_DOUBLE_EQ(flagged[0].second, 0.25);
}

TEST(MetricsRegistry, WriteJsonHistogramFieldsComeFromTheSummaries) {
  MetricsRegistry reg;
  HistogramMetric& h = reg.histogram("h", 0.0, 10.0);
  for (double x : {-1.0, 2.0, 3.0, 12.0}) h.add(x);

  std::ostringstream os;
  reg.write_json(os);
  // Mean from the sum (16 / 4); extrema and percentiles from the sketch,
  // which interpolates between the true samples (p50 = 2.5, p90 = 3 + 0.7
  // * 9, p99 = 3 + 0.97 * 9); the clamp counts last.
  EXPECT_NE(os.str().find(
                "\"h\": {\"count\": 4, \"mean\": 4, \"min\": -1, \"max\": 12, "
                "\"p50\": 2.5, \"p90\": 9.3, \"p99\": 11.73, "
                "\"underflow\": 1, \"overflow\": 1}"),
            std::string::npos)
      << os.str();
}

TEST(MetricsRegistry, WriteJsonEmptyHistogramCarriesOnlyItsCount) {
  MetricsRegistry reg;
  (void)reg.histogram("idle_s", 0.0, 1.0);
  std::ostringstream os;
  reg.write_json(os);
  EXPECT_NE(os.str().find("\"idle_s\": {\"count\": 0}"), std::string::npos)
      << os.str();
  EXPECT_EQ(os.str().find("\"mean\""), std::string::npos);
}

TEST(MetricsRegistry, WriteJsonEmitsAllSections) {
  MetricsRegistry reg;
  reg.counter("frames_decoded") = 42;
  reg.gauge("energy_j") = 1.5;
  reg.histogram("delay_s", 0.0, 1.0).add(0.5);

  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"frames_decoded\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"energy_j\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"delay_s\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // Balanced braces (quick structural sanity; full parse happens in the
  // CLI smoke test via python's json module).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(MetricsRegistry, WriteJsonEmptyRegistryIsStillAnObject) {
  MetricsRegistry reg;
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.find('{'), 0u);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
}

}  // namespace
}  // namespace dvs::obs
