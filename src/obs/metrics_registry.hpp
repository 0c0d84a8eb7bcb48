// MetricsRegistry: named counters, gauges, and histograms for one run.
//
// Counters are monotone event tallies, gauges hold the latest value of a
// measurement (or an accumulated wall-clock total), and each histogram is
// one summary of a sample stream: a mergeable QuantileSketch (count, exact
// min/max, streaming p50/p90/p99 with no range clamping), the sample sum
// (so the mean is sum / count), and the counts of samples that fell below
// or at/above the histogram's nominal [lo, hi) range — the "range too
// narrow" signal.  The registry serializes to a single JSON object — the
// payload behind `dvs_sim --metrics-json` — and to the OpenMetrics text
// format (obs/telemetry/openmetrics.hpp).
//
// Registries merge (merge_from): counters add, histogram metrics fold
// their sketches, sums and clamp counts together; gauges are skipped — a
// gauge is a point-in-time reading whose sum or last-writer value would
// both lie, and every derivable aggregate already lives in the histograms.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/telemetry/quantile_sketch.hpp"

namespace dvs::obs {

/// A quantile sketch, the sample sum, and clamp counts against [lo, hi)
/// of one sample stream.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi) : lo_(lo), hi_(hi) {}

  void add(double x) {
    sketch_.add(x);
    sum_ += x;
    underflow_ += x < lo_ ? 1 : 0;
    overflow_ += x >= hi_ ? 1 : 0;
  }

  [[nodiscard]] const QuantileSketch& sketch() const { return sketch_; }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::size_t count() const { return sketch_.count(); }
  [[nodiscard]] double sum() const { return sum_; }
  /// sum / count (NaN when empty).
  [[nodiscard]] double mean() const {
    return sum_ / static_cast<double>(count());
  }
  /// Exact extrema, kept by the sketch; throw when empty.
  [[nodiscard]] double min() const { return sketch_.min(); }
  [[nodiscard]] double max() const { return sketch_.max(); }
  /// Samples below lo / at or above hi (the sketch sees the true values).
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }
  [[nodiscard]] std::size_t clamped() const { return underflow_ + overflow_; }

  /// Folds another metric of the same range into this one.
  void merge(const HistogramMetric& other);

  /// Folds in a bare sketch plus its sample sum — the form in which delay
  /// distributions come back from serialized job artifacts, which carry a
  /// dvs-sketch-v1 text and a sum but no clamp counts.  The clamp counts
  /// are left untouched.  No-op when the sketch is empty.
  void absorb_sketch(const QuantileSketch& s, double sum);

 private:
  double lo_;
  double hi_;
  QuantileSketch sketch_;
  double sum_ = 0.0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

class MetricsRegistry {
 public:
  /// Get-or-create; returned references stay valid for the registry's
  /// lifetime (node-based map).
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }
  double& gauge(const std::string& name) { return gauges_[name]; }
  HistogramMetric& histogram(const std::string& name, double lo, double hi);

  /// Read-only lookups (0 / nullptr when absent) for tests and reports.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] double gauge_value(const std::string& name) const;
  [[nodiscard]] const HistogramMetric* find_histogram(
      const std::string& name) const;

  /// Ordered iteration for exporters (telemetry snapshots, OpenMetrics).
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, HistogramMetric>& histograms()
      const {
    return histograms_;
  }

  [[nodiscard]] bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Folds another registry in: counters add, histograms merge (created
  /// here with the other's range when absent), gauges are skipped (see
  /// file header).
  void merge_from(const MetricsRegistry& other);

  /// Histograms with more than `threshold` of their samples outside
  /// [lo, hi), as (name, clamped fraction) pairs — the basis of the CLI's
  /// "histogram range too narrow" warning.
  [[nodiscard]] std::vector<std::pair<std::string, double>> clamped_histograms(
      double threshold) const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,mean,min,
  /// max,p50,p90,p99,underflow,overflow}}} — count, extrema and
  /// percentiles come from the quantile sketch, the mean from the sum.
  void write_json(std::ostream& os) const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, HistogramMetric> histograms_;
};

}  // namespace dvs::obs
