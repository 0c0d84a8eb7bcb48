#include "obs/metrics_registry.hpp"

#include <cstdio>
#include <stdexcept>

namespace dvs::obs {

namespace {

std::string fmt_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

void HistogramMetric::merge(const HistogramMetric& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_) {
    throw std::invalid_argument(
        "HistogramMetric::merge: incompatible histogram ranges");
  }
  sketch_.merge(other.sketch_);
  sum_ += other.sum_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
}

void HistogramMetric::absorb_sketch(const QuantileSketch& s, double sum) {
  if (s.empty()) return;
  sketch_.merge(s);
  sum_ += sum;
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name, double lo,
                                            double hi) {
  return histograms_.try_emplace(name, lo, hi).first->second;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const HistogramMetric* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, h] : other.histograms_) {
    histogram(name, h.lo(), h.hi()).merge(h);
  }
  // Gauges deliberately skipped (see header).
}

std::vector<std::pair<std::string, double>> MetricsRegistry::clamped_histograms(
    double threshold) const {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, h] : histograms_) {
    if (h.count() == 0) continue;
    const double frac =
        static_cast<double>(h.clamped()) / static_cast<double>(h.count());
    if (frac > threshold) out.emplace_back(name, frac);
  }
  return out;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"dvs-metrics-v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << fmt_num(value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n" : ",\n") << "    \"" << name
       << "\": {\"count\": " << h.count();
    if (h.count() > 0) {
      os << ", \"mean\": " << fmt_num(h.mean())
         << ", \"min\": " << fmt_num(h.min())
         << ", \"max\": " << fmt_num(h.max())
         << ", \"p50\": " << fmt_num(h.sketch().quantile(0.5))
         << ", \"p90\": " << fmt_num(h.sketch().quantile(0.9))
         << ", \"p99\": " << fmt_num(h.sketch().quantile(0.99))
         << ", \"underflow\": " << h.underflow()
         << ", \"overflow\": " << h.overflow();
    }
    os << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

}  // namespace dvs::obs
