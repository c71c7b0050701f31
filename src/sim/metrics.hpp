// Measurement helpers shared by tests and benchmarks: streaming
// counters and a value-retaining histogram with exact percentiles.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace aa::sim {

/// Retains all samples; percentile queries sort lazily.  Fine at
/// experiment scale and gives exact quantiles for reporting.
class Histogram {
 public:
  void record(double v) {
    values_.push_back(v);
    sorted_ = false;
  }

  std::size_t count() const { return values_.size(); }
  double sum() const;
  double mean() const { return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size()); }
  double min() const;
  double max() const;
  /// Exact p-th percentile (0 <= p <= 100) by nearest-rank.
  double percentile(double p) const;
  double median() const { return percentile(50); }

  /// Appends every sample of `other`.  The samples grow geometrically,
  /// so merging n histograms into one is amortised O(total samples).
  /// Safe for self-merge.
  void merge(const Histogram& other);

  void clear() {
    values_.clear();
    sorted_ = false;
  }
  const std::vector<double>& values() const { return values_; }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  void ensure_sorted() const {
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
  }
};

/// Named counters + histograms used by experiment harnesses.
class MetricsRegistry {
 public:
  void add(const std::string& name, std::uint64_t delta = 1) { counters_[name] += delta; }
  std::uint64_t counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }
  const std::map<std::string, std::uint64_t>& counters() const { return counters_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }
  /// Lookup without creating; nullptr when absent.
  const Histogram* find_histogram(const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }
  void clear() {
    counters_.clear();
    histograms_.clear();
  }

  /// JSON object: {"counters": {name: value, ...}, "histograms":
  /// {name: {count, mean, min, p50, p90, p99, max}, ...}}.
  std::string to_json() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace aa::sim
