#include "sim/metrics.hpp"

#include <cmath>
#include <numeric>
#include <sstream>

namespace aa::sim {

double Histogram::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Histogram::min() const {
  ensure_sorted();
  return values_.empty() ? 0.0 : values_.front();
}

double Histogram::max() const {
  ensure_sorted();
  return values_.empty() ? 0.0 : values_.back();
}

double Histogram::percentile(double p) const {
  if (values_.empty()) return 0.0;
  ensure_sorted();
  const double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

void Histogram::merge(const Histogram& other) {
  if (other.values_.empty()) return;
  // Self-merge doubles the samples; take the snapshot first so the
  // insert below iterates over stable storage.  No reserve: an exact
  // reserve per merge would reallocate on every one of many merges into
  // the same histogram.
  if (&other == this) {
    std::vector<double> copy = values_;
    values_.insert(values_.end(), copy.begin(), copy.end());
  } else {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  sorted_ = false;
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":" << value;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":{\"count\":" << h.count() << ",\"mean\":" << h.mean()
        << ",\"min\":" << h.min() << ",\"p50\":" << h.percentile(50)
        << ",\"p90\":" << h.percentile(90) << ",\"p99\":" << h.percentile(99)
        << ",\"max\":" << h.max() << "}";
  }
  out << "}}";
  return out.str();
}

}  // namespace aa::sim
