#include "obs/metrics.h"

#include <algorithm>
#include <cstring>

#include "obs/json.h"
#include "utils/check.h"

namespace hire {
namespace obs {

namespace internal {

uint64_t EncodeDoubleBits(double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double DecodeDoubleBits(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(const HistogramOptions& options)
    : options_(options),
      counts_(static_cast<size_t>(options.num_buckets) + 1) {
  HIRE_CHECK_GT(options_.num_buckets, 0);
  HIRE_CHECK_GT(options_.first_bound, 0.0);
  HIRE_CHECK_GT(options_.growth, 1.0);
  bounds_.reserve(static_cast<size_t>(options_.num_buckets));
  double bound = options_.first_bound;
  for (int i = 0; i < options_.num_buckets; ++i) {
    bounds_.push_back(bound);
    bound *= options_.growth;
  }
}

int Histogram::BucketIndex(double value) const {
  // First bucket whose upper bound admits `value`; the overflow bucket
  // (index num_buckets) catches everything beyond the last bound.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<int>(it - bounds_.begin());
}

void Histogram::Record(double value) {
  counts_[static_cast<size_t>(BucketIndex(value))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // CAS loop: std::atomic<double>::fetch_add is C++20 but not universally
  // lock-free; bit-packed doubles keep the hot path portable.
  uint64_t observed = sum_bits_.load(std::memory_order_relaxed);
  while (true) {
    const double current = internal::DecodeDoubleBits(observed);
    const uint64_t desired = internal::EncodeDoubleBits(current + value);
    if (sum_bits_.compare_exchange_weak(observed, desired,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
}

HistogramSnapshot Histogram::Take() const {
  HistogramSnapshot snapshot;
  snapshot.upper_bounds = bounds_;
  snapshot.bucket_counts.reserve(counts_.size());
  for (const auto& bucket : counts_) {
    snapshot.bucket_counts.push_back(bucket.load(std::memory_order_relaxed));
  }
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = internal::DecodeDoubleBits(sum_bits_.load(std::memory_order_relaxed));
  return snapshot;
}

void Histogram::Reset() {
  for (auto& bucket : counts_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  HIRE_CHECK(upper_bounds == other.upper_bounds)
      << "merging histograms with different bucket layouts";
  HIRE_CHECK_EQ(bucket_counts.size(), other.bucket_counts.size());
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    bucket_counts[i] += other.bucket_counts[i];
  }
  count += other.count;
  sum += other.sum;
}

HistogramSnapshot HistogramSnapshot::Delta(
    const HistogramSnapshot& earlier) const {
  HIRE_CHECK(upper_bounds == earlier.upper_bounds)
      << "differencing histograms with different bucket layouts";
  HistogramSnapshot delta = *this;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    HIRE_CHECK_GE(delta.bucket_counts[i], earlier.bucket_counts[i]);
    delta.bucket_counts[i] -= earlier.bucket_counts[i];
  }
  delta.count -= earlier.count;
  delta.sum -= earlier.sum;
  return delta;
}

std::string HistogramSnapshot::ToJson() const {
  std::string out = "{\"count\":";
  out += std::to_string(count);
  out += ",\"sum\":";
  out += JsonNumber(sum);
  out += ",\"buckets\":[";
  for (size_t i = 0; i < upper_bounds.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    out += JsonNumber(upper_bounds[i]);
    out += ',';
    out += std::to_string(bucket_counts[i]);
    out += ']';
  }
  out += "],\"overflow\":";
  out += std::to_string(bucket_counts.back());
  out += '}';
  return out;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  HIRE_CHECK(gauges_.find(name) == gauges_.end() &&
             histograms_.find(name) == histograms_.end())
      << "metric '" << name << "' already registered with a different kind";
  auto& slot = counters_[name];
  if (slot == nullptr) slot.reset(new Counter());
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  HIRE_CHECK(counters_.find(name) == counters_.end() &&
             histograms_.find(name) == histograms_.end())
      << "metric '" << name << "' already registered with a different kind";
  auto& slot = gauges_[name];
  if (slot == nullptr) slot.reset(new Gauge());
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const HistogramOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  HIRE_CHECK(counters_.find(name) == counters_.end() &&
             gauges_.find(name) == gauges_.end())
      << "metric '" << name << "' already registered with a different kind";
  auto& slot = histograms_[name];
  if (slot == nullptr) slot.reset(new Histogram(options));
  return slot.get();
}

MetricsRegistry::Snapshot MetricsRegistry::Take() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms[name] = histogram->Take();
  }
  return snapshot;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsRegistry::Snapshot MetricsRegistry::Snapshot::Delta(
    const Snapshot& earlier) const {
  Snapshot delta = *this;
  for (auto& [name, value] : delta.counters) {
    const auto it = earlier.counters.find(name);
    if (it != earlier.counters.end() && it->second <= value) {
      value -= it->second;
    }
  }
  for (auto& [name, histogram] : delta.histograms) {
    const auto it = earlier.histograms.find(name);
    if (it != earlier.histograms.end()) {
      histogram = histogram.Delta(it->second);
    }
  }
  return delta;
}

std::string MetricsRegistry::Snapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":" + JsonNumber(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":" + histogram.ToJson();
  }
  out += "}}";
  return out;
}

}  // namespace obs
}  // namespace hire
