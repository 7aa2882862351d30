#ifndef M2TD_OBS_METRICS_H_
#define M2TD_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace m2td::obs {

/// Process-wide metrics switch. Default off: a disabled Counter::Add is a
/// single relaxed atomic load. Registration (GetCounter etc.) works either
/// way; only mutation is gated.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

/// \brief Named monotonically increasing atomic counter.
///
/// Obtain via GetCounter(); instances live for the process lifetime, so
/// callers may cache the reference (`static obs::Counter& c =
/// obs::GetCounter("io.shuffle_bytes_read");`) and pay one atomic add per
/// event.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void Add(std::uint64_t n) {
    if (MetricsEnabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// \brief Named last-value gauge (queue depths, cache sizes, densities).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void Set(double value) {
    if (MetricsEnabled()) value_.store(value, std::memory_order_relaxed);
  }

  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// \brief Lock-free log2-bucketed histogram for non-negative integer
/// samples (nnz per chunk, bytes per read, pairs per reduce key, ...).
///
/// Bucket 0 holds exact zeros; bucket b >= 1 holds values in
/// [2^(b-1), 2^b). With 64-bit samples that is 65 buckets total.
class Histogram {
 public:
  static constexpr int kNumBuckets = 65;

  explicit Histogram(std::string name) : name_(std::move(name)) {}

  void Observe(std::uint64_t value) {
    if (!MetricsEnabled()) return;
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Bucket owning `value`: 0 for 0, otherwise 1 + floor(log2(value)).
  static int BucketIndex(std::uint64_t value) {
    int bits = 0;
    while (value != 0) {
      value >>= 1;
      ++bits;
    }
    return bits;
  }

  /// Smallest sample landing in bucket `b` (0 for the zero bucket).
  static std::uint64_t BucketLowerBound(int b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  /// Estimated value at quantile `q` (clamped to [0, 1]), reconstructed
  /// from the log2 buckets with log-linear interpolation inside the
  /// owning bucket: a rank landing a fraction f into bucket b >= 1 maps
  /// to BucketLowerBound(b) * 2^f, which is exact for uniform-in-log
  /// data and never leaves the bucket's range. Returns 0 for an empty
  /// histogram and for ranks landing in the zero bucket.
  double Percentile(double q) const;

  std::uint64_t Count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t BucketCount(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }

  void Reset() {
    for (auto& bucket : buckets_) {
      bucket.store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::string name_;
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Registry lookups: create-on-first-use, by name. The returned reference
/// stays valid for the process lifetime. Re-requesting a name returns the
/// same instance; a name registered as one metric kind must not be
/// re-requested as another (checked).
Counter& GetCounter(std::string_view name);
Gauge& GetGauge(std::string_view name);
Histogram& GetHistogram(std::string_view name);

/// Zeroes every registered metric (registrations are kept). For tests and
/// for benches that report per-phase deltas.
void ResetMetrics();

/// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}};
/// histograms list only their non-empty buckets as [lower_bound, count]
/// pairs plus interpolated p50/p95/p99 estimates.
void WriteMetricsJson(std::ostream& os);

/// OpenMetrics text exposition of every registered metric: counters as
/// `m2td_<name>_total`, gauges as `m2td_<name>`, histograms as summaries
/// with `quantile` labels (p50/p95/p99) plus `_count`/`_sum` series.
/// Names are sanitized to [a-zA-Z0-9_] and the output ends with the
/// mandatory `# EOF` terminator, so the text parses with any
/// OpenMetrics-compatible scraper.
void WriteOpenMetrics(std::ostream& os);

/// Human-readable one-line-per-histogram digest (count, sum, p50/p95/p99)
/// of every histogram that has observations. Companion to
/// Tracer::WriteTextSummary for `--trace_summary`-style console output.
void WriteHistogramSummary(std::ostream& os);

}  // namespace m2td::obs

#endif  // M2TD_OBS_METRICS_H_
