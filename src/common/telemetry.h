#ifndef DEMON_COMMON_TELEMETRY_H_
#define DEMON_COMMON_TELEMETRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/sync.h"

// DEMON_TELEMETRY_ENABLED is defined (to 1 or 0) by the DEMON_TELEMETRY
// CMake option, which defaults to ON. The registry, metric classes and
// exporters are always compiled; the flag only decides whether the
// DEMON_TRACE_SPAN / DEMON_COUNTER_ADD / DEMON_HISTOGRAM_RECORD macros
// expand to live instrumentation or to no-ops, mirroring how DEMON_AUDIT
// gates invocation rather than compilation.
#ifndef DEMON_TELEMETRY_ENABLED
#define DEMON_TELEMETRY_ENABLED 1
#endif

namespace demon::telemetry {

/// True when the translation unit sees -DDEMON_TELEMETRY=ON (the default).
inline constexpr bool kEnabled = DEMON_TELEMETRY_ENABLED != 0;

/// Nanoseconds on the steady clock. All span timestamps share this base.
uint64_t NowNanos();

/// Nanoseconds of CPU time consumed by the *calling thread*
/// (CLOCK_THREAD_CPUTIME_ID). Falls back to 0 on platforms without a
/// per-thread CPU clock. The engine records this next to wall time so
/// per-monitor response stats stop sum-inflating under time-slicing:
/// four monitors sharing one core each report ~4x wall time, but their
/// CPU times still add up to the core's capacity.
uint64_t ThreadCpuNanos();

/// Adds `v` to `target` with a relaxed CAS loop (portable fetch_add for
/// atomic<double>, which some standard libraries still lack).
inline void AtomicAddDouble(std::atomic<double>& target, double v) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + v,
                                       std::memory_order_relaxed)) {
  }
}

/// Raises `target` to at least `v` with a relaxed CAS loop.
inline void AtomicMaxDouble(std::atomic<double>& target, double v) {
  double current = target.load(std::memory_order_relaxed);
  while (v > current && !target.compare_exchange_weak(
                            current, v, std::memory_order_relaxed)) {
  }
}

/// Monotonically increasing event count. Lock-free; any thread may Add.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depths, model sizes).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Fixed-bucket latency histogram with a lock-free record path.
///
/// Buckets are exponential, five per decade from 100ns to 10s (plus an
/// underflow and an overflow bucket) — wide enough to span a PT-Scan
/// shard and a full offline re-mine in one layout, so every phase in the
/// system shares one bucket geometry and summaries stay comparable.
class Histogram {
 public:
  /// Five buckets per decade over [1e-7, 10): 40 finite buckets, plus
  /// index 0 (underflow: v < 1e-7) and index kNumBuckets-1 (overflow).
  static constexpr size_t kBucketsPerDecade = 5;
  static constexpr int kMinExponent = -7;  // 1e-7 s = 100 ns
  static constexpr int kMaxExponent = 1;   // 1e1 s  = 10 s
  static constexpr size_t kNumFinite =
      kBucketsPerDecade * (kMaxExponent - kMinExponent);
  static constexpr size_t kNumBuckets = kNumFinite + 2;

  void Record(double v);

  /// \brief Self-consistent point-in-time copy of a histogram.
  ///
  /// A histogram's fields are individually atomic but updated as a group,
  /// so readers racing a Record() can see `count` incremented before the
  /// bucket (or vice versa). A Snapshot reads the buckets once and
  /// *derives* the count from their sum, so cumulative bucket rows always
  /// add up to the reported count — the invariant Prometheus scrapers and
  /// the timeline scraper rely on. Record() bumps the bucket before
  /// `count_`, so the derived count is also monotone across snapshots.
  /// `sum` and `max` are read after the buckets and are not tied to them:
  /// while Record() runs concurrently they may miss records the buckets
  /// hold, or include any number of later ones. They match the count
  /// exactly only when no Record() is in flight.
  struct Snapshot {
    uint64_t buckets[kNumBuckets] = {};
    uint64_t count = 0;  ///< Sum of `buckets`.
    double sum = 0.0;
    double max = 0.0;

    /// Quantile estimate over the snapshot (same interpolation as
    /// Histogram::ApproxQuantile, but immune to concurrent records).
    double ApproxQuantile(double q) const;
  };

  /// Takes a Snapshot. Safe to call while other threads Record().
  Snapshot TakeSnapshot() const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Inclusive upper bound of bucket `i` in seconds; +inf for overflow.
  static double BucketUpperBound(size_t i);

  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// containing bucket, clamped to the observed max. 0 when empty.
  double ApproxQuantile(double q) const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// One completed trace span, as drained from a thread's ring buffer.
struct SpanRecord {
  uint64_t id = 0;      ///< Registry-unique, nonzero.
  uint64_t parent = 0;  ///< 0 = root.
  std::string name;     ///< e.g. "block 7/uw-itemsets".
  std::string category; ///< e.g. "engine", "counting", "io".
  uint32_t thread = 0;  ///< Small stable per-registry thread index.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// \brief Point-in-time copy of every registered metric, sorted by name
/// within each kind — what the TelemetryScraper appends to its timeline.
///
/// Each value is one relaxed atomic read, so a sample taken mid-run is
/// per-metric consistent (every counter monotone across samples, every
/// histogram count equal to its bucket sum) without claiming cross-metric
/// simultaneity — two metrics bumped by one operation can land in
/// different samples.
struct MetricsSample {
  uint64_t t_ns = 0;  ///< NowNanos() at the start of the sweep.
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  struct HistogramRow {
    std::string name;
    uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
  };
  std::vector<HistogramRow> histograms;
};

/// Summary row for one histogram: count, sum and quantiles.
struct HistogramSummary {
  std::string name;
  uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

enum class TelemetryFormat {
  kChromeTrace,  ///< trace_event JSON, loadable in Perfetto/chrome://tracing.
  kPrometheus,   ///< Prometheus text exposition format.
};

/// \brief Named metrics plus a span tracer. Process-wide via Global() but
/// fully injectable: the MaintenanceEngine owns a private registry by
/// default so concurrent engines (tests!) never share histograms.
///
/// Metric lookup takes a mutex once per name; the returned pointers are
/// stable for the registry's lifetime, so hot paths cache them and touch
/// only atomics. Spans append to per-thread buffers (one mutex per
/// thread, uncontended except while CollectSpans drains).
class TelemetryRegistry {
 public:
  TelemetryRegistry();
  ~TelemetryRegistry();

  TelemetryRegistry(const TelemetryRegistry&) = delete;
  TelemetryRegistry& operator=(const TelemetryRegistry&) = delete;

  /// Find-or-create. Stable pointers; never returns nullptr.
  Counter* counter(std::string_view name) DEMON_EXCLUDES(metrics_mutex_);
  Gauge* gauge(std::string_view name) DEMON_EXCLUDES(metrics_mutex_);
  Histogram* histogram(std::string_view name) DEMON_EXCLUDES(metrics_mutex_);

  /// The metrics-map lock, exposed so other modules can reference it in
  /// lock-order annotations (the ExtentPager declares its own mutex
  /// DEMON_ACQUIRED_BEFORE this one — see DESIGN.md's lock-order table).
  Mutex& metrics_mutex() const DEMON_RETURN_CAPABILITY(metrics_mutex_) {
    return metrics_mutex_;
  }

  /// Next registry-unique span id (nonzero). Used by TraceSpan.
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends a completed span to the calling thread's ring buffer. When
  /// the ring is full the oldest record is overwritten (and counted).
  void RecordSpan(SpanRecord record) DEMON_EXCLUDES(buffers_mutex_);

  /// Drains every thread's ring buffer into the central span store and
  /// returns the accumulated spans ordered by start time. Spans stay in
  /// the store (repeat exports see the full history) until ClearSpans.
  std::vector<SpanRecord> CollectSpans() DEMON_EXCLUDES(buffers_mutex_);

  /// Spans silently overwritten because a thread's ring filled between
  /// drains. Exposed so exporters can flag truncation.
  uint64_t dropped_spans() const {
    return dropped_spans_.load(std::memory_order_relaxed);
  }

  void ClearSpans() DEMON_EXCLUDES(buffers_mutex_);

  /// Takes a MetricsSample of every registered metric (see the struct
  /// comment for the exact consistency contract). Safe to call while
  /// other threads record — this is the scraper's once-per-period read.
  MetricsSample SnapshotMetrics() const DEMON_EXCLUDES(metrics_mutex_);

  // Export paths. Safe to call while other threads are still recording
  // metrics and spans — a scrape or a --stats_every dump may race the
  // engine mid-block. Metric maps are walked under metrics_mutex_
  // (lookups insert-only; returned pointers stay valid), each histogram
  // is rendered from one Snapshot so its bucket rows always sum to its
  // count, and span collection drains the per-thread rings under their
  // own mutexes. What concurrency costs is only *completeness*: spans
  // still open and metric updates issued after the walk passes them are
  // missing from this export and appear in the next one. Quiesce first
  // for a final, complete export.

  /// Chrome trace_event JSON of CollectSpans().
  std::string ChromeTraceJson() DEMON_EXCLUDES(buffers_mutex_);
  /// Prometheus text exposition of every counter, gauge and histogram.
  std::string PrometheusText() const DEMON_EXCLUDES(metrics_mutex_);
  std::string Export(TelemetryFormat format);

  /// One summary row per histogram, sorted by name.
  std::vector<HistogramSummary> HistogramSummaries() const
      DEMON_EXCLUDES(metrics_mutex_);

  /// The process-wide registry, for instrumentation points with no
  /// injection seam (e.g. TID-list file I/O free functions).
  static TelemetryRegistry& Global();

 private:
  friend class TraceSpan;
  struct ThreadBuffer;

  /// This thread's buffer, creating and caching it on first use.
  ThreadBuffer* BufferForThisThread() DEMON_EXCLUDES(buffers_mutex_);

  const uint64_t registry_id_;  ///< Process-unique; keys thread caches.
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> dropped_spans_{0};

  mutable Mutex metrics_mutex_;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_
      DEMON_GUARDED_BY(metrics_mutex_);
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges_
      DEMON_GUARDED_BY(metrics_mutex_);
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms_
      DEMON_GUARDED_BY(metrics_mutex_);

  Mutex buffers_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      DEMON_GUARDED_BY(buffers_mutex_);
  /// Drained spans.
  std::vector<SpanRecord> collected_ DEMON_GUARDED_BY(buffers_mutex_);
};

/// \brief RAII span. Construction stamps the start time and picks a
/// parent; destruction stamps the end and files the record.
///
/// Parentage: within one thread, spans nest through a thread-local stack
/// — a span opened while another span of the same registry is live
/// becomes its child. Across threads the stack cannot help (the pool
/// worker's stack is empty), so closures capture the parent's id
/// (DEMON_SPAN_ID) and pass it to the explicit-parent constructor.
///
/// A TraceSpan with a null registry is inert: id() is 0 and nothing is
/// recorded. The no-op macro expansion under DEMON_TELEMETRY=OFF uses
/// the default constructor, which is equivalent.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(TelemetryRegistry* registry, std::string name,
            const char* category);
  TraceSpan(TelemetryRegistry* registry, std::string name,
            const char* category, uint64_t parent);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// 0 when inert; otherwise this span's registry-unique id.
  uint64_t id() const { return id_; }

 private:
  void Open(TelemetryRegistry* registry, std::string name,
            const char* category, uint64_t parent);

  TelemetryRegistry* registry_ = nullptr;
  std::string name_;
  const char* category_ = "";
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t start_ns_ = 0;
};

/// \brief Replacement for the bespoke WallTimer-into-a-stats-field
/// pattern: times a scope and records the duration into a histogram (if
/// one is bound — nullptr is fine). Always active regardless of the
/// DEMON_TELEMETRY gate, because MonitorStats and the per-phase stats
/// structs are part of the public contract in every build.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram = nullptr)
      : histogram_(histogram), start_ns_(NowNanos()) {}
  ~ScopedTimer() { Stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Stops the timer (idempotently), records into the bound histogram on
  /// the first call, and returns the elapsed seconds.
  double Stop() {
    if (!stopped_) {
      stopped_ = true;
      seconds_ = static_cast<double>(NowNanos() - start_ns_) * 1e-9;
      if (histogram_ != nullptr) histogram_->Record(seconds_);
    }
    return seconds_;
  }

 private:
  Histogram* histogram_;
  uint64_t start_ns_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

/// Chrome trace_event JSON for an explicit span list (deterministic; the
/// golden exporter tests build SpanRecords by hand and diff the output).
std::string ChromeTraceJson(const std::vector<SpanRecord>& spans);

/// Appends the `ph:"X"` trace events for `spans` (comma-separated, no
/// envelope) to `out`, with timestamps rebased to `base_ns`. `first`
/// tracks whether a comma is needed before the next event; the timeline
/// exporter uses this to merge counter tracks (`ph:"C"`) and spans into
/// one trace with a shared timebase.
void AppendChromeSpanEvents(const std::vector<SpanRecord>& spans,
                            uint64_t base_ns, bool* first, std::string* out);

/// Appends `text` JSON-escaped (no surrounding quotes) to `out`.
void AppendJsonEscaped(std::string_view text, std::string* out);

/// Appends `v` with `%g` formatting (the shared numeric JSON idiom).
void AppendJsonDouble(double v, std::string* out);

}  // namespace demon::telemetry

#if DEMON_TELEMETRY_ENABLED

/// Opens RAII span `var` on `registry` (nullable). Parent = innermost
/// live same-registry span on this thread, if any.
#define DEMON_TRACE_SPAN(var, registry, name, category) \
  ::demon::telemetry::TraceSpan var((registry), (name), (category))

/// Like DEMON_TRACE_SPAN with an explicit parent id — for spans whose
/// parent finished on (or is running on) another thread.
#define DEMON_TRACE_SPAN_UNDER(var, registry, name, category, parent) \
  ::demon::telemetry::TraceSpan var((registry), (name), (category), (parent))

/// The id of a span opened by the macros above (0 when inert).
#define DEMON_SPAN_ID(var) ((var).id())

/// Adds to a cached Counter* (nullable). `n` unevaluated when OFF.
#define DEMON_COUNTER_ADD(counter, n)                 \
  do {                                                \
    if ((counter) != nullptr) (counter)->Add((n));    \
  } while (false)

/// Records into a cached Histogram* (nullable). `v` unevaluated when OFF.
#define DEMON_HISTOGRAM_RECORD(histogram, v)               \
  do {                                                     \
    if ((histogram) != nullptr) (histogram)->Record((v));  \
  } while (false)

#else  // DEMON_TELEMETRY_ENABLED

#define DEMON_TRACE_SPAN(var, registry, name, category) \
  ::demon::telemetry::TraceSpan var
#define DEMON_TRACE_SPAN_UNDER(var, registry, name, category, parent) \
  ::demon::telemetry::TraceSpan var
#define DEMON_SPAN_ID(var) ((var).id())
#define DEMON_COUNTER_ADD(counter, n) \
  do {                                \
  } while (false)
#define DEMON_HISTOGRAM_RECORD(histogram, v) \
  do {                                       \
  } while (false)

#endif  // DEMON_TELEMETRY_ENABLED

#endif  // DEMON_COMMON_TELEMETRY_H_
