// Shared pieces of the ledger benchmark: the metric table, sample
// statistics, open-loop accounting, model comparison, subprocesses, and
// the one-line JSON result every workload run ends with.

#ifndef DEMON_BENCH_LEDGER_LEDGER_H_
#define DEMON_BENCH_LEDGER_LEDGER_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "itemsets/itemset_model.h"

namespace demon::ledger {

// --- Metrics ----------------------------------------------------------------

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricDef {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  /// End-to-end metrics only: the share of the baseline median by which
  /// the metric may worsen before a change counts as a regression.
  double bound = 0.0;
  MetricKind kind = MetricKind::kPerLayer;
};

/// Every metric a run emits, end-to-end metrics first. BENCHMARK.json
/// declares the same names, units, directions and bounds (ledger_test
/// checks that the two agree).
const std::vector<MetricDef>& MetricTable();

/// The table entry named `name`, or null.
const MetricDef* FindMetric(std::string_view name);

/// The four workloads, in the order a set runs them.
const std::vector<std::string>& WorkloadNames();

/// The monitors whose per-block engine costs the ledger reports (the
/// `core.*.<monitor>` metrics); every workload registers a subset.
const std::vector<std::string>& MonitorNames();

// --- Samples ----------------------------------------------------------------

/// Nearest-rank `q`-quantile of `samples`. Refused (nullopt) when fewer
/// than `min_beyond` samples lie above it, so a p90 needs 100 samples.
std::optional<double> Quantile(std::vector<double> samples, double q,
                               size_t min_beyond = 10);

/// Seconds since an arbitrary epoch on the steady clock.
double NowSeconds();

// --- Open-loop load ---------------------------------------------------------

/// The clock an open-loop sender runs on; tests substitute a simulated one.
struct OpenLoopClock {
  std::function<uint64_t()> now_ns;
  std::function<void(uint64_t)> sleep_until_ns;
};

/// One request of an open-loop schedule.
struct RequestTiming {
  uint64_t due_ns = 0;
  uint64_t sent_ns = 0;
  uint64_t done_ns = 0;
  bool ok = false;

  /// Latency counted from the due time, so a stalled reply also charges
  /// every request queued behind it.
  double LatencySeconds() const { return (done_ns - due_ns) * 1e-9; }
  /// How late the generator sent the request.
  double LatenessSeconds() const { return (sent_ns - due_ns) * 1e-9; }
};

/// Issues `call(k)` for every k in order, each no earlier than `due_ns[k]`.
/// A connection carries one request at a time, so a slow reply delays the
/// sends behind it; their latencies still count from their own due times.
std::vector<RequestTiming> RunOpenLoop(const std::vector<uint64_t>& due_ns,
                                       const OpenLoopClock& clock,
                                       const std::function<bool(size_t)>& call);

/// One acknowledged batch of a tenant, in send order.
struct BatchReply {
  uint64_t records_end = 0;  ///< Tenant records sent up to this batch.
  uint64_t due_ns = 0;
  uint64_t reply_ns = 0;
  uint64_t records_durable = 0;  ///< As reported by the reply.
};

/// Record-to-model lag of one tenant's blocks of `block_records`: from the
/// due time of a block's last record to the first reply whose
/// `records_durable` covers the block. The first block (the initial mine)
/// and blocks no reply covers are left out.
std::vector<double> ModelLagSeconds(const std::vector<BatchReply>& batches,
                                    uint64_t block_records);

// --- Model checks -----------------------------------------------------------

/// A sorted copy of a model's entries: what a from-scratch reference model
/// shrinks to while the system under test runs beside it.
struct ModelDigest {
  uint64_t num_transactions = 0;
  std::vector<std::pair<Itemset, ItemsetModel::Entry>> entries;
};

ModelDigest Digest(const ItemsetModel& model);

/// Empty when `got` holds exactly the reference's entries with equal
/// counts and frequent flags; otherwise a description of the first
/// difference.
std::string CompareToDigest(const ItemsetModel& got, const ModelDigest& want);

// --- Results ----------------------------------------------------------------

/// What one workload run reports.
struct RunResult {
  bool correct = true;
  std::string failure;  ///< First correctness failure.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void Fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
  /// Records `name`, failing the run when the value is missing.
  void Set(const std::string& name, std::optional<double> value);
};

/// The result line: one JSON object with the keys correct, attempted,
/// failed and metrics (each metric a {value, unit} object, table order).
std::string ResultJson(const RunResult& result);

[[nodiscard]] Result<RunResult> ParseResultJson(std::string_view line);

/// Checks that `result` carries every metric of `kind`, each with a
/// finite value, and nothing outside the table. Empty when complete.
std::string MissingMetrics(const RunResult& result, MetricKind kind);

// --- JSON -------------------------------------------------------------------

/// A parsed JSON value (objects keep their key order).
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// The member `key` of an object, or null.
  const Json* Find(std::string_view key) const;
};

[[nodiscard]] Result<Json> ParseJson(std::string_view text);

/// Appends `text` as a quoted JSON string.
void AppendJsonString(std::string_view text, std::string* out);

/// Writes `contents` to `path`, failing on any short write or close error.
[[nodiscard]] Status WriteFile(const std::string& path,
                               const std::string& contents);

// --- Subprocesses -----------------------------------------------------------

/// A child process whose standard output the parent reads through a pipe.
/// The destructor kills and reaps a child that is still running.
class Subprocess {
 public:
  Subprocess() = default;
  ~Subprocess();
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  /// Starts `args[0]` (a path) with `args`.
  [[nodiscard]] Status Start(const std::vector<std::string>& args);

  /// The next line of output (without the newline); IoError after
  /// `timeout_s`, NotFound at end of output.
  [[nodiscard]] Result<std::string> ReadLine(double timeout_s);

  /// Reads output to its end, then reaps the child. OK only for a clean
  /// exit with status 0 within `timeout_s`.
  [[nodiscard]] Status Finish(double timeout_s, std::string* rest = nullptr);

  /// User+system CPU seconds the running child has used.
  [[nodiscard]] Result<double> CpuSeconds() const;
  /// The running child's peak resident set (VmHWM), in MiB.
  [[nodiscard]] Result<double> PeakRssMiB() const;

 private:
  void Kill();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffered_;
};

/// After `seconds`, kills every running Subprocess child and exits the
/// process with status 3, so a wedged run never outlives its time limit.
void ArmWatchdog(unsigned seconds);

}  // namespace demon::ledger

#endif  // DEMON_BENCH_LEDGER_LEDGER_H_
