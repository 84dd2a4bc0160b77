// The ledger's workload drivers and the per-layer replays they share.

#ifndef DEMON_BENCH_LEDGER_WORKLOADS_H_
#define DEMON_BENCH_LEDGER_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "bench/ledger/ledger.h"
#include "common/telemetry.h"
#include "core/engine.h"
#include "core/monitor_spec.h"
#include "data/block.h"
#include "itemsets/borders.h"

namespace demon::ledger {

/// One workload run, as the command line asks for it.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// How long the run measures. In-process workloads repeat whole streams
  /// until this much time has passed and every p90 has 100 samples; the
  /// server workloads offer load for exactly this long.
  double seconds = 20.0;
  /// Per-layer ledger instead of the end-to-end metrics.
  bool trace = false;
  /// Tiny sizes, for the ctest smoke run.
  bool smoke = false;
  /// Where traces and scratch data directories go.
  std::string out_dir;
  std::string serve_bin;
};

/// uw-stationary and mrw-drift: a DemonMonitor driven in this process.
RunResult RunInProcess(const RunOptions& options);

/// serve-tenants and serve-quest: a demon_serve child under open-loop load.
RunResult RunServe(const RunOptions& options);

// --- Per-layer replays (trace runs) -----------------------------------------

using BlockPtr = std::shared_ptr<const TransactionBlock>;

/// Sets every per-layer metric to 0: a layer a workload never runs
/// reports no work.
void ZeroLayers(RunResult* result);

/// Writes the core.* metrics from an engine's per-block timeline.
/// `walls[k]` is the harness-timed AddBlock (+ Quiesce) of `timeline[k]`;
/// set-up blocks are already left out of both.
void EmitCore(const std::vector<BlockTimelineRecord>& timeline,
              const std::vector<double>& walls, RunResult* result);

/// Replays block streams through a standalone, single-threaded
/// BordersMaintainer bound to its own registry, timing each call, and
/// accumulates the itemsets.* and tidlist.* ledgers (and the engine
/// adapter's evolution scans) over the streams.
class ItemsetReplay {
 public:
  /// Starts a stream on a fresh maintainer.
  void StartStream(const BordersOptions& options);
  /// Replays one block, then the model scans the engine's BORDERS adapter
  /// makes after every block. A stream's first block (the initial mine) is
  /// absorbed but not counted.
  void AddBlock(const BlockPtr& block);
  /// Ends the stream: model size, lookups, TID-list census and kernel
  /// timing over its final state.
  void FinishStream();

  /// Replayed seconds per counted block: TID-list build, detection,
  /// update and the evolution scans — what the engine's response time for
  /// the monitor covers.
  double SecondsPerBlock() const;
  /// BORDERS detection plus update seconds per counted record.
  double BordersSecondsPerRecord() const;

  void Emit(RunResult* result) const;

 private:
  std::unique_ptr<telemetry::TelemetryRegistry> registry_;
  std::unique_ptr<BordersMaintainer> maintainer_;
  /// The maintainer as it stood before the current block.
  std::unique_ptr<BordersMaintainer> previous_;
  bool first_block_ = true;

  double blocks_ = 0, records_ = 0;
  double build_s_ = 0, detection_s_ = 0, detect_count_s_ = 0;
  double update_s_ = 0, update_count_s_ = 0, evolution_s_ = 0;
  double new_candidates_ = 0, newly_frequent_ = 0;
  double slots_ = 0, lists_ = 0, transactions_ = 0, counted_ = 0;
  double copy_s_ = 0, copies_ = 0;
  double streams_ = 0, tracked_ = 0, frequent_ = 0, rules_ = 0;
  double lookup_ns_ = 0;
  double payload_bytes_ = 0, list_records_ = 0;
  double lists_by_encoding_[3] = {0, 0, 0};
  double intersect_ns_ = 0, intersect_slots_ = 0;
};

/// BordersOptions equivalent to the maintainer DemonMonitor builds for an
/// itemset monitor spec.
BordersOptions OptionsFor(const MonitorSpec& spec, size_t num_items);

}  // namespace demon::ledger

#endif  // DEMON_BENCH_LEDGER_WORKLOADS_H_
