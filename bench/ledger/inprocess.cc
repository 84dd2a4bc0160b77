// uw-stationary and mrw-drift: Quest streams fed block by block to a
// DemonMonitor in this process, closed loop.

#include <sys/resource.h>

#include <optional>

#include "bench/bench_util.h"
#include "bench/ledger/workloads.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/demon_monitor.h"
#include "datagen/quest_generator.h"
#include "itemsets/apriori.h"
#include "itemsets/association_rules.h"
#include "itemsets/counting_context.h"

namespace demon::ledger {
namespace {

/// The measuring loop stops repeating streams after this long even when a
/// p90 still lacks samples (it is then refused and the run fails).
constexpr double kMaxMeasureSeconds = 120.0;

struct InProcessWorkload {
  /// Stream shape; `seed` and `num_transactions` are set per stream.
  QuestParams quest;
  size_t setup_records = 0;
  size_t block_records = 0;
  /// Timed blocks after the set-up block.
  size_t blocks_per_stream = 0;
  /// 0 keeps one pattern table; otherwise a new table every this many
  /// blocks (the set-up block counts as block 0).
  size_t regime_blocks = 0;
  /// monitors[0] is the unrestricted-window monitor the ledger replays.
  std::vector<MonitorSpec> monitors;
  /// Derive rules (confidence 0.8) from monitors[0] after every block.
  bool query = false;
};

MonitorSpec Itemsets(MonitorKind kind, const char* name, double minsup,
                     CountingStrategy strategy, size_t window = 0) {
  MonitorSpec spec;
  spec.kind = kind;
  spec.name = name;
  spec.minsup = minsup;
  spec.strategy = strategy;
  spec.window = window;
  return spec;
}

InProcessWorkload MakeWorkload(const std::string& name, bool smoke) {
  InProcessWorkload w;
  w.quest = bench::PaperQuestParams(0, 0);
  const bool stationary = name == "uw-stationary";
  // κ = 0.02 keeps ~100k itemsets tracked against ~450 frequent ones, at
  // ~0.2 s per 4000-record block on a 4-CPU host, so a 20 s run holds 100
  // blocks over four independent streams, and detection stays over 40% of
  // a block's response.
  double minsup = stationary ? 0.02 : 0.025;
  w.setup_records = stationary ? 4000 : 1000;
  w.block_records = w.setup_records;
  w.blocks_per_stream = stationary ? 25 : 24;
  w.regime_blocks = stationary ? 0 : 8;
  if (smoke) {
    w.quest.num_items = 100;
    w.quest.num_patterns = 50;
    w.quest.avg_transaction_len = 6;
    w.quest.avg_pattern_len = 3;
    w.setup_records = w.block_records = 100;
    w.blocks_per_stream = 100;
    minsup = 0.05;
  }
  if (stationary) {
    w.monitors = {Itemsets(MonitorKind::kUnrestrictedItemsets, "uw-ecutplus",
                           minsup, CountingStrategy::kEcutPlus),
                  Itemsets(MonitorKind::kUnrestrictedItemsets, "uw-ptscan",
                           minsup, CountingStrategy::kPtScan)};
    w.query = true;
  } else {
    w.monitors = {Itemsets(MonitorKind::kUnrestrictedItemsets, "uw-ecut",
                           minsup, CountingStrategy::kEcut),
                  Itemsets(MonitorKind::kWindowedItemsets, "mrw-ecut", minsup,
                           CountingStrategy::kEcut, /*window=*/3)};
  }
  return w;
}

/// The blocks of one stream: the set-up block, then the timed blocks. A
/// drifting stream draws regime r from pattern table seed·1000 + r.
class QuestStream {
 public:
  QuestStream(const InProcessWorkload& w, uint64_t seed) : w_(w), seed_(seed) {}

  TransactionBlock Next() {
    const size_t regime = w_.regime_blocks == 0 ? 0 : index_ / w_.regime_blocks;
    if (generator_ == nullptr || regime != regime_) {
      QuestParams params = w_.quest;
      params.seed = w_.regime_blocks == 0 ? seed_ : seed_ * 1000 + regime;
      generator_ = std::make_unique<QuestGenerator>(params);
      regime_ = regime;
    }
    const size_t n = index_ == 0 ? w_.setup_records : w_.block_records;
    TransactionBlock block = generator_->NextBlock(n, next_tid_);
    next_tid_ += n;
    ++index_;
    return block;
  }

 private:
  const InProcessWorkload& w_;
  const uint64_t seed_;
  std::unique_ptr<QuestGenerator> generator_;
  size_t regime_ = 0;
  size_t index_ = 0;
  Tid next_tid_ = 0;
};

/// From-scratch Apriori models of what each monitor must hold after the
/// stream: all blocks, or the last `window` for a windowed monitor. Built
/// before the stream runs and kept as digests, so the reference never sits
/// in memory beside the system under test.
std::vector<ModelDigest> References(const InProcessWorkload& w, uint64_t seed,
                                    ThreadPool* pool) {
  QuestStream stream(w, seed);
  std::vector<BlockPtr> blocks;
  for (size_t b = 0; b <= w.blocks_per_stream; ++b) {
    blocks.push_back(std::make_shared<const TransactionBlock>(stream.Next()));
  }
  CountingContext context(pool);
  std::vector<ModelDigest> references;
  for (size_t i = 0; i < w.monitors.size(); ++i) {
    const MonitorSpec& spec = w.monitors[i];
    const size_t span = spec.kind == MonitorKind::kWindowedItemsets
                            ? spec.window
                            : blocks.size();
    std::optional<size_t> same;
    for (size_t j = 0; j < i; ++j) {
      const MonitorSpec& other = w.monitors[j];
      if (other.minsup == spec.minsup && other.kind == spec.kind &&
          other.window == spec.window) {
        same = j;
      }
    }
    if (same.has_value()) {
      references.push_back(references[*same]);
      continue;
    }
    const std::vector<BlockPtr> window(blocks.end() - span, blocks.end());
    references.push_back(
        Digest(Apriori(window, spec.minsup, w.quest.num_items, &context)));
  }
  return references;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// What one pass over a stream measured. Per-block vectors cover the
/// timed blocks only.
struct StreamPass {
  double setup_s = 0;
  std::vector<double> block_s;
  std::vector<double> lag_s;
  double cpu_s = 0;
  double records = 0;
  /// Traced passes: the engine's records of the timed blocks.
  std::vector<BlockTimelineRecord> timeline;
};

/// Feeds one stream to a fresh DemonMonitor (engine with 2 threads),
/// timing each block's AddBlock + Quiesce and the rules query, then
/// checks every monitor against its reference. `registry` (nullable)
/// traces the pass: it is injected into the engine and receives one
/// harness span per block and per query. `replay` (nullable) replays each
/// block through monitors[0]'s maintainer alone right after the engine
/// absorbed it, so both see the same host conditions.
StreamPass RunStream(const InProcessWorkload& w, uint64_t seed,
                     const std::vector<ModelDigest>& references,
                     telemetry::TelemetryRegistry* registry,
                     ItemsetReplay* replay, RunResult* result) {
  StreamPass pass;
  QuestStream stream(w, seed);
  TransactionBlock setup_block = stream.Next();
  const BlockPtr setup_copy =
      std::make_shared<const TransactionBlock>(setup_block);
  EngineOptions engine;
  engine.num_threads = 2;
  engine.telemetry = registry;

  const double setup_start = NowSeconds();
  DemonMonitor monitor(w.quest.num_items, engine);
  std::vector<DemonMonitor::MonitorId> ids;
  for (const MonitorSpec& spec : w.monitors) {
    ++result->attempted;
    auto id = monitor.AddMonitor(spec);
    if (!id.ok()) {
      ++result->failed;
      result->Fail("AddMonitor " + spec.name + ": " + id.status().ToString());
      return pass;
    }
    ids.push_back(id.value());
  }
  monitor.AddBlock(std::move(setup_block));
  monitor.Quiesce();
  pass.setup_s = NowSeconds() - setup_start;
  if (replay != nullptr) {
    replay->StartStream(OptionsFor(w.monitors[0], w.quest.num_items));
    replay->AddBlock(setup_copy);
  }

  for (size_t b = 1; b <= w.blocks_per_stream; ++b) {
    TransactionBlock block = stream.Next();
    const double records = static_cast<double>(block.size());
    const BlockPtr copy = replay == nullptr
                              ? nullptr
                              : std::make_shared<const TransactionBlock>(block);
    double block_s = 0;
    {
      std::optional<telemetry::TraceSpan> span;
      if (registry != nullptr) {
        span.emplace(registry, "block " + std::to_string(b + 1), "ledger");
      }
      const double cpu_start = CpuSeconds();
      const double start = NowSeconds();
      monitor.AddBlock(std::move(block));
      monitor.Quiesce();
      block_s = NowSeconds() - start;
      pass.cpu_s += CpuSeconds() - cpu_start;
    }
    ++result->attempted;
    pass.block_s.push_back(block_s);
    pass.records += records;
    double lag_s = block_s;
    if (w.query) {
      std::optional<telemetry::TraceSpan> span;
      if (registry != nullptr) {
        span.emplace(registry, "query " + std::to_string(b + 1), "ledger");
      }
      ++result->attempted;
      const double start = NowSeconds();
      auto model = monitor.ItemsetModelOf(ids[0]);
      if (model.ok()) {
        const size_t rules = DeriveRules(*model.value(), 0.8).size();
        (void)rules;
      } else {
        ++result->failed;
      }
      lag_s += NowSeconds() - start;
    }
    pass.lag_s.push_back(lag_s);
    // Drain the per-thread span rings so none of them wraps.
    if (registry != nullptr) (void)registry->CollectSpans();
    if (replay != nullptr) replay->AddBlock(copy);
  }
  if (replay != nullptr) replay->FinishStream();

  if (registry != nullptr) {
    pass.timeline = monitor.TimelineRecords();
    pass.timeline.erase(pass.timeline.begin());  // the set-up block
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    auto model = monitor.ItemsetModelOf(ids[i]);
    const std::string diff =
        model.ok() ? CompareToDigest(*model.value(), references[i])
                   : model.status().ToString();
    if (!diff.empty()) {
      result->Fail("stream " + std::to_string(seed) + " " +
                   w.monitors[i].name + ": " + diff);
    }
  }
  return pass;
}

/// Repeats whole streams (stream r of seed S uses S·1000 + r) until the
/// run has measured for `seconds` and every p90 has 100 samples.
void MeasureEndToEnd(const InProcessWorkload& w, const RunOptions& options,
                     ThreadPool* pool, RunResult* result) {
  const double start = NowSeconds();
  std::vector<double> setup_s, block_s, lag_s;
  double cpu_s = 0, records = 0;
  for (uint64_t r = 0;; ++r) {
    const uint64_t seed = options.seed * 1000 + r;
    const std::vector<ModelDigest> references = References(w, seed, pool);
    const StreamPass pass =
        RunStream(w, seed, references, nullptr, nullptr, result);
    if (!result->correct) return;
    setup_s.push_back(pass.setup_s);
    block_s.insert(block_s.end(), pass.block_s.begin(), pass.block_s.end());
    lag_s.insert(lag_s.end(), pass.lag_s.begin(), pass.lag_s.end());
    cpu_s += pass.cpu_s;
    records += pass.records;
    const double elapsed = NowSeconds() - start;
    if (options.smoke || elapsed > kMaxMeasureSeconds) break;
    if (elapsed >= options.seconds && block_s.size() >= 100) break;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  double block_sum = 0;
  for (double s : block_s) block_sum += s;
  result->Set("setup_s", Quantile(setup_s, 0.5, 0));
  result->Set("records_per_s", records / block_sum);
  result->Set("cpu_us_per_record", cpu_s / records * 1e6);
  result->Set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  result->Set("response_p50_s", Quantile(block_s, 0.5));
  result->Set("model_lag_p50_s", Quantile(lag_s, 0.5));
  result->Set("model_lag_p90_s", Quantile(lag_s, 0.9));
  std::printf("%s streams %zu blocks %zu\n", options.workload.c_str(),
              setup_s.size(), block_s.size());
}

/// One stream, run untraced and then traced, the traced pass interleaved
/// with the per-layer replay of the same blocks.
void MeasureLayers(const InProcessWorkload& w, const RunOptions& options,
                   ThreadPool* pool, RunResult* result) {
  const uint64_t seed = options.seed * 1000;
  const std::vector<ModelDigest> references = References(w, seed, pool);
  const StreamPass untraced =
      RunStream(w, seed, references, nullptr, nullptr, result);
  telemetry::TelemetryRegistry registry;
  ItemsetReplay replay;
  const StreamPass traced =
      RunStream(w, seed, references, &registry, &replay, result);
  if (!result->correct) return;
  const Status written =
      WriteFile(options.out_dir + "/" + options.workload + ".trace.json",
                registry.ChromeTraceJson());
  if (!written.ok()) result->Fail(written.ToString());

  ZeroLayers(result);
  EmitCore(traced.timeline, traced.block_s, result);
  replay.Emit(result);

  const double engine_s =
      result->metrics["core.response_s_per_block." + w.monitors[0].name];
  const auto p50 = [](const std::vector<double>& v) {
    return Quantile(v, 0.5).value_or(0.0);
  };
  result->metrics["ledger.replay_vs_engine_pct"] =
      (replay.SecondsPerBlock() / engine_s - 1.0) * 100.0;
  result->metrics["ledger.trace_overhead_pct"] =
      (p50(traced.block_s) / p50(untraced.block_s) - 1.0) * 100.0;
  result->metrics["ledger.itemsets_cpu_share_pct"] =
      replay.BordersSecondsPerRecord() / (untraced.cpu_s / untraced.records) *
      100.0;
}

}  // namespace

RunResult RunInProcess(const RunOptions& options) {
  const InProcessWorkload w = MakeWorkload(options.workload, options.smoke);
  // Builds the reference models; idle while a stream runs.
  ThreadPool pool(2);
  RunResult result;
  if (options.trace) {
    MeasureLayers(w, options, &pool, &result);
  } else {
    MeasureEndToEnd(w, options, &pool, &result);
  }
  return result;
}

}  // namespace demon::ledger
