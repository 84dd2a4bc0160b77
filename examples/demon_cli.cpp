// demon_cli — command-line driver over the library, operating on blocks
// stored as TransactionFile binaries. A minimal deployment surface:
//
//   demon_cli gen --out day1.bin --transactions 20000 --seed 1
//   demon_cli mine --minsup 0.01 --data day1.bin,day2.bin
//   demon_cli maintain --minsup 0.01 --strategy ecut --bss all
//       --data day1.bin,day2.bin,day3.bin
//   demon_cli patterns --minsup 0.01 --alpha 0.99 --data day*.bin...
//   demon_cli rules --minsup 0.02 --confidence 0.6 --data day1.bin
//
// Build & run:  ./build/examples/demon_cli <command> [flags]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/telemetry_timeline.h"
#include "core/bss.h"
#include "core/demon_monitor.h"
#include "data/transaction_file.h"
#include "datagen/quest_generator.h"
#include "itemsets/apriori.h"
#include "itemsets/association_rules.h"
#include "itemsets/borders.h"
#include "patterns/compact_sequences.h"
#include "persistence/file.h"

namespace demon {
namespace {

/// Per-command fallback for a flag whose default differs by subcommand
/// (e.g. --top shows 15 itemsets under `mine` but 10 under `maintain`).
long IntOr(const flags::FlagSet& flags, const std::string& name,
           long fallback) {
  return flags.Provided(name) ? flags.GetInt(name) : fallback;
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (begin <= text.size()) {
    const size_t comma = text.find(',', begin);
    const size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > begin) parts.push_back(text.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return parts;
}

Result<std::vector<std::shared_ptr<const TransactionBlock>>> LoadBlocks(
    const flags::FlagSet& flags) {
  if (!flags.Provided("data")) {
    return Status::InvalidArgument("--data file1[,file2,...] is required");
  }
  std::vector<std::shared_ptr<const TransactionBlock>> blocks;
  Tid tid = 0;
  for (const std::string& path : SplitCommas(flags.GetString("data"))) {
    DEMON_ASSIGN_OR_RETURN(TransactionBlock block,
                           TransactionFile::Read(path, tid));
    tid += block.size();
    block.mutable_info()->id = static_cast<BlockId>(blocks.size() + 1);
    block.mutable_info()->label = path;
    blocks.push_back(std::make_shared<TransactionBlock>(std::move(block)));
  }
  if (blocks.empty()) return Status::InvalidArgument("no data files given");
  return blocks;
}

size_t InferNumItems(
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks) {
  Item max_item = 0;
  for (const auto& block : blocks) {
    for (const TransactionView t : *block) {
      if (!t.empty()) max_item = std::max(max_item, t.back());
    }
  }
  return static_cast<size_t>(max_item) + 1;
}

void PrintTopItemsets(const ItemsetModel& model, size_t top_k) {
  std::vector<std::pair<uint64_t, Itemset>> ranked;
  for (const auto& [itemset, entry] : model.entries()) {
    if (entry.frequent && itemset.size() >= 2) {
      ranked.push_back({entry.count, itemset});
    }
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("frequent itemsets: %zu (border: %zu) over %llu transactions\n",
              model.NumFrequent(), model.NumBorder(),
              static_cast<unsigned long long>(model.num_transactions()));
  for (size_t i = 0; i < ranked.size() && i < top_k; ++i) {
    std::printf("  %s  support %.3f%%\n", ToString(ranked[i].second).c_str(),
                100.0 * model.SupportOf(ranked[i].second));
  }
}

// --------------------------------------------------------------------------
// Subcommands.

Status RunGen(const flags::FlagSet& flags) {
  if (!flags.Provided("out")) return Status::InvalidArgument("--out is required");
  QuestParams params;
  params.num_transactions =
      static_cast<size_t>(flags.GetInt("transactions"));
  params.num_items = static_cast<size_t>(flags.GetInt("items"));
  params.num_patterns = static_cast<size_t>(flags.GetInt("patterns"));
  params.avg_transaction_len = flags.GetDouble("len");
  params.avg_pattern_len = flags.GetDouble("plen");
  params.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  QuestGenerator gen(params);
  const TransactionBlock block = gen.GenerateAll();
  DEMON_RETURN_NOT_OK(
      TransactionFile::Write(block, flags.GetString("out")));
  std::printf("wrote %zu transactions (%s) to %s\n", block.size(),
              params.ToString().c_str(), flags.GetString("out").c_str());
  return Status::OK();
}

Status RunMine(const flags::FlagSet& flags) {
  DEMON_ASSIGN_OR_RETURN(auto blocks, LoadBlocks(flags));
  const double minsup = flags.GetDouble("minsup");
  const ItemsetModel model = Apriori(blocks, minsup, InferNumItems(blocks));
  PrintTopItemsets(model, static_cast<size_t>(IntOr(flags, "top", 15)));
  return Status::OK();
}

Status RunMaintain(const flags::FlagSet& flags) {
  DEMON_ASSIGN_OR_RETURN(auto blocks, LoadBlocks(flags));
  DEMON_ASSIGN_OR_RETURN(
      BlockSelectionSequence bss,
      BlockSelectionSequence::FromString(flags.GetString("bss")));
  if (bss.is_window_relative()) {
    return Status::InvalidArgument(
        "maintain supports window-independent BSS; window-relative "
        "sequences need the most-recent-window option");
  }
  BordersOptions options;
  options.minsup = flags.GetDouble("minsup");
  options.num_items = InferNumItems(blocks);
  const std::string strategy = flags.GetString("strategy");
  if (strategy == "ptscan") {
    options.strategy = CountingStrategy::kPtScan;
  } else if (strategy == "ecut") {
    options.strategy = CountingStrategy::kEcut;
  } else if (strategy == "ecut+") {
    options.strategy = CountingStrategy::kEcutPlus;
  } else {
    return Status::InvalidArgument("unknown --strategy: " + strategy);
  }

  BordersMaintainer maintainer(options);
  std::printf("block | selected | frequent | border | new-cands | time(ms)\n");
  for (const auto& block : blocks) {
    const bool selected = bss.SelectsBlock(block->info().id);
    if (selected) maintainer.AddBlock(block);
    const auto& stats = maintainer.last_stats();
    std::printf("%5u | %8s | %8zu | %6zu | %9zu | %.1f\n", block->info().id,
                selected ? "yes" : "no", maintainer.model().NumFrequent(),
                maintainer.model().NumBorder(),
                selected ? stats.new_candidates : 0,
                selected ? (stats.detection_seconds + stats.update_seconds) *
                               1e3
                         : 0.0);
  }
  PrintTopItemsets(maintainer.model(),
                   static_cast<size_t>(IntOr(flags, "top", 10)));
  return Status::OK();
}

Status RunPatterns(const flags::FlagSet& flags) {
  DEMON_ASSIGN_OR_RETURN(auto blocks, LoadBlocks(flags));
  CompactSequenceMiner::Options options;
  options.focus.minsup = flags.GetDouble("minsup");
  options.focus.num_items = InferNumItems(blocks);
  options.alpha = flags.GetDouble("alpha");
  options.window_size = static_cast<size_t>(IntOr(flags, "window", 0));
  CompactSequenceMiner miner(options);
  for (const auto& block : blocks) miner.AddBlock(block);

  std::printf("maximal compact sequences (>= 2 blocks):\n");
  for (const auto& sequence : miner.MaximalSequences(2)) {
    std::printf("  {");
    for (size_t i = 0; i < sequence.size(); ++i) {
      std::printf("%s%s", i > 0 ? ", " : "",
                  miner.blocks()[sequence[i]]->info().label.c_str());
    }
    std::printf("}\n");
  }
  return Status::OK();
}

/// The Figure 11 deployment fleet shared by `monitor`, `telemetry` and
/// `checkpoint`: unrestricted + windowed itemset monitors plus a pattern
/// detector, fed every block, then quiesced.
struct Fleet {
  std::unique_ptr<DemonMonitor> demon;
  std::vector<DemonMonitor::MonitorId> ids;
  DemonMonitor::MonitorId mrw = 0;
  DemonMonitor::MonitorId patterns = 0;
  EngineOptions engine;
  /// Periodic metrics scraper, live while the feed loop ran. Created when
  /// --stats_every / --timeline_out / --trace_out / --alert ask for time
  /// series; stopped (after a final post-quiesce scrape) before return.
  std::unique_ptr<telemetry::TelemetryScraper> scraper;
};

/// One live-stats line per monitor — the --stats_every output. Shows the
/// per-block evolution gauges next to the latency split so a shifting
/// stream is visible as it happens.
Status PrintLiveStats(DemonMonitor& demon,
                      const std::vector<DemonMonitor::MonitorId>& ids,
                      BlockId block_id) {
  for (const auto id : ids) {
    DEMON_ASSIGN_OR_RETURN(MonitorStats stats, demon.StatsOf(id));
    DEMON_ASSIGN_OR_RETURN(std::string name, demon.NameOf(id));
    const EvolutionStats& evo = stats.evolution;
    std::printf(
        "[block %u] %-14s routed=%zu resp=%.1fms cpu=%.1fms "
        "elements=%llu +%llu -%llu churn=%.3f\n",
        block_id, name.c_str(), stats.blocks_routed,
        stats.last_response_seconds * 1e3,
        stats.last_response_cpu_seconds * 1e3,
        static_cast<unsigned long long>(evo.elements),
        static_cast<unsigned long long>(evo.added),
        static_cast<unsigned long long>(evo.removed), evo.churn);
  }
  return Status::OK();
}

/// Builds the fleet — freshly registered, or restored from a checkpoint
/// when --restore is given (with --wal, the log is replayed before new
/// blocks are fed and stays attached afterwards). Blocks already covered
/// by the restored snapshot / replayed log are skipped, so re-running the
/// same command after a crash continues where the interrupted run stopped.
/// --checkpoint (+ --checkpoint_every N) writes periodic checkpoints and
/// truncates the log after each; --block_delay_ms paces the feed (the
/// crash-injection harness uses this to land its kill mid-stream).
Result<Fleet> BuildAndRunFleet(
    const flags::FlagSet& flags,
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks) {
  DEMON_ASSIGN_OR_RETURN(
      BlockSelectionSequence bss,
      BlockSelectionSequence::FromString(flags.GetString("bss")));
  const double minsup = flags.GetDouble("minsup");
  const size_t window = static_cast<size_t>(IntOr(flags, "window", 3));
  // Out-of-core TID-list controls: cap resident TID-list bytes per itemset
  // monitor and choose where cold extents spill. 0 / empty defer to the
  // DEMON_TIDLIST_BUDGET_BYTES / DEMON_TIDLIST_SPILL_DIR environment.
  const size_t tidlist_budget =
      static_cast<size_t>(flags.GetInt("tidlist_budget"));
  const std::string tidlist_spill_dir = flags.GetString("tidlist_spill_dir");

  Fleet fleet;
  fleet.engine.num_threads = static_cast<size_t>(flags.GetInt("threads"));
  fleet.engine.defer_offline = flags.GetBool("defer");

  if (flags.Provided("restore")) {
    DEMON_ASSIGN_OR_RETURN(
        fleet.demon,
        DemonMonitor::Restore(flags.GetString("restore"), fleet.engine));
    if (flags.Provided("wal")) {
      DEMON_RETURN_NOT_OK(fleet.demon->ReplayWal(flags.GetString("wal")));
      DEMON_RETURN_NOT_OK(fleet.demon->AttachWal(flags.GetString("wal")));
    }
  } else {
    fleet.demon =
        std::make_unique<DemonMonitor>(InferNumItems(blocks), fleet.engine);
    DemonMonitor& demon = *fleet.demon;
    if (!bss.is_window_relative()) {
      DEMON_ASSIGN_OR_RETURN(
          auto uw,
          demon.AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                            .name = "uw-itemsets",
                            .bss = bss,
                            .minsup = minsup,
                            .tidlist_budget_bytes = tidlist_budget,
                            .tidlist_spill_dir = tidlist_spill_dir}));
      (void)uw;
    }
    DEMON_ASSIGN_OR_RETURN(
        auto mrw, demon.AddMonitor({.kind = MonitorKind::kWindowedItemsets,
                                    .name = "mrw-itemsets",
                                    .bss = bss,
                                    .window = window,
                                    .minsup = minsup,
                                    .tidlist_budget_bytes = tidlist_budget,
                                    .tidlist_spill_dir = tidlist_spill_dir}));
    (void)mrw;
    DEMON_ASSIGN_OR_RETURN(
        auto patterns,
        demon.AddMonitor({.kind = MonitorKind::kPatterns,
                          .name = "patterns",
                          .minsup = minsup,
                          .alpha = flags.GetDouble("alpha")}));
    (void)patterns;
    if (flags.Provided("wal")) {
      DEMON_RETURN_NOT_OK(demon.AttachWal(flags.GetString("wal")));
    }
  }
  DemonMonitor& demon = *fleet.demon;
  // Recover the monitor ids from the registered specs — uniform across
  // the fresh and restored paths.
  for (DemonMonitor::MonitorId id = 0; id < demon.NumMonitors(); ++id) {
    fleet.ids.push_back(id);
    DEMON_ASSIGN_OR_RETURN(const MonitorSpec* spec, demon.SpecOf(id));
    if (spec->kind == MonitorKind::kWindowedItemsets) fleet.mrw = id;
    if (spec->kind == MonitorKind::kPatterns) fleet.patterns = id;
  }

  // Time-series observability: a background scraper samples every metric
  // periodically, plus one pinned scrape per block boundary; --alert
  // policies are evaluated on each sample and print as they fire.
  const long stats_every = flags.GetInt("stats_every");
  if (stats_every > 0 || flags.Provided("timeline_out") || flags.Provided("trace_out") ||
      flags.Provided("alert")) {
    telemetry::ScraperOptions scraper_options;
    scraper_options.registry = demon.telemetry();
    scraper_options.period_seconds =
        flags.GetDouble("scrape_period_ms") * 1e-3;
    fleet.scraper =
        std::make_unique<telemetry::TelemetryScraper>(scraper_options);
    for (const std::string& spec :
         SplitCommas(flags.GetString("alert"))) {
      telemetry::AlertPolicy policy;
      std::string error;
      if (!telemetry::ParseAlertPolicy(spec, &policy, &error)) {
        return Status::InvalidArgument("--alert '" + spec + "': " + error);
      }
      fleet.scraper->AddPolicy(policy, [](const telemetry::AlertEvent& event) {
        std::printf("ALERT %s: %s = %g (threshold %g) at scrape %llu\n",
                    event.policy.c_str(), event.metric.c_str(), event.value,
                    event.threshold,
                    static_cast<unsigned long long>(event.seq));
      });
    }
    fleet.scraper->Start();
  }

  const std::string checkpoint_path = flags.GetString("checkpoint");
  const long checkpoint_every = flags.GetInt("checkpoint_every");
  const long delay_ms = flags.GetInt("block_delay_ms");
  const BlockId already = demon.snapshot().latest_id();
  long fed = 0;
  for (const auto& block : blocks) {
    if (block->info().id <= already) continue;  // covered by restore/replay
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    demon.AddBlock(*block);
    DEMON_RETURN_NOT_OK(demon.wal_status());
    ++fed;
    // A pinned scrape per block puts every block boundary on the
    // timeline even when blocks absorb faster than the scrape period.
    if (fleet.scraper != nullptr) fleet.scraper->ScrapeNow();
    if (stats_every > 0 && fed % stats_every == 0) {
      DEMON_RETURN_NOT_OK(PrintLiveStats(demon, fleet.ids, block->info().id));
    }
    if (!checkpoint_path.empty() && checkpoint_every > 0 &&
        demon.snapshot().latest_id() % static_cast<BlockId>(checkpoint_every) ==
            0) {
      DEMON_RETURN_NOT_OK(demon.Checkpoint(checkpoint_path));
      if (flags.Provided("wal")) DEMON_RETURN_NOT_OK(demon.ResetWal());
    }
  }
  demon.Quiesce();
  if (fleet.scraper != nullptr) {
    fleet.scraper->Stop();
    // Final post-quiesce scrape: the last sample equals the registry's
    // quiesced totals (what the concurrency test asserts).
    fleet.scraper->ScrapeNow();
  }
  return fleet;
}

/// `checkpoint` subcommand: runs the monitor fleet over --data (optionally
/// continuing from --restore / --wal) and writes one atomic checkpoint of
/// the final state to --out. Checkpoint bytes are deterministic, so the
/// crash-recovery harness diffs them between an interrupted-then-restored
/// run and an uninterrupted one.
Status RunCheckpoint(const flags::FlagSet& flags) {
  if (!flags.Provided("out")) return Status::InvalidArgument("--out is required");
  DEMON_ASSIGN_OR_RETURN(auto blocks, LoadBlocks(flags));
  DEMON_ASSIGN_OR_RETURN(Fleet fleet, BuildAndRunFleet(flags, blocks));
  const std::string out = flags.GetString("out");
  DEMON_RETURN_NOT_OK(fleet.demon->Checkpoint(out));
  std::printf("checkpointed %zu monitor(s), %zu block(s) to %s\n",
              fleet.demon->NumMonitors(), fleet.demon->snapshot().NumBlocks(),
              out.c_str());
  return Status::OK();
}

Status RunMonitor(const flags::FlagSet& flags) {
  // The Figure 11 deployment loop: one evolving database, several
  // heterogeneous monitors, driven by the parallel MaintenanceEngine.
  DEMON_ASSIGN_OR_RETURN(auto blocks, LoadBlocks(flags));
  DEMON_ASSIGN_OR_RETURN(Fleet fleet, BuildAndRunFleet(flags, blocks));
  DemonMonitor& demon = *fleet.demon;
  const auto& ids = fleet.ids;
  const auto mrw = fleet.mrw;
  const auto patterns = fleet.patterns;
  const size_t window = static_cast<size_t>(IntOr(flags, "window", 3));

  std::printf("engine: %zu thread(s), defer_offline=%s, %zu blocks\n",
              fleet.engine.num_threads,
              fleet.engine.defer_offline ? "on" : "off",
              demon.snapshot().NumBlocks());
  std::printf("%-14s | %6s | %7s | %12s | %7s | %11s | %9s | %8s | %5s\n",
              "monitor", "routed", "skipped", "response(ms)", "cpu(ms)",
              "offline(ms)", "total(ms)", "elements", "churn");
  for (const auto id : ids) {
    DEMON_ASSIGN_OR_RETURN(MonitorStats stats, demon.StatsOf(id));
    DEMON_ASSIGN_OR_RETURN(std::string name, demon.NameOf(id));
    std::printf(
        "%-14s | %6zu | %7zu | %12.1f | %7.1f | %11.1f | %9.1f | %8llu "
        "| %5.3f\n",
        name.c_str(), stats.blocks_routed, stats.blocks_skipped,
        stats.response_seconds * 1e3, stats.response_cpu_seconds * 1e3,
        stats.offline_seconds * 1e3, stats.total_seconds() * 1e3,
        static_cast<unsigned long long>(stats.evolution.elements),
        stats.evolution.churn);
  }

  DEMON_ASSIGN_OR_RETURN(const ItemsetModel* model,
                         demon.ItemsetModelOf(mrw));
  std::printf("\nmost-recent-window model (last %zu blocks):\n", window);
  PrintTopItemsets(*model, static_cast<size_t>(IntOr(flags, "top", 10)));

  DEMON_ASSIGN_OR_RETURN(const CompactSequenceMiner* miner,
                         demon.PatternsOf(patterns));
  std::printf("\nmaximal compact sequences (>= 2 blocks):\n");
  for (const auto& sequence : miner->MaximalSequences(2)) {
    std::printf("  {");
    for (size_t i = 0; i < sequence.size(); ++i) {
      std::printf("%s%s", i > 0 ? ", " : "",
                  miner->blocks()[sequence[i]]->info().label.c_str());
    }
    std::printf("}\n");
  }

  if (flags.Provided("timeline_out")) {
    // Merge the scraper's periodic samples with the engine's per-block
    // records into one JSONL stream, ordered by timestamp.
    std::vector<std::pair<uint64_t, std::string>> lines;
    if (fleet.scraper != nullptr) {
      for (const telemetry::TimelineSample& sample : fleet.scraper->Samples()) {
        lines.emplace_back(sample.cumulative.t_ns,
                           telemetry::TimelineJsonl({sample}));
      }
    }
    for (const BlockTimelineRecord& record : demon.TimelineRecords()) {
      lines.emplace_back(record.t_ns, BlockTimelineJsonl({record}));
    }
    std::stable_sort(lines.begin(), lines.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::string jsonl;
    for (const auto& [t_ns, line] : lines) jsonl.append(line);
    const std::string path = flags.GetString("timeline_out");
    DEMON_RETURN_NOT_OK(persistence::WriteFile(path, {jsonl}));
    std::printf("\nwrote %zu timeline records to %s\n", lines.size(),
                path.c_str());
  }

  if (flags.Provided("trace_out")) {
    const std::string path = flags.GetString("trace_out");
    std::string trace;
    if (fleet.scraper != nullptr) {
      // Spans plus counter tracks ("ph":"C") on one timebase: Perfetto
      // charts resident bytes, page-ins and evolution gauges over time
      // next to the engine's block/response/offline spans.
      demon.Quiesce();
      trace = telemetry::ChromeTraceJson(demon.telemetry()->CollectSpans(),
                                         fleet.scraper->Samples());
    } else {
      trace = demon.ExportTelemetry(telemetry::TelemetryFormat::kChromeTrace);
    }
    DEMON_RETURN_NOT_OK(persistence::WriteFile(path, {trace}));
    std::printf("\nwrote Chrome trace to %s (load at ui.perfetto.dev)\n",
                path.c_str());
  }

  if (fleet.scraper != nullptr) {
    const auto alerts = fleet.scraper->Alerts();
    if (!alerts.empty()) {
      std::printf("\n%zu alert(s) fired:\n", alerts.size());
      for (const telemetry::AlertEvent& event : alerts) {
        std::printf("  %s: %s = %g (threshold %g)\n", event.policy.c_str(),
                    event.metric.c_str(), event.value, event.threshold);
      }
    }
  }
  return Status::OK();
}

/// Runs the monitor fleet and dumps the engine's telemetry registry —
/// Prometheus text by default, Chrome trace-event JSON with
/// --format chrome. --out writes to a file instead of stdout.
Status RunTelemetry(const flags::FlagSet& flags) {
  DEMON_ASSIGN_OR_RETURN(auto blocks, LoadBlocks(flags));
  DEMON_ASSIGN_OR_RETURN(Fleet fleet, BuildAndRunFleet(flags, blocks));

  const std::string format = flags.GetString("format");
  telemetry::TelemetryFormat telemetry_format;
  if (format == "prometheus") {
    telemetry_format = telemetry::TelemetryFormat::kPrometheus;
  } else if (format == "chrome" || format == "trace") {
    telemetry_format = telemetry::TelemetryFormat::kChromeTrace;
  } else {
    return Status::InvalidArgument("unknown --format: " + format +
                                   " (want prometheus|chrome)");
  }
  const std::string text = fleet.demon->ExportTelemetry(telemetry_format);
  if (flags.Provided("out")) {
    const std::string path = flags.GetString("out");
    DEMON_RETURN_NOT_OK(persistence::WriteFile(path, {text}));
    std::printf("wrote %s telemetry to %s\n", format.c_str(), path.c_str());
  } else {
    std::printf("%s", text.c_str());
  }
  return Status::OK();
}

Status RunRules(const flags::FlagSet& flags) {
  DEMON_ASSIGN_OR_RETURN(auto blocks, LoadBlocks(flags));
  const double minsup = flags.GetDouble("minsup");
  const double confidence = flags.GetDouble("confidence");
  const ItemsetModel model = Apriori(blocks, minsup, InferNumItems(blocks));
  const auto rules = DeriveRules(model, confidence);
  std::printf("%zu rules at minsup %.3f, confidence %.2f:\n", rules.size(),
              minsup, confidence);
  const size_t top = static_cast<size_t>(IntOr(flags, "top", 20));
  for (size_t i = 0; i < rules.size() && i < top; ++i) {
    std::printf("  %s\n", rules[i].ToString().c_str());
  }
  return Status::OK();
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: demon_cli "
      "<gen|mine|maintain|monitor|checkpoint|patterns|rules|telemetry> "
      "[--flag value]\n"
      "  gen       --out F [--transactions N --items I --patterns P "
      "--len L --plen L --seed S]\n"
      "  mine      --data F1[,F2...] [--minsup 0.01 --top 15]\n"
      "  maintain  --data F1[,F2...] [--minsup 0.01 --strategy "
      "ptscan|ecut|ecut+ --bss all|10110|periodic:7/0]\n"
      "  monitor   --data F1[,F2...] [--minsup 0.01 --window 3 --bss all "
      "--threads N --defer --alpha 0.95 --trace_out trace.json]\n"
      "            [--restore ckpt --wal log --checkpoint ckpt "
      "--checkpoint_every N --block_delay_ms M]\n"
      "            [--tidlist_budget BYTES --tidlist_spill_dir DIR]\n"
      "            [--stats_every N --timeline_out F.jsonl "
      "--scrape_period_ms 50 --alert 'metric>thr[:n][,...]']\n"
      "  checkpoint --data F1[,F2...] --out ckpt "
      "[--restore ckpt --wal log + monitor flags]\n"
      "  telemetry --data F1[,F2...] [--format prometheus|chrome "
      "--out F + monitor flags]\n"
      "  patterns  --data F1[,F2...] [--minsup 0.01 --alpha 0.95 "
      "--window W]\n"
      "  rules     --data F1[,F2...] [--minsup 0.01 --confidence 0.5]\n");
  return 2;
}

flags::FlagSet BuildFlags() {
  flags::FlagSet flags("demon_cli <command>",
                       "Command-line driver over the DEMON library, "
                       "operating on TransactionFile block binaries.");
  flags.DefineString("data", "", "comma-separated TransactionFile inputs");
  flags.DefineString("out", "", "output path (file depends on command)");
  flags.DefineInt("transactions", 10000, "gen: transactions to synthesize");
  flags.DefineInt("items", 1000, "gen: item-universe size");
  flags.DefineInt("patterns", 2000, "gen: maximal pattern count");
  flags.DefineDouble("len", 10.0, "gen: mean transaction length");
  flags.DefineDouble("plen", 4.0, "gen: mean pattern length");
  flags.DefineInt("seed", 42, "gen: generator seed");
  flags.DefineDouble("minsup", 0.01, "minimum support threshold");
  flags.DefineInt("top", 0, "itemsets to print (0 = per-command default)");
  flags.DefineString("bss", "all", "block selection sequence: all|BITS|"
                                   "periodic:P/O");
  flags.DefineString("strategy", "ecut", "maintain: ptscan|ecut|ecut+");
  flags.DefineDouble("alpha", 0.95, "deviation significance level");
  flags.DefineInt("window", 0, "sliding-window width in blocks "
                               "(0 = per-command default)");
  flags.DefineInt("tidlist_budget", 0, "TID-list memory budget in bytes");
  flags.DefineString("tidlist_spill_dir", "",
                     "spill directory for out-of-core TID lists");
  flags.DefineInt("threads", 0, "maintenance threads (0 = inline)");
  flags.DefineBool("defer", false, "defer offline maintenance");
  flags.DefineString("restore", "", "checkpoint to restore before blocks");
  flags.DefineString("wal", "", "write-ahead log path");
  flags.DefineInt("stats_every", 0, "print stats every N blocks");
  flags.DefineString("timeline_out", "", "telemetry timeline JSONL path");
  flags.DefineString("trace_out", "", "Chrome-trace output path");
  flags.DefineString("alert", "", "alert policies 'metric>thr[:n][,...]'");
  flags.DefineDouble("scrape_period_ms", 50.0, "timeline scrape period");
  flags.DefineString("checkpoint", "", "checkpoint output path");
  flags.DefineInt("checkpoint_every", 0, "checkpoint every N blocks");
  flags.DefineInt("block_delay_ms", 0, "sleep between blocks");
  flags.DefineString("format", "prometheus",
                     "telemetry: prometheus|chrome");
  flags.DefineDouble("confidence", 0.5, "rules: minimum confidence");
  return flags;
}

int Main(int argc, char** argv) {
  const std::string command = flags::Positional(argc, argv, 1);
  if (command.empty()) return Usage();
  flags::FlagSet flags = BuildFlags();
  const Status parsed = flags.Parse(argc, argv, /*first=*/2);
  if (flags.help_requested()) {
    std::printf("%s", flags.HelpText().c_str());
    return 0;
  }
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return Usage();
  }
  Status status;
  if (command == "gen") {
    status = RunGen(flags);
  } else if (command == "mine") {
    status = RunMine(flags);
  } else if (command == "maintain") {
    status = RunMaintain(flags);
  } else if (command == "monitor") {
    status = RunMonitor(flags);
  } else if (command == "checkpoint") {
    status = RunCheckpoint(flags);
  } else if (command == "patterns") {
    status = RunPatterns(flags);
  } else if (command == "telemetry") {
    status = RunTelemetry(flags);
  } else if (command == "rules") {
    status = RunRules(flags);
  } else {
    return Usage();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace demon

int main(int argc, char** argv) { return demon::Main(argc, argv); }
