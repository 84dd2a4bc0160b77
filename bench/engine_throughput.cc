// Ingest throughput of the MaintenanceEngine as the worker count grows,
// and the effect of DeferOffline on the time-critical response path.
//
// Part 1 fixes a heterogeneous monitor fleet (the Figure 11 deployment:
// unrestricted + windowed itemset monitors and a pattern detector) and
// measures blocks/sec at 1, 2, 4 and 8 engine threads, plus the
// sequential (0-thread) baseline. Monitors are independent, so the
// engine's per-block fan-out is embarrassingly parallel up to the
// number of physical cores.
//
// Part 2 measures the response-time split of §3.2.3: with DeferOffline
// on, a block's GEMM future-window updates run off-line on the pool, so
// last_response_seconds covers only the current-window update.
//
//   DEMON_SCALE=1 ./engine_throughput
//
// Pass --trace_out=PATH to additionally run the fleet once more at 4
// engine threads with an injected telemetry registry and write a Chrome
// trace-event JSON file (load it at https://ui.perfetto.dev) showing the
// nested engine -> maintainer -> counting-shard spans.
// --telemetry_out=PATH writes the same run's metrics in Prometheus text
// exposition format. --timeline_out=PATH runs a TelemetryScraper over the
// instrumented run (one scrape pinned per block) and writes the JSONL
// metrics timeline; with both --trace_out and --timeline_out the trace
// additionally carries the scraper's counter tracks ("ph":"C").

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/telemetry.h"
#include "common/telemetry_timeline.h"
#include "core/demon_monitor.h"

namespace demon::bench {
namespace {

std::vector<TransactionBlock> MakeBlocks(size_t num_blocks,
                                         size_t block_size) {
  QuestGenerator gen(PaperQuestParams(num_blocks * block_size, 7));
  std::vector<TransactionBlock> blocks;
  Tid tid = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    blocks.push_back(gen.NextBlock(block_size, tid));
    tid += block_size;
  }
  return blocks;
}

struct RunResult {
  double blocks_per_sec = 0.0;
  double response_seconds = 0.0;  // summed over itemset monitors
  double offline_seconds = 0.0;
};

RunResult RunFleet(const std::vector<TransactionBlock>& blocks,
                   const EngineOptions& engine, double minsup, size_t window,
                   telemetry::TelemetryScraper* scraper = nullptr) {
  DemonMonitor demon(1000, engine);
  std::vector<DemonMonitor::MonitorId> ids;
  ids.push_back(demon
                    .AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                                 .name = "uw-ecut",
                                 .minsup = minsup})
                    .ValueOrDie());
  ids.push_back(demon
                    .AddMonitor({.kind = MonitorKind::kUnrestrictedItemsets,
                                 .name = "uw-borders",
                                 .minsup = minsup,
                                 .strategy = CountingStrategy::kEcutPlus})
                    .ValueOrDie());
  ids.push_back(demon
                    .AddMonitor({.kind = MonitorKind::kWindowedItemsets,
                                 .name = "mrw-itemsets",
                                 .window = window,
                                 .minsup = minsup})
                    .ValueOrDie());
  ids.push_back(demon
                    .AddMonitor({.kind = MonitorKind::kPatterns,
                                 .name = "patterns",
                                 .minsup = minsup,
                                 .alpha = 0.95})
                    .ValueOrDie());

  telemetry::ScopedTimer timer;
  for (const auto& block : blocks) {
    demon.AddBlock(block);
    if (scraper != nullptr) scraper->ScrapeNow();
  }
  demon.Quiesce();
  if (scraper != nullptr) scraper->ScrapeNow();
  const double elapsed = timer.Stop();

  RunResult result;
  result.blocks_per_sec = static_cast<double>(blocks.size()) / elapsed;
  for (const auto id : ids) {
    const MonitorStats stats = demon.StatsOf(id).value();
    result.response_seconds += stats.response_seconds;
    result.offline_seconds += stats.offline_seconds;
  }
  return result;
}

}  // namespace
}  // namespace demon::bench

int main(int argc, char** argv) {
  using namespace demon;
  using namespace demon::bench;

  flags::FlagSet flags("engine_throughput",
                       "Engine ingest throughput across thread counts.");
  flags.DefineString("trace_out", "", "Chrome-trace output path");
  flags.DefineString("telemetry_out", "", "Prometheus metrics output path");
  flags.DefineString("timeline_out", "", "telemetry timeline JSONL path");
  const Status parsed = flags.Parse(argc, argv);
  if (flags.help_requested()) {
    std::printf("%s", flags.HelpText().c_str());
    return 0;
  }
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  const std::string trace_out = flags.GetString("trace_out");
  const std::string telemetry_out = flags.GetString("telemetry_out");
  const std::string timeline_out = flags.GetString("timeline_out");

  const size_t block_size = Scaled(10000, 500);
  const size_t num_blocks = 8;
  const double minsup = 0.005;
  const size_t window = 3;
  const auto blocks = MakeBlocks(num_blocks, block_size);

  PrintHeader("Engine ingest throughput (4 monitors, blocks/sec)");
  std::printf("%8s | %10s | %8s\n", "threads", "blocks/s", "speedup");
  double baseline = 0.0;
  for (const size_t threads : {size_t{0}, size_t{1}, size_t{2}, size_t{4},
                               size_t{8}}) {
    EngineOptions engine;
    engine.num_threads = threads;
    const RunResult r = RunFleet(blocks, engine, minsup, window);
    if (threads == 0) baseline = r.blocks_per_sec;
    std::printf("%8zu | %10.2f | %7.2fx\n", threads, r.blocks_per_sec,
                r.blocks_per_sec / baseline);
  }

  PrintHeader("Response vs off-line split (DeferOffline, 4 threads)");
  std::printf("%10s | %12s | %12s | %10s\n", "defer", "response(s)",
              "offline(s)", "blocks/s");
  for (const bool defer : {false, true}) {
    EngineOptions engine;
    engine.num_threads = 4;
    engine.defer_offline = defer;
    const RunResult r = RunFleet(blocks, engine, minsup, window);
    std::printf("%10s | %12.3f | %12.3f | %10.2f\n", defer ? "on" : "off",
                r.response_seconds, r.offline_seconds, r.blocks_per_sec);
  }

  // Instrumented run: same fleet at 4 threads, telemetry injected, spans
  // and metrics exported.
  if (!trace_out.empty() || !telemetry_out.empty() || !timeline_out.empty()) {
    telemetry::TelemetryRegistry registry;
    EngineOptions engine;
    engine.num_threads = 4;
    engine.telemetry = &registry;
    std::unique_ptr<telemetry::TelemetryScraper> scraper;
    if (!timeline_out.empty()) {
      telemetry::ScraperOptions scraper_options;
      scraper_options.registry = &registry;
      scraper = std::make_unique<telemetry::TelemetryScraper>(scraper_options);
      scraper->Start();
    }
    RunFleet(blocks, engine, minsup, window, scraper.get());
    if (scraper != nullptr) scraper->Stop();
    if (!timeline_out.empty() &&
        WriteFileContents(timeline_out,
                          telemetry::TimelineJsonl(scraper->Samples()))) {
      std::printf("wrote metrics timeline to %s\n", timeline_out.c_str());
    }
    if (!trace_out.empty()) {
      const std::string trace =
          scraper != nullptr
              ? telemetry::ChromeTraceJson(registry.CollectSpans(),
                                           scraper->Samples())
              : registry.ChromeTraceJson();
      if (WriteFileContents(trace_out, trace)) {
        std::printf("wrote Chrome trace to %s\n", trace_out.c_str());
      }
    }
    if (!telemetry_out.empty() &&
        WriteFileContents(telemetry_out, registry.PrometheusText())) {
      std::printf("wrote Prometheus metrics to %s\n", telemetry_out.c_str());
    }
  }
  return 0;
}
