#ifndef DEMON_BENCH_BENCH_UTIL_H_
#define DEMON_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/telemetry.h"
#include "data/block.h"
#include "datagen/quest_generator.h"
#include "persistence/file.h"

namespace demon::bench {

/// Global scale knob for every benchmark: dataset sizes are the paper's
/// sizes multiplied by this factor. Default 0.1 keeps the full suite in
/// the minutes range on a laptop; DEMON_SCALE=1 reproduces paper-sized
/// runs (the 200 MHz Pentium Pro of the paper is ~2 orders slower than a
/// modern core, so shapes — not absolute times — are the comparison).
inline double ScaleFactor() {
  const char* env = std::getenv("DEMON_SCALE");
  if (env == nullptr) return 0.1;
  const double v = std::atof(env);
  return v > 0.0 ? v : 0.1;
}

/// n scaled by ScaleFactor(), at least `min_n`.
inline size_t Scaled(size_t n, size_t min_n = 1000) {
  const double scaled = static_cast<double>(n) * ScaleFactor();
  const size_t result = static_cast<size_t>(scaled);
  return result < min_n ? min_n : result;
}

/// The paper's base Quest configuration `*.20L.1I.4pats.4plen`.
inline QuestParams PaperQuestParams(size_t num_transactions, uint64_t seed) {
  QuestParams params;
  params.num_transactions = num_transactions;
  params.avg_transaction_len = 20.0;
  params.num_items = 1000;
  params.num_patterns = 4000;
  params.avg_pattern_len = 4.0;
  params.seed = seed;
  return params;
}

inline std::shared_ptr<const TransactionBlock> MakeSharedBlock(
    TransactionBlock block) {
  return std::make_shared<TransactionBlock>(std::move(block));
}

/// Prints a horizontal rule + title, paper-figure style.
inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Total seconds recorded in a registry histogram — how the fig-benches
/// read phase timings (the instrumented code records them; the bench does
/// not re-time around calls). 0 when the histogram has no samples (e.g.
/// DEMON_TELEMETRY=OFF builds, where components never bind histograms).
inline double HistogramSeconds(telemetry::TelemetryRegistry* registry,
                               const char* name) {
  return registry->histogram(name)->sum();
}

/// Writes `contents` to `path` (for --trace_out= / --telemetry_out=).
/// False, with the error on stderr, when the write fails.
inline bool WriteFileContents(const std::string& path,
                              const std::string& contents) {
  const Status written = persistence::WriteFile(path, {contents});
  if (!written.ok()) std::fprintf(stderr, "%s\n", written.ToString().c_str());
  return written.ok();
}

}  // namespace demon::bench

#endif  // DEMON_BENCH_BENCH_UTIL_H_
