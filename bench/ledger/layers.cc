#include <algorithm>
#include <map>
#include <unordered_map>

#include "bench/ledger/workloads.h"
#include "common/telemetry.h"
#include "itemsets/association_rules.h"
#include "itemsets/counting_context.h"

namespace demon::ledger {

void ZeroLayers(RunResult* result) {
  for (const MetricDef& def : MetricTable()) {
    if (def.kind == MetricKind::kPerLayer) result->metrics[def.name] = 0.0;
  }
}

void EmitCore(const std::vector<BlockTimelineRecord>& timeline,
              const std::vector<double>& walls, RunResult* result) {
  if (timeline.empty() || timeline.size() != walls.size()) {
    result->Fail("engine timeline does not match the timed blocks");
    return;
  }
  struct Sums {
    double response = 0, cpu = 0, offline = 0, blocks = 0;
  };
  std::map<std::string, Sums> by_monitor;
  double overhead = 0, tokens = 0;
  for (size_t k = 0; k < timeline.size(); ++k) {
    double slowest = 0, offline = 0;
    for (const BlockTimelineRecord::MonitorRow& row : timeline[k].monitors) {
      Sums& sums = by_monitor[row.name];
      sums.response += row.response_seconds;
      sums.cpu += row.response_cpu_seconds + row.offline_cpu_seconds;
      sums.offline += row.offline_seconds;
      sums.blocks += 1;
      slowest = std::max(slowest, row.response_seconds);
      offline += row.offline_seconds;
    }
    overhead += walls[k] - slowest - offline;
    tokens += timeline[k].tokens_in_flight;
  }
  const double n = static_cast<double>(timeline.size());
  result->metrics["core.engine_overhead_s_per_block"] = overhead / n;
  result->metrics["core.tokens_in_flight"] = tokens / n;
  for (const auto& [name, sums] : by_monitor) {
    if (FindMetric("core.response_s_per_block." + name) == nullptr) continue;
    result->metrics["core.response_s_per_block." + name] =
        sums.response / sums.blocks;
    result->metrics["core.cpu_s_per_block." + name] = sums.cpu / sums.blocks;
    if (FindMetric("core.offline_s_per_block." + name) != nullptr) {
      result->metrics["core.offline_s_per_block." + name] =
          sums.offline / sums.blocks;
    }
  }
}

BordersOptions OptionsFor(const MonitorSpec& spec, size_t num_items) {
  BordersOptions options;
  options.minsup = spec.minsup;
  options.num_items = num_items;
  options.strategy = spec.strategy;
  options.tidlist_budget_bytes = spec.tidlist_budget_bytes;
  options.tidlist_spill_dir = spec.tidlist_spill_dir;
  return options;
}

namespace {

/// Seconds the counting spans under each BORDERS phase span took, and
/// the TID-list builds, for one drained batch of spans.
struct PhaseSpans {
  double detect_count_s = 0, update_count_s = 0, build_s = 0;
};

PhaseSpans AttributeSpans(const std::vector<telemetry::SpanRecord>& spans) {
  std::unordered_map<uint64_t, const telemetry::SpanRecord*> by_id;
  for (const telemetry::SpanRecord& span : spans) by_id[span.id] = &span;
  PhaseSpans out;
  for (const telemetry::SpanRecord& span : spans) {
    const double seconds =
        static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    if (span.name == "tidlist-build") out.build_s += seconds;
    if (span.category != std::string("counting")) continue;
    const auto parent = by_id.find(span.parent);
    if (parent == by_id.end()) continue;
    if (parent->second->name == "borders-detect") out.detect_count_s += seconds;
    if (parent->second->name == "borders-update") out.update_count_s += seconds;
  }
  return out;
}

/// Up to `n` tracked itemsets of two or more items, evenly spaced in
/// ItemsetLess order — a fixed sample for timing the intersection kernels.
std::vector<Itemset> SampleItemsets(const ItemsetModel& model, size_t n) {
  std::vector<Itemset> all;
  for (const auto& [itemset, entry] : model.entries()) {
    if (itemset.size() >= 2) all.push_back(itemset);
  }
  std::sort(all.begin(), all.end(), ItemsetLess());
  std::vector<Itemset> sample;
  for (size_t i = 0; i < n && i < all.size(); ++i) {
    sample.push_back(all[i * all.size() / std::min(n, all.size())]);
  }
  return sample;
}

}  // namespace

void ItemsetReplay::StartStream(const BordersOptions& options) {
  registry_ = std::make_unique<telemetry::TelemetryRegistry>();
  maintainer_ = std::make_unique<BordersMaintainer>(options);
  maintainer_->set_telemetry(registry_.get());
  first_block_ = true;
}

void ItemsetReplay::AddBlock(const BlockPtr& block) {
  telemetry::Counter* const counters[] = {
      registry_->counter("counting/slots_fetched"),
      registry_->counter("counting/lists_opened"),
      registry_->counter("counting/transactions_scanned"),
      registry_->counter("counting/itemsets_counted")};
  double* const sums[] = {&slots_, &lists_, &transactions_, &counted_};
  uint64_t before_counts[4];
  for (int c = 0; c < 4; ++c) before_counts[c] = counters[c]->value();
  const bool counted = !first_block_;
  first_block_ = false;
  maintainer_->AddBlock(block);
  // The scans the engine's BORDERS adapter makes after every block to
  // describe the model's evolution (frequent set, border size).
  const ItemsetModel& model = maintainer_->model();
  const double evolution_start = NowSeconds();
  std::vector<Itemset> frequent = model.FrequentItemsets();
  std::sort(frequent.begin(), frequent.end());
  volatile size_t border = model.NumBorder();
  (void)border;
  const double evolution_s = NowSeconds() - evolution_start;
  const PhaseSpans phases = AttributeSpans(registry_->CollectSpans());
  registry_->ClearSpans();

  if (counted) {
    const BordersMaintainer::UpdateStats& stats = maintainer_->last_stats();
    blocks_ += 1;
    records_ += static_cast<double>(block->size());
    build_s_ += phases.build_s;
    detection_s_ += stats.detection_seconds;
    detect_count_s_ += phases.detect_count_s;
    update_s_ += stats.update_seconds;
    update_count_s_ += phases.update_count_s;
    evolution_s_ += evolution_s;
    new_candidates_ += static_cast<double>(stats.new_candidates);
    for (int c = 0; c < 4; ++c) {
      *sums[c] += static_cast<double>(counters[c]->value() - before_counts[c]);
    }
    for (const auto& [itemset, entry] : model.entries()) {
      if (entry.frequent && !previous_->model().Contains(itemset)) {
        newly_frequent_ += 1;
      }
    }
  }
  // Copying the maintainer is what GEMM pays per new window model; the
  // copy also tells the next block's newly tracked itemsets apart from
  // promoted border members. Taken right after the block, it leaves the
  // caches as the block itself left them.
  const double copy_start = NowSeconds();
  previous_ = std::make_unique<BordersMaintainer>(*maintainer_);
  copy_s_ += NowSeconds() - copy_start;
  copies_ += 1;
}

void ItemsetReplay::FinishStream() {
  const ItemsetModel& model = maintainer_->model();
  streams_ += 1;
  tracked_ += static_cast<double>(model.entries().size());
  frequent_ += static_cast<double>(model.NumFrequent());
  rules_ += static_cast<double>(DeriveRules(model, 0.8).size());

  std::vector<Itemset> keys;
  keys.reserve(model.entries().size());
  for (const auto& [itemset, entry] : model.entries()) keys.push_back(itemset);
  uint64_t checksum = 0;
  const double lookup_start = NowSeconds();
  for (const Itemset& key : keys) checksum += model.CountOf(key);
  const double lookup_s = NowSeconds() - lookup_start;
  // Stored so the compiler cannot drop the lookups.
  volatile uint64_t sink = checksum;
  (void)sink;
  if (!keys.empty()) {
    lookup_ns_ += lookup_s * 1e9 / static_cast<double>(keys.size());
  }

  const TidListStore& store = maintainer_->tidlist_store();
  const std::vector<Itemset> sample = SampleItemsets(model, 64);
  if (store.NumBlocks() > 0) {
    payload_bytes_ += static_cast<double>(store.TotalPayloadBytes());
    list_records_ += static_cast<double>(store.TotalTransactions());
    for (const auto& block : store.blocks()) {
      for (int e = 0; e < 3; ++e) {
        lists_by_encoding_[e] += static_cast<double>(
            block->EncodingCensus(static_cast<TidEncoding>(e)));
      }
    }
  }
  if (store.NumBlocks() > 0 && !sample.empty()) {
    CountingContext context;
    CountingStats stats;
    const double start = NowSeconds();
    int reps = 0;
    do {
      (void)context.Ecut(sample, store, /*use_pair_lists=*/false, &stats);
      ++reps;
    } while (reps < 3 || NowSeconds() - start < 0.02);
    intersect_ns_ += (NowSeconds() - start) * 1e9;
    intersect_slots_ += static_cast<double>(stats.slots_fetched);
  }
  previous_.reset();
  maintainer_.reset();
  registry_.reset();
}

double ItemsetReplay::SecondsPerBlock() const {
  return blocks_ == 0
             ? 0
             : (build_s_ + detection_s_ + update_s_ + evolution_s_) / blocks_;
}

double ItemsetReplay::BordersSecondsPerRecord() const {
  return records_ == 0 ? 0 : (detection_s_ + update_s_) / records_;
}

void ItemsetReplay::Emit(RunResult* result) const {
  const auto per = [](double sum, double n) { return n == 0 ? 0.0 : sum / n; };
  auto& m = result->metrics;
  m["itemsets.detection_s_per_block"] = per(detection_s_, blocks_);
  m["itemsets.detect_count_s_per_block"] = per(detect_count_s_, blocks_);
  m["itemsets.detect_bookkeeping_s_per_block"] =
      per(detection_s_ - detect_count_s_, blocks_);
  m["itemsets.update_s_per_block"] = per(update_s_, blocks_);
  m["itemsets.update_count_s_per_block"] = per(update_count_s_, blocks_);
  m["itemsets.update_bookkeeping_s_per_block"] =
      per(update_s_ - update_count_s_, blocks_);
  m["core.evolution_s_per_block"] = per(evolution_s_, blocks_);
  m["itemsets.new_candidates_per_block"] = per(new_candidates_, blocks_);
  m["itemsets.candidate_yield"] = per(newly_frequent_, new_candidates_);
  m["itemsets.tracked_itemsets"] = per(tracked_, streams_);
  m["itemsets.frequent_itemsets"] = per(frequent_, streams_);
  m["itemsets.model_lookup_ns"] = per(lookup_ns_, streams_);
  m["itemsets.maintainer_copy_s"] = per(copy_s_, copies_);
  m["itemsets.rules_per_query"] = per(rules_, streams_);
  m["itemsets.slots_fetched_per_block"] = per(slots_, blocks_);
  m["itemsets.lists_opened_per_block"] = per(lists_, blocks_);
  m["itemsets.transactions_scanned_per_block"] = per(transactions_, blocks_);
  m["itemsets.itemsets_counted_per_block"] = per(counted_, blocks_);
  m["tidlist.build_s_per_block"] = per(build_s_, blocks_);
  m["tidlist.payload_bytes_per_record"] = per(payload_bytes_, list_records_);
  const double lists =
      lists_by_encoding_[0] + lists_by_encoding_[1] + lists_by_encoding_[2];
  m["tidlist.raw_list_share"] = per(lists_by_encoding_[0], lists);
  m["tidlist.delta_list_share"] = per(lists_by_encoding_[1], lists);
  m["tidlist.bitmap_list_share"] = per(lists_by_encoding_[2], lists);
  m["tidlist.intersect_ns_per_slot"] = per(intersect_ns_, intersect_slots_);
}

}  // namespace demon::ledger
