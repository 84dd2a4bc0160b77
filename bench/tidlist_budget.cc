// Budget sweep for the tiered TID-list store (DESIGN.md "Storage tiers"):
// counting time and paging activity as the resident-byte budget shrinks
// from unbounded to an eighth of the encoded footprint. Beyond timing, the
// sweep re-verifies the invariants it depends on: counts stay bit-identical
// across budgets, strategies (PT-Scan / ECUT / ECUT+) and thread counts,
// the quiesced resident set never exceeds the budget, and the peak exceeds
// it by at most the pinned working set (one block payload per concurrent
// counting shard).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "itemsets/apriori.h"
#include "itemsets/counting_context.h"

namespace demon {
namespace {

struct SweepRow {
  std::string name;
  size_t budget_bytes = 0;  // 0 = unbounded
  size_t threads = 1;
  double ecut_ms = 0.0;
  double ecutplus_ms = 0.0;
  size_t peak_resident_bytes = 0;
  size_t final_resident_bytes = 0;
  uint64_t page_ins = 0;
  uint64_t evictions = 0;
  uint64_t spills = 0;
};

TidListStore BuildStore(
    size_t budget,
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    size_t num_items, const PairMaterializationSpec& spec) {
  TidListStoreOptions options;
  options.memory_budget_bytes = budget;
  TidListStore store(options);
  for (const auto& block : blocks) {
    store.Append(BlockTidLists::Build(*block, num_items, &spec));
  }
  return store;
}

void CheckEqual(const std::vector<uint64_t>& got,
                const std::vector<uint64_t>& want, const char* what) {
  DEMON_CHECK_MSG(got == want,
                  (std::string("counts diverged: ") + what).c_str());
}

/// Times ECUT and ECUT+ on `store`, checking both against `reference`
/// every repetition, and snapshots the pager counters into the row.
SweepRow MeasureStore(const std::string& name, size_t budget,
                      CountingContext* context, size_t threads,
                      const std::vector<Itemset>& sample,
                      const TidListStore& store,
                      const std::vector<uint64_t>& reference) {
  constexpr int kReps = 5;
  SweepRow row;
  row.name = name;
  row.budget_bytes = budget;
  row.threads = threads;
  {
    telemetry::ScopedTimer timer;
    for (int rep = 0; rep < kReps; ++rep) {
      CheckEqual(context->Ecut(sample, store, /*use_pair_lists=*/false),
                 reference, name.c_str());
    }
    row.ecut_ms = timer.Stop() * 1e3 / kReps;
  }
  {
    telemetry::ScopedTimer timer;
    for (int rep = 0; rep < kReps; ++rep) {
      CheckEqual(context->Ecut(sample, store, /*use_pair_lists=*/true),
                 reference, name.c_str());
    }
    row.ecutplus_ms = timer.Stop() * 1e3 / kReps;
  }
  if (store.pager() != nullptr) {
    const ExtentPager& pager = *store.pager();
    row.peak_resident_bytes = pager.peak_resident_bytes();
    row.final_resident_bytes = pager.resident_bytes();
    row.page_ins = pager.page_ins();
    row.evictions = pager.evictions();
    row.spills = pager.spills();
  }
  return row;
}

void Run() {
  constexpr size_t kNumBlocks = 8;
  const size_t per_block = bench::Scaled(200000, 3000);
  QuestParams params = bench::PaperQuestParams(per_block, 11);
  std::vector<std::shared_ptr<const TransactionBlock>> blocks;
  for (size_t b = 0; b < kNumBlocks; ++b) {
    QuestParams p = params;
    p.seed = params.seed + b;
    QuestGenerator gen(p);
    blocks.push_back(bench::MakeSharedBlock(gen.GenerateAll()));
  }

  const double minsup = 0.008;
  const ItemsetModel model = Apriori(blocks, minsup, params.num_items);
  PairMaterializationSpec spec;
  spec.pairs = model.Frequent2ItemsetsBySupport();

  // Negative-border itemsets are what the monitors re-count every block:
  // ECUT+ covers the size >= 3 ones with materialized pair lists.
  std::vector<Itemset> sample;
  for (Itemset& itemset : model.NegativeBorder()) {
    if (itemset.size() >= 2) sample.push_back(std::move(itemset));
  }
  Rng rng(17);
  rng.Shuffle(&sample);
  if (sample.size() > 60) sample.resize(60);

  // The unbounded store fixes the footprint the budgets are quoted
  // against, and supplies the encoding census.
  TidListStore unbounded = BuildStore(0, blocks, params.num_items, spec);
  const size_t footprint = unbounded.TotalPayloadBytes();
  size_t largest = 0;
  size_t census[kNumTidEncodings] = {};
  for (const auto& block : unbounded.blocks()) {
    if (block->payload_bytes() > largest) largest = block->payload_bytes();
    for (size_t e = 0; e < kNumTidEncodings; ++e) {
      census[e] += block->EncodingCensus(static_cast<TidEncoding>(e));
    }
  }

  CountingContext sequential;
  const auto reference = sequential.PtScan(sample, blocks);
  CheckEqual(sequential.Ecut(sample, unbounded, false), reference, "ecut");
  CheckEqual(sequential.Ecut(sample, unbounded, true), reference, "ecut+");

  // Overcommit >= 4x at the smallest budget is the acceptance bar for the
  // sweep; the budget still fits the largest single block, so a lone
  // sequential shard can always get back under the target.
  const size_t smallest = footprint / 8 > largest ? footprint / 8 : largest;
  DEMON_CHECK_MSG(footprint >= 4 * smallest,
                  "footprint must overcommit the smallest budget 4x");

  bench::PrintHeader(
      "TID-list budget sweep (" + std::to_string(kNumBlocks) + " blocks x " +
      params.ToString() + ", minsup 0.008, " + std::to_string(sample.size()) +
      " border itemsets)");
  std::printf("footprint %zu bytes, largest block %zu bytes, census "
              "raw/delta = %zu/%zu\n",
              footprint, largest, census[0], census[1]);
  std::printf("%-22s %12s %8s %10s %10s %12s %9s %9s %7s\n", "config",
              "budget", "threads", "ecut(ms)", "ecut+(ms)", "peak", "pageins",
              "evicts", "spills");

  std::vector<SweepRow> rows;
  rows.push_back(MeasureStore("unbounded", 0, &sequential, 1, sample,
                              unbounded, reference));
  for (const size_t budget : {footprint / 2, footprint / 4, smallest}) {
    const TidListStore store =
        BuildStore(budget, blocks, params.num_items, spec);
    rows.push_back(MeasureStore(
        "budget_1_" + std::to_string((footprint + budget - 1) / budget),
        budget, &sequential, 1, sample, store, reference));
    // A quiesced sequential run ends at the target and peaks at most one
    // pinned block above it.
    DEMON_CHECK(rows.back().final_resident_bytes <= budget);
    DEMON_CHECK(rows.back().peak_resident_bytes <= budget + largest);
  }
  DEMON_CHECK_MSG(rows.back().page_ins > 0 && rows.back().evictions > 0 &&
                      rows.back().spills > 0,
                  "smallest budget must exercise the paging paths");

  // Threaded rerun at the smallest budget: counts stay bit-identical while
  // up to one block per shard is pinned concurrently.
  {
    constexpr size_t kThreads = 4;
    ThreadPool pool(kThreads);
    CountingContext threaded(&pool);
    const TidListStore store =
        BuildStore(smallest, blocks, params.num_items, spec);
    rows.push_back(MeasureStore("smallest_threads4", smallest, &threaded,
                                kThreads, sample, store, reference));
    DEMON_CHECK(rows.back().peak_resident_bytes <=
                smallest + kThreads * largest);
  }

  for (const SweepRow& r : rows) {
    std::printf("%-22s %12zu %8zu %10.2f %10.2f %12zu %9llu %9llu %7llu\n",
                r.name.c_str(), r.budget_bytes, r.threads, r.ecut_ms,
                r.ecutplus_ms, r.peak_resident_bytes,
                static_cast<unsigned long long>(r.page_ins),
                static_cast<unsigned long long>(r.evictions),
                static_cast<unsigned long long>(r.spills));
  }
  std::printf("shape check: counts identical at every budget; paging cost "
              "grows as the budget shrinks\n");
}

}  // namespace
}  // namespace demon

int main() {
  demon::Run();
  return 0;
}
