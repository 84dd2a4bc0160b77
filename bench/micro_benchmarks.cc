// Substrate micro-benchmarks (google-benchmark): TID-list intersection,
// prefix-tree counting, CF-tree insertion and Quest generation throughput.
// Not tied to a paper figure; used to sanity-check that the substrates
// behave as their asymptotics promise before interpreting Figures 2-10.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "clustering/cf_tree.h"
#include "common/random.h"
#include "datagen/cluster_generator.h"
#include "itemsets/hash_tree.h"
#include "itemsets/itemset_trie.h"
#include "tidlist/tidlist.h"

namespace demon {
namespace {

TidList MakeList(size_t n, uint32_t universe, uint64_t seed) {
  Rng rng(seed);
  std::vector<bool> taken(universe, false);
  TidList list;
  while (list.size() < n) {
    const uint32_t v = static_cast<uint32_t>(rng.NextUint64(universe));
    if (!taken[v]) {
      taken[v] = true;
      list.push_back(v);
    }
  }
  std::sort(list.begin(), list.end());
  return list;
}

void BM_TidListIntersectBalanced(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const TidList a = MakeList(n, static_cast<uint32_t>(n * 4), 1);
  const TidList b = MakeList(n, static_cast<uint32_t>(n * 4), 2);
  TidList out;
  for (auto _ : state) {
    IntersectInto(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_TidListIntersectBalanced)->Range(1 << 10, 1 << 18);

void BM_TidListIntersectSkewed(benchmark::State& state) {
  // 100:1 size ratio exercises the galloping path.
  const size_t n = static_cast<size_t>(state.range(0));
  const TidList small = MakeList(n / 100 + 1, static_cast<uint32_t>(n * 4), 3);
  const TidList large = MakeList(n, static_cast<uint32_t>(n * 4), 4);
  TidList out;
  for (auto _ : state) {
    IntersectInto(small, large, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_TidListIntersectSkewed)->Range(1 << 12, 1 << 18);

void BM_PrefixTreeCount(benchmark::State& state) {
  const size_t num_itemsets = static_cast<size_t>(state.range(0));
  QuestParams params;
  params.num_transactions = 2000;
  params.num_items = 1000;
  params.seed = 5;
  QuestGenerator gen(params);
  const TransactionBlock block = gen.GenerateAll();

  Rng rng(6);
  ItemsetTrie tree;
  for (size_t s = 0; s < num_itemsets; ++s) {
    Itemset itemset;
    const size_t size = 2 + rng.NextUint64(3);
    while (itemset.size() < size) {
      const Item item = static_cast<Item>(rng.NextUint64(1000));
      if (!std::binary_search(itemset.begin(), itemset.end(), item)) {
        itemset.insert(std::lower_bound(itemset.begin(), itemset.end(), item),
                       item);
      }
    }
    tree.Insert(itemset);
  }
  for (auto _ : state) {
    for (const TransactionView t : block) {
      tree.CountTransaction(t);
    }
  }
  state.SetItemsProcessed(state.iterations() * block.size());
}
BENCHMARK(BM_PrefixTreeCount)->Range(16, 4096);

void BM_HashTreeCount(benchmark::State& state) {
  // Same workload as BM_PrefixTreeCount with the [AMS+96] hash tree
  // (paper footnote 7) for a direct structure comparison.
  const size_t num_itemsets = static_cast<size_t>(state.range(0));
  QuestParams params;
  params.num_transactions = 2000;
  params.num_items = 1000;
  params.seed = 5;
  QuestGenerator gen(params);
  const TransactionBlock block = gen.GenerateAll();

  Rng rng(6);
  HashTree tree;
  for (size_t s = 0; s < num_itemsets; ++s) {
    Itemset itemset;
    const size_t size = 2 + rng.NextUint64(3);
    while (itemset.size() < size) {
      const Item item = static_cast<Item>(rng.NextUint64(1000));
      if (!std::binary_search(itemset.begin(), itemset.end(), item)) {
        itemset.insert(std::lower_bound(itemset.begin(), itemset.end(), item),
                       item);
      }
    }
    tree.Insert(itemset);
  }
  for (auto _ : state) {
    for (const TransactionView t : block) {
      tree.CountTransaction(t);
    }
  }
  state.SetItemsProcessed(state.iterations() * block.size());
}
BENCHMARK(BM_HashTreeCount)->Range(16, 4096);

void BM_CFTreeInsert(benchmark::State& state) {
  ClusterGenParams params;
  params.num_points = 20000;
  params.num_clusters = 50;
  params.dim = 5;
  params.seed = 7;
  ClusterGenerator gen(params);
  const PointBlock block = gen.GenerateAll();
  CFTreeOptions options;
  options.max_leaf_entries = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    CFTree tree(params.dim, options);
    tree.InsertBlock(block);
    benchmark::DoNotOptimize(tree.num_leaf_entries());
  }
  state.SetItemsProcessed(state.iterations() * block.size());
}
BENCHMARK(BM_CFTreeInsert)->Arg(512)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_QuestGenerate(benchmark::State& state) {
  QuestParams params = bench::PaperQuestParams(10000, 8);
  for (auto _ : state) {
    QuestGenerator gen(params);
    benchmark::DoNotOptimize(gen.GenerateAll().size());
  }
  state.SetItemsProcessed(state.iterations() * params.num_transactions);
}
BENCHMARK(BM_QuestGenerate)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace demon

BENCHMARK_MAIN();
