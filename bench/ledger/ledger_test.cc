#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "bench/ledger/ledger.h"
#include "bench/ledger/workloads.h"
#include "itemsets/apriori.h"

namespace demon::ledger {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;
}

TEST(QuantileTest, RefusesP90WithFewerThanTenSamplesBeyondIt) {
  EXPECT_FALSE(Quantile(Ramp(99), 0.9).has_value());
  ASSERT_TRUE(Quantile(Ramp(100), 0.9).has_value());
  EXPECT_EQ(*Quantile(Ramp(100), 0.9), 90.0);
  EXPECT_FALSE(Quantile(Ramp(19), 0.5).has_value());
  EXPECT_EQ(*Quantile(Ramp(20), 0.5), 10.0);
  EXPECT_FALSE(Quantile({}, 0.5, 0).has_value());
  EXPECT_EQ(*Quantile({3, 1, 2}, 0.5, 0), 2.0);
}

/// A simulated clock: sleeping jumps to the due time, and each call takes
/// `service_ns[k]`.
struct FakeServer {
  uint64_t now = 0;
  std::vector<uint64_t> service_ns;

  OpenLoopClock Clock() {
    return {[this] { return now; },
            [this](uint64_t t) { now = std::max(now, t); }};
  }
  std::function<bool(size_t)> Call() {
    return [this](size_t k) {
      now += service_ns[k];
      return true;
    };
  }
};

TEST(OpenLoopTest, LatencyCountsFromTheDueTime) {
  FakeServer server;
  server.service_ns = {100, 100, 100};
  const std::vector<uint64_t> due = {1000, 2000, 3000};
  const auto timings = RunOpenLoop(due, server.Clock(), server.Call());
  ASSERT_EQ(timings.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(timings[k].sent_ns, due[k]);
    EXPECT_DOUBLE_EQ(timings[k].LatencySeconds(), 100e-9);
    EXPECT_DOUBLE_EQ(timings[k].LatenessSeconds(), 0.0);
  }
}

TEST(OpenLoopTest, StalledReplyInflatesTheRequestsQueuedBehindIt) {
  FakeServer server;
  // Requests every 1000 ns; the second reply stalls for 3500 ns.
  server.service_ns = {100, 3500, 100, 100, 100};
  const std::vector<uint64_t> due = {0, 1000, 2000, 3000, 4000};
  const auto timings = RunOpenLoop(due, server.Clock(), server.Call());
  // Request 2 could only be sent at 4500 and finished at 4600.
  EXPECT_EQ(timings[2].sent_ns, 4500u);
  EXPECT_DOUBLE_EQ(timings[2].LatencySeconds(), 2600e-9);
  EXPECT_DOUBLE_EQ(timings[2].LatenessSeconds(), 2500e-9);
  EXPECT_DOUBLE_EQ(timings[3].LatencySeconds(), 1700e-9);
  EXPECT_DOUBLE_EQ(timings[4].LatencySeconds(), 800e-9);
  // Timed from the send instead, every one of them would look like 100 ns.
  for (size_t k = 2; k < 5; ++k) {
    EXPECT_EQ(timings[k].done_ns - timings[k].sent_ns, 100u);
  }
}

TEST(ModelLagTest, CountsFromTheBlocksLastRecordToTheCoveringReply) {
  // Blocks of 4 records, batches of 2: block 1 ends with batch 1, block 2
  // with batch 3. Block 0 is the initial mine and is left out.
  const std::vector<BatchReply> batches = {
      {2, 100, 110, 0},     {4, 200, 210, 0},    {6, 300, 310, 4},
      {8, 400, 410, 4},     {10, 500, 510, 8},   {12, 600, 610, 12}};
  const std::vector<double> lags = ModelLagSeconds(batches, 4);
  ASSERT_EQ(lags.size(), 2u);
  EXPECT_DOUBLE_EQ(lags[0], (510 - 400) * 1e-9);
  EXPECT_DOUBLE_EQ(lags[1], (610 - 600) * 1e-9);
}

ItemsetModel SmallModel() {
  std::vector<Transaction> transactions = {
      Transaction({1, 2, 3}), Transaction({1, 2}), Transaction({2, 3}),
      Transaction({1, 3}),    Transaction({1, 2, 3})};
  const auto block =
      std::make_shared<const TransactionBlock>(std::move(transactions), 0);
  return Apriori({block}, 0.5, 4);
}

TEST(ModelCheckTest, CatchesAOneOffCountAndAFlippedFrequentFlag) {
  const ItemsetModel reference = SmallModel();
  const ModelDigest digest = Digest(reference);
  EXPECT_EQ(CompareToDigest(reference, digest), "");

  ItemsetModel off_by_one = reference;
  off_by_one.mutable_entries()->at({1, 2}).count += 1;
  EXPECT_NE(CompareToDigest(off_by_one, digest), "");

  ItemsetModel flipped = reference;
  auto& entry = flipped.mutable_entries()->at({1, 2});
  entry.frequent = !entry.frequent;
  EXPECT_NE(CompareToDigest(flipped, digest), "");

  ItemsetModel extra = reference;
  (*extra.mutable_entries())[{0, 1, 2, 3}] = ItemsetModel::Entry{0, false};
  EXPECT_NE(CompareToDigest(extra, digest), "");
}

TEST(MetricNameTest, EveryMetricNameAndUnitIsWellFormed) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const MetricDef& def : MetricTable()) {
    EXPECT_TRUE(std::regex_match(def.name, name_re)) << def.name;
    EXPECT_TRUE(std::regex_match(def.unit, unit_re)) << def.unit;
    EXPECT_TRUE(seen.insert(def.name).second) << "duplicate " << def.name;
  }
}

TEST(ResultLineTest, RoundTripsAndReportsMissingMetrics) {
  RunResult result;
  result.attempted = 12;
  result.failed = 1;
  for (const MetricDef& def : MetricTable()) {
    if (def.kind == MetricKind::kEndToEnd) result.metrics[def.name] = 0.125;
  }
  EXPECT_EQ(MissingMetrics(result, MetricKind::kEndToEnd), "");
  auto parsed = ParseResultJson(ResultJson(result));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().correct);
  EXPECT_EQ(parsed.value().attempted, 12u);
  EXPECT_EQ(parsed.value().failed, 1u);
  EXPECT_EQ(parsed.value().metrics, result.metrics);

  result.metrics.erase("setup_s");
  EXPECT_NE(MissingMetrics(result, MetricKind::kEndToEnd), "");
  EXPECT_FALSE(ParseResultJson(
                   "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
                   "\"metrics\": {\"setup_s\": {\"value\": 1, \"unit\": "
                   "\"ms\"}}}")
                   .ok());
}

TEST(ZeroLayersTest, CoversExactlyThePerLayerMetrics) {
  RunResult result;
  ZeroLayers(&result);
  EXPECT_EQ(MissingMetrics(result, MetricKind::kPerLayer), "");
}

std::string ReadBenchmarkJson() {
  std::ifstream in(LEDGER_BENCHMARK_JSON);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(BenchmarkJsonTest, DeclaresTheHarnessWorkloadsAndMetrics) {
  auto json = ParseJson(ReadBenchmarkJson());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const Json* workloads = json.value().Find("workloads");
  ASSERT_NE(workloads, nullptr);
  std::vector<std::string> names;
  for (const Json& w : workloads->array) {
    names.push_back(w.Find("name")->string);
  }
  EXPECT_EQ(names, WorkloadNames());

  for (const auto& [section, kind] :
       {std::pair<const char*, MetricKind>{"end_to_end", MetricKind::kEndToEnd},
        {"per_layer", MetricKind::kPerLayer}}) {
    const Json* declared = json.value().Find(section);
    ASSERT_NE(declared, nullptr) << section;
    std::vector<std::string> want;
    for (const MetricDef& def : MetricTable()) {
      if (def.kind == kind) want.push_back(def.name);
    }
    std::vector<std::string> got;
    for (const Json& metric : declared->array) {
      const std::string name = metric.Find("name")->string;
      got.push_back(name);
      const MetricDef* def = FindMetric(name);
      ASSERT_NE(def, nullptr) << name;
      EXPECT_EQ(metric.Find("unit")->string, def->unit) << name;
      EXPECT_EQ(metric.Find("better")->string,
                def->lower_is_better ? "lower" : "higher")
          << name;
      if (kind == MetricKind::kEndToEnd) {
        EXPECT_DOUBLE_EQ(metric.Find("bound")->number, def->bound) << name;
      }
    }
    EXPECT_EQ(got, want) << section;
  }
}

TEST(JsonTest, ParsesNestedValuesAndRejectsGarbage) {
  auto json = ParseJson(R"({"a": [1, -2.5e1, "x\"y"], "b": {"c": false},
                            "d": null, "e": true})");
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(json.value().Find("a")->array[1].number, -25.0);
  EXPECT_EQ(json.value().Find("a")->array[2].string, "x\"y");
  EXPECT_FALSE(json.value().Find("b")->Find("c")->boolean);
  EXPECT_TRUE(json.value().Find("e")->boolean);
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("[1, 2").ok());
  EXPECT_FALSE(ParseJson("{} x").ok());
}

}  // namespace
}  // namespace demon::ledger
