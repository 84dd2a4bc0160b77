// Tests for the time-series telemetry layer: the MetricsTimeline ring,
// the alert-policy grammar and hysteresis, the TelemetryScraper's delta
// arithmetic and concurrency guarantees, and the JSONL / Chrome-trace
// exporters.

#include "common/telemetry_timeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry.h"

namespace demon::telemetry {
namespace {

TEST(MetricsTimelineTest, EvictsOldestWhenFull) {
  MetricsTimeline timeline(3);
  for (uint64_t seq = 0; seq < 5; ++seq) {
    TimelineSample sample;
    sample.seq = seq;
    timeline.Append(std::move(sample));
  }
  EXPECT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline.capacity(), 3u);
  EXPECT_EQ(timeline.dropped(), 2u);
  const auto samples = timeline.Samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].seq, 2u);
  EXPECT_EQ(samples[1].seq, 3u);
  EXPECT_EQ(samples[2].seq, 4u);
}

TEST(MetricsTimelineTest, ZeroCapacityClampsToOne) {
  MetricsTimeline timeline(0);
  EXPECT_EQ(timeline.capacity(), 1u);
  TimelineSample sample;
  sample.seq = 7;
  timeline.Append(std::move(sample));
  ASSERT_EQ(timeline.Samples().size(), 1u);
  EXPECT_EQ(timeline.Samples()[0].seq, 7u);
}

TEST(ParseAlertPolicyTest, ParsesEveryForm) {
  AlertPolicy policy;
  std::string error;

  ASSERT_TRUE(ParseAlertPolicy("evolution/uw/churn>0.3", &policy, &error));
  EXPECT_EQ(policy.metric, "evolution/uw/churn");
  EXPECT_EQ(policy.source, AlertPolicy::Source::kGauge);
  EXPECT_EQ(policy.op, AlertPolicy::Op::kGreaterThan);
  EXPECT_DOUBLE_EQ(policy.threshold, 0.3);
  EXPECT_EQ(policy.for_n_scrapes, 1);
  EXPECT_EQ(policy.name, "evolution/uw/churn>0.3");

  ASSERT_TRUE(ParseAlertPolicy("counter:tidlist/page_ins>1000:3", &policy,
                               &error));
  EXPECT_EQ(policy.metric, "tidlist/page_ins");
  EXPECT_EQ(policy.source, AlertPolicy::Source::kCounter);
  EXPECT_EQ(policy.for_n_scrapes, 3);

  ASSERT_TRUE(ParseAlertPolicy("delta:counting/slots_fetched>5e3", &policy,
                               &error));
  EXPECT_EQ(policy.source, AlertPolicy::Source::kCounterDelta);
  EXPECT_DOUBLE_EQ(policy.threshold, 5000.0);

  ASSERT_TRUE(ParseAlertPolicy("histcount:borders/update_seconds<2", &policy,
                               &error));
  EXPECT_EQ(policy.source, AlertPolicy::Source::kHistogramCount);
  EXPECT_EQ(policy.op, AlertPolicy::Op::kLessThan);
}

TEST(ParseAlertPolicyTest, RejectsMalformedSpecs) {
  AlertPolicy policy;
  std::string error;
  EXPECT_FALSE(ParseAlertPolicy("", &policy, &error));
  EXPECT_FALSE(ParseAlertPolicy("metriconly", &policy, &error));
  EXPECT_FALSE(ParseAlertPolicy(">1", &policy, &error));     // empty metric
  EXPECT_FALSE(ParseAlertPolicy("m>", &policy, &error));     // no threshold
  EXPECT_FALSE(ParseAlertPolicy("m>abc", &policy, &error));
  EXPECT_FALSE(ParseAlertPolicy("m>1:0", &policy, &error));  // n < 1
  EXPECT_FALSE(ParseAlertPolicy("m>1:x", &policy, &error));
  EXPECT_FALSE(error.empty());
}

TEST(TelemetryScraperTest, DeltasTrackPerPeriodActivity) {
  TelemetryRegistry registry;
  Counter* counter = registry.counter("test/ops");
  Histogram* histogram = registry.histogram("test/seconds");
  TelemetryScraper scraper({.registry = &registry});

  counter->Add(5);
  histogram->Record(1.0);
  const TimelineSample first = scraper.ScrapeNow();
  ASSERT_EQ(first.cumulative.counters.size(), 2u);  // alerts/fired, test/ops
  ASSERT_EQ(first.counter_deltas.size(), 2u);
  // First scrape deltas from zero.
  EXPECT_EQ(first.cumulative.counters[1].first, "test/ops");
  EXPECT_EQ(first.cumulative.counters[1].second, 5u);
  EXPECT_EQ(first.counter_deltas[1], 5u);
  ASSERT_EQ(first.histogram_deltas.size(), 1u);
  EXPECT_EQ(first.histogram_deltas[0].count, 1u);
  EXPECT_DOUBLE_EQ(first.histogram_deltas[0].sum, 1.0);

  counter->Add(3);
  histogram->Record(0.25);
  histogram->Record(0.25);
  const TimelineSample second = scraper.ScrapeNow();
  EXPECT_EQ(second.seq, 1u);
  EXPECT_EQ(second.cumulative.counters[1].second, 8u);
  EXPECT_EQ(second.counter_deltas[1], 3u);
  EXPECT_EQ(second.histogram_deltas[0].count, 2u);
  EXPECT_DOUBLE_EQ(second.histogram_deltas[0].sum, 0.5);

  // An idle period deltas to zero.
  const TimelineSample third = scraper.ScrapeNow();
  EXPECT_EQ(third.counter_deltas[1], 0u);
  EXPECT_EQ(third.histogram_deltas[0].count, 0u);
}

TEST(TelemetryScraperTest, MetricRegisteredBetweenScrapesDeltasFromFull) {
  TelemetryRegistry registry;
  TelemetryScraper scraper({.registry = &registry});
  scraper.ScrapeNow();
  registry.counter("late/arrivals")->Add(42);
  const TimelineSample sample = scraper.ScrapeNow();
  bool found = false;
  for (size_t i = 0; i < sample.cumulative.counters.size(); ++i) {
    if (sample.cumulative.counters[i].first == "late/arrivals") {
      found = true;
      EXPECT_EQ(sample.counter_deltas[i], 42u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(TelemetryScraperTest, AlertFiresAfterStreakAndLatches) {
  TelemetryRegistry registry;
  Gauge* gauge = registry.gauge("evolution/m/churn");
  TelemetryScraper scraper({.registry = &registry});
  AlertPolicy policy;
  std::string error;
  ASSERT_TRUE(ParseAlertPolicy("evolution/m/churn>0.5:2", &policy, &error));
  std::atomic<int> callbacks{0};
  scraper.AddPolicy(policy, [&](const AlertEvent&) { ++callbacks; });

  gauge->Set(0.1);
  scraper.ScrapeNow();  // healthy
  gauge->Set(0.9);
  scraper.ScrapeNow();  // violating, streak 1 of 2 — no alert yet
  EXPECT_EQ(callbacks.load(), 0);
  scraper.ScrapeNow();  // violating, streak 2 — fires
  EXPECT_EQ(callbacks.load(), 1);
  scraper.ScrapeNow();  // still violating — latched, no refire
  scraper.ScrapeNow();
  EXPECT_EQ(callbacks.load(), 1);

  gauge->Set(0.2);
  scraper.ScrapeNow();  // healthy scrape re-arms
  gauge->Set(0.9);
  scraper.ScrapeNow();
  scraper.ScrapeNow();  // second sustained breach fires again
  EXPECT_EQ(callbacks.load(), 2);

  EXPECT_EQ(registry.counter("alerts/fired")->value(), 2u);
  // Per-policy counters embed the verbatim spec string, which is allowed to
  // contain comparison/threshold characters.
  EXPECT_EQ(
      registry.counter("alerts/evolution/m/churn>0.5:2/fired")->value(),  // lint:allow(metric-name)
      2u);
  const auto alerts = scraper.Alerts();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].metric, "evolution/m/churn");
  EXPECT_DOUBLE_EQ(alerts[0].value, 0.9);
  EXPECT_DOUBLE_EQ(alerts[0].threshold, 0.5);
  EXPECT_EQ(alerts[0].seq, 2u);
}

TEST(TelemetryScraperTest, AlertSilentOnStationaryMetric) {
  TelemetryRegistry registry;
  Gauge* gauge = registry.gauge("evolution/m/churn");
  TelemetryScraper scraper({.registry = &registry});
  AlertPolicy policy;
  ASSERT_TRUE(ParseAlertPolicy("evolution/m/churn>0.5", &policy, nullptr));
  scraper.AddPolicy(policy);
  for (int i = 0; i < 20; ++i) {
    gauge->Set(0.3);  // stationary, below threshold
    scraper.ScrapeNow();
  }
  EXPECT_TRUE(scraper.Alerts().empty());
  EXPECT_EQ(registry.counter("alerts/fired")->value(), 0u);
}

TEST(TelemetryScraperTest, MissingMetricNeverViolates) {
  TelemetryRegistry registry;
  TelemetryScraper scraper({.registry = &registry});
  AlertPolicy policy;
  ASSERT_TRUE(ParseAlertPolicy("no/such/metric>0", &policy, nullptr));
  scraper.AddPolicy(policy);
  scraper.ScrapeNow();
  scraper.ScrapeNow();
  EXPECT_TRUE(scraper.Alerts().empty());
}

TEST(TelemetryScraperTest, CounterDeltaSourceSeesPerPeriodRate) {
  TelemetryRegistry registry;
  Counter* counter = registry.counter("test/ops");
  TelemetryScraper scraper({.registry = &registry});
  AlertPolicy policy;
  ASSERT_TRUE(ParseAlertPolicy("delta:test/ops>10", &policy, nullptr));
  scraper.AddPolicy(policy);

  counter->Add(8);
  scraper.ScrapeNow();  // delta 8 — healthy
  counter->Add(9);
  scraper.ScrapeNow();  // delta 9 — healthy (cumulative 17 would violate)
  EXPECT_TRUE(scraper.Alerts().empty());
  counter->Add(11);
  scraper.ScrapeNow();  // delta 11 — fires
  ASSERT_EQ(scraper.Alerts().size(), 1u);
  EXPECT_DOUBLE_EQ(scraper.Alerts()[0].value, 11.0);
}

// The scraper concurrency contract: a background scraper hammered by
// writer threads yields per-metric monotone samples, and a final
// post-quiesce scrape equals the exact totals the writers produced.
TEST(TelemetryScraperTest, ConcurrentScrapesAreMonotoneAndConverge) {
  TelemetryRegistry registry;
  Counter* counter = registry.counter("test/ops");
  Histogram* histogram = registry.histogram("test/seconds");
  TelemetryScraper scraper(
      {.registry = &registry, .period_seconds = 1e-4});
  scraper.Start();

  // Each round hammers until the background scraper has scraped twice
  // under way, however the host schedules the threads (on one loaded CPU
  // the writers can otherwise finish before the scraper first runs). Then
  // the writers are joined and a scrape is pinned at that quiescent point.
  constexpr int kThreads = 4;
  constexpr int kRounds = 4;
  constexpr uint64_t kMinOpsPerRound = 5000;
  constexpr uint64_t kConcurrentScrapes = 2;
  std::atomic<uint64_t> total{0};
  std::vector<uint64_t> round_totals;
  std::vector<TimelineSample> pinned;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> started{0};
    std::atomic<bool> scraped{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&] {
        started.fetch_add(1);
        uint64_t ops = 0;
        while (ops < kMinOpsPerRound || !scraped.load()) {
          counter->Increment();
          histogram->Record(0.001);
          ++ops;
        }
        total.fetch_add(ops);
      });
    }
    while (started.load() < kThreads) std::this_thread::yield();
    const uint64_t before = scraper.num_scrapes();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (scraper.num_scrapes() < before + kConcurrentScrapes &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    EXPECT_GE(scraper.num_scrapes(), before + kConcurrentScrapes);
    scraped.store(true);
    for (auto& writer : writers) writer.join();
    round_totals.push_back(total.load());
    pinned.push_back(scraper.ScrapeNow());
  }
  scraper.Stop();
  const TimelineSample final_sample = scraper.ScrapeNow();
  EXPECT_GT(scraper.num_scrapes(), 1u);

  // Monotone per metric across the retained window, never torn past the
  // true total.
  const uint64_t all_ops = total.load();
  uint64_t prev_ops = 0;
  uint64_t prev_hist = 0;
  for (const TimelineSample& sample : scraper.Samples()) {
    for (size_t i = 0; i < sample.cumulative.counters.size(); ++i) {
      if (sample.cumulative.counters[i].first != "test/ops") continue;
      const uint64_t ops = sample.cumulative.counters[i].second;
      EXPECT_GE(ops, prev_ops);
      EXPECT_LE(ops, all_ops);
      prev_ops = ops;
    }
    for (const auto& row : sample.cumulative.histograms) {
      EXPECT_GE(row.count, prev_hist);
      EXPECT_LE(row.count, all_ops);
      prev_hist = row.count;
    }
  }

  // A snapshot reads the buckets, then `sum`: one preempted between the
  // two reads mid-hammer sees any number of later records in `sum` alone.
  // Between rounds no record is in flight, so the pinned scrapes hold
  // whole records only: the exact count and the recorded mean.
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_EQ(pinned[round].cumulative.histograms.size(), 1u);
    const auto& row = pinned[round].cumulative.histograms[0];
    EXPECT_EQ(row.count, round_totals[round]);
    EXPECT_NEAR(row.sum / static_cast<double>(row.count), 0.001, 1e-5);
  }

  // Final scrape == quiesced totals, exactly.
  ASSERT_EQ(final_sample.cumulative.counters.size(), 2u);
  EXPECT_EQ(final_sample.cumulative.counters[1].first, "test/ops");
  EXPECT_EQ(final_sample.cumulative.counters[1].second, all_ops);
  ASSERT_EQ(final_sample.cumulative.histograms.size(), 1u);
  EXPECT_EQ(final_sample.cumulative.histograms[0].count, all_ops);
}

TEST(TelemetryScraperTest, StartAndStopAreIdempotent) {
  TelemetryRegistry registry;
  TelemetryScraper scraper({.registry = &registry, .period_seconds = 1e-3});
  scraper.Stop();  // never started — no-op
  scraper.Start();
  scraper.Start();  // already running — no-op
  scraper.Stop();
  scraper.Stop();
  // Restart works after a stop.
  scraper.Start();
  scraper.Stop();
}

TEST(TimelineJsonlTest, RendersOneObjectPerScrape) {
  TelemetryRegistry registry;
  registry.counter("test/ops")->Add(4);
  registry.gauge("test/depth")->Set(2.5);
  registry.histogram("test/seconds")->Record(0.5);
  TelemetryScraper scraper({.registry = &registry});
  scraper.ScrapeNow();
  registry.counter("test/ops")->Add(2);
  scraper.ScrapeNow();

  const std::string jsonl = TimelineJsonl(scraper.Samples());
  // Two lines, each a self-contained JSON object.
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
  EXPECT_NE(jsonl.find("{\"type\":\"scrape\",\"seq\":0,"), std::string::npos);
  EXPECT_NE(jsonl.find("{\"type\":\"scrape\",\"seq\":1,"), std::string::npos);
  // Counters render as [cumulative, delta].
  EXPECT_NE(jsonl.find("\"test/ops\":[4,4]"), std::string::npos);
  EXPECT_NE(jsonl.find("\"test/ops\":[6,2]"), std::string::npos);
  EXPECT_NE(jsonl.find("\"test/depth\":2.5"), std::string::npos);
  EXPECT_NE(jsonl.find("\"dcount\":1"), std::string::npos);
  EXPECT_NE(jsonl.find("\"dcount\":0"), std::string::npos);
}

TEST(MergedChromeTraceTest, EmitsCounterTracksNextToSpans) {
  TelemetryRegistry registry;
  registry.counter("test/ops")->Add(3);
  registry.gauge("test/depth")->Set(1.5);
  TelemetryScraper scraper({.registry = &registry});
  scraper.ScrapeNow();
  registry.counter("test/ops")->Add(2);
  scraper.ScrapeNow();

  const std::string trace =
      ChromeTraceJson(registry.CollectSpans(), scraper.Samples());
  EXPECT_EQ(trace.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_EQ(trace.substr(trace.size() - 4), "\n]}\n");
  // One counter event per (counter or gauge) per sample: 2 samples x
  // (alerts/fired + test/ops + test/depth).
  size_t counter_events = 0;
  for (size_t pos = trace.find("\"ph\":\"C\""); pos != std::string::npos;
       pos = trace.find("\"ph\":\"C\"", pos + 1)) {
    ++counter_events;
  }
  EXPECT_EQ(counter_events, 6u);
  // Counters chart the per-period delta: the second test/ops sample
  // charts 2, not the cumulative 5.
  EXPECT_NE(trace.find("\"name\":\"test/ops\""), std::string::npos);
  EXPECT_NE(trace.find("\"args\":{\"value\":2}"), std::string::npos);
  EXPECT_EQ(trace.find("\"args\":{\"value\":5}"), std::string::npos);
  // Gauges chart their value.
  EXPECT_NE(trace.find("\"args\":{\"value\":1.5}"), std::string::npos);
}

}  // namespace
}  // namespace demon::telemetry
