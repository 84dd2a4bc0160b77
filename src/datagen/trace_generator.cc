#include "datagen/trace_generator.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.h"

namespace demon {

namespace {

// Requests per hour in each regime (before rate_scale).
double RegimeRate(TraceGenerator::Regime regime) {
  switch (regime) {
    case TraceGenerator::Regime::kWorkdayDay:
      return 3200.0;
    case TraceGenerator::Regime::kWorkdayNoon:
      return 3600.0;
    case TraceGenerator::Regime::kEveningTueThu:
      return 1800.0;
    case TraceGenerator::Regime::kEveningOther:
      return 1500.0;
    case TraceGenerator::Regime::kNight:
      return 500.0;
    case TraceGenerator::Regime::kWeekend:
      return 900.0;
    case TraceGenerator::Regime::kAnomaly:
      return 2800.0;
  }
  return 0.0;
}

// Object-type mixing weights per regime. kNight intentionally equals
// kWeekend: the paper observes late-night weekday blocks similar to
// weekend blocks (§5.3).
const std::array<double, TraceGenerator::kNumObjectTypes>& RegimeTypeWeights(
    TraceGenerator::Regime regime) {
  using Regime = TraceGenerator::Regime;
  static const std::array<double, 10> kWorkday = {30, 25, 14, 9, 7, 5, 4, 3,
                                                  2, 1};
  static const std::array<double, 10> kNoon = {34, 24, 13, 9, 7, 5, 3, 3, 1,
                                               1};
  static const std::array<double, 10> kTueThu = {22, 20, 18, 14, 9, 6, 5, 3,
                                                 2, 1};
  static const std::array<double, 10> kOtherEve = {26, 22, 16, 11, 8, 6, 5,
                                                   3, 2, 1};
  static const std::array<double, 10> kWeekend = {12, 14, 10, 10, 16, 12, 10,
                                                  8, 5, 3};
  static const std::array<double, 10> kAnomaly = {4, 5, 6, 8, 10, 12, 14, 15,
                                                  13, 13};
  switch (regime) {
    case Regime::kWorkdayDay:
      return kWorkday;
    case Regime::kWorkdayNoon:
      return kNoon;
    case Regime::kEveningTueThu:
      return kTueThu;
    case Regime::kEveningOther:
      return kOtherEve;
    case Regime::kNight:
    case Regime::kWeekend:
      return kWeekend;
    case Regime::kAnomaly:
      return kAnomaly;
  }
  return kWorkday;
}

// Geometric success probability of the response-size distribution per
// regime; smaller p = heavier tail (bigger responses).
double RegimeSizeP(TraceGenerator::Regime regime) {
  using Regime = TraceGenerator::Regime;
  switch (regime) {
    case Regime::kWorkdayDay:
      return 0.20;
    case Regime::kWorkdayNoon:
      return 0.22;
    case Regime::kEveningTueThu:
      return 0.10;
    case Regime::kEveningOther:
      return 0.14;
    case Regime::kNight:
    case Regime::kWeekend:
      return 0.06;
    case Regime::kAnomaly:
      return 0.025;
  }
  return 0.2;
}

const char* kDayNames[7] = {"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"};

// Days in September 1996 covered by the trace start on the 2nd.
void HourToDate(int hour, int* month_day, int* hh) {
  const int day_index = hour / 24;  // 0 = Sep 2
  *month_day = 2 + day_index;       // trace ends Sep 22, stays in September
  *hh = hour % 24;
}

}  // namespace

TraceGenerator::TraceGenerator(const Params& params)
    : params_(params), rng_(params.seed) {
  DEMON_CHECK(params_.rate_scale > 0.0);
}

TraceGenerator::Regime TraceGenerator::RegimeAt(int hour) {
  const int day_index = hour / 24;  // 0 = Mon Sep 2
  const int dow = day_index % 7;    // 0 = Monday
  const int hh = hour % 24;

  if (day_index == 7) return Regime::kAnomaly;             // Mon 9-9.
  if (day_index == 0) return Regime::kWeekend;             // Labor Day 9-2.
  if (dow >= 5) return Regime::kWeekend;                   // Sat/Sun.
  // Working day.
  if (hh >= 8 && hh < 12) return Regime::kWorkdayDay;
  if (hh >= 12 && hh < 16) return Regime::kWorkdayNoon;
  const bool tue_thu = (dow == 1 || dow == 3);
  if (hh >= 16 && hh < 20) {
    return tue_thu ? Regime::kEveningTueThu : Regime::kEveningOther;
  }
  if (hh >= 20 && hh < 24) {
    return tue_thu ? Regime::kEveningTueThu : Regime::kNight;
  }
  return Regime::kNight;  // 0-8AM.
}

std::string TraceGenerator::IntervalLabel(int start_hour, int end_hour) {
  int day = 0;
  int hh = 0;
  HourToDate(start_hour, &day, &hh);
  const int dow = TraceGenerator::DayOfWeek(start_hour);
  int end_day = 0;
  int end_hh = 0;
  HourToDate(end_hour, &end_day, &end_hh);
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%s 09-%02d %02d:00-%02d:00",
                kDayNames[dow], day, hh, end_hh == 0 ? 24 : end_hh);
  return std::string(buffer);
}

std::vector<TraceRequest> TraceGenerator::Generate() {
  std::vector<TraceRequest> trace;
  for (int hour = kTraceStartHour; hour < kTraceEndHour; ++hour) {
    const Regime regime = RegimeAt(hour);
    const double rate = RegimeRate(regime) * params_.rate_scale;
    const int count = rng_.NextPoisson(rate);
    const auto& type_weights = RegimeTypeWeights(regime);
    AliasSampler type_sampler(
        std::vector<double>(type_weights.begin(), type_weights.end()));
    const double size_p = RegimeSizeP(regime);
    for (int i = 0; i < count; ++i) {
      TraceRequest request;
      request.timestamp =
          static_cast<int64_t>(hour) * 3600 +
          static_cast<int64_t>(rng_.NextUint64(3600));
      request.object_type =
          static_cast<uint32_t>(type_sampler.Sample(&rng_));
      // Geometric size bucket, capped at the bucket count.
      double u = 0.0;
      do {
        u = rng_.NextDouble();
      } while (u <= 1e-300);
      uint32_t bucket = static_cast<uint32_t>(
          std::floor(std::log(u) / std::log(1.0 - size_p)));
      request.size_bucket = std::min(bucket, kNumSizeBuckets - 1);
      trace.push_back(request);
    }
  }
  std::sort(trace.begin(), trace.end(),
            [](const TraceRequest& a, const TraceRequest& b) {
              return a.timestamp < b.timestamp;
            });
  return trace;
}

std::vector<TransactionBlock> SegmentTrace(
    const std::vector<TraceRequest>& trace, int granularity_hours,
    int start_hour) {
  DEMON_CHECK(granularity_hours > 0);
  std::vector<TransactionBlock> blocks;
  Tid next_tid = 0;
  size_t pos = 0;
  // Skip requests before the segmentation origin.
  const int64_t origin = static_cast<int64_t>(start_hour) * 3600;
  while (pos < trace.size() && trace[pos].timestamp < origin) ++pos;

  for (int hour = start_hour; hour < TraceGenerator::kTraceEndHour;
       hour += granularity_hours) {
    const int end_hour =
        std::min(hour + granularity_hours, TraceGenerator::kTraceEndHour);
    const int64_t end_time = static_cast<int64_t>(end_hour) * 3600;
    // Two items per request: its object type, then its size bucket
    // (numbered after the types, so each record is already sorted).
    std::vector<Item> items;
    std::vector<uint32_t> ends;
    while (pos < trace.size() && trace[pos].timestamp < end_time) {
      const TraceRequest& request = trace[pos];
      items.push_back(static_cast<Item>(request.object_type));
      items.push_back(static_cast<Item>(TraceGenerator::kNumObjectTypes +
                                        request.size_bucket));
      ends.push_back(static_cast<uint32_t>(items.size()));
      ++pos;
    }
    const size_t block_size = ends.size();
    TransactionBlock block(std::move(items), std::move(ends), next_tid);
    next_tid += block_size;
    block.mutable_info()->start_time = static_cast<int64_t>(hour) * 3600;
    block.mutable_info()->end_time = end_time;
    block.mutable_info()->label =
        TraceGenerator::IntervalLabel(hour, end_hour);
    blocks.push_back(std::move(block));
  }
  return blocks;
}

}  // namespace demon
