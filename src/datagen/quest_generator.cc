#include "datagen/quest_generator.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/check.h"

namespace demon {

namespace {

// Formats counts the way the paper does: 2000000 -> "2M", 400000 -> "400K".
std::string FormatCount(size_t n) {
  if (n % 1000000 == 0 && n >= 1000000) {
    return std::to_string(n / 1000000) + "M";
  }
  if (n % 1000 == 0 && n >= 1000) {
    return std::to_string(n / 1000) + "K";
  }
  return std::to_string(n);
}

std::string FormatShort(double v) {
  if (v == std::floor(v)) return std::to_string(static_cast<long>(v));
  std::string s = std::to_string(v);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

}  // namespace

std::string QuestParams::ToString() const {
  std::string out = FormatCount(num_transactions);
  out += ".";
  out += FormatShort(avg_transaction_len) + "L.";
  out += std::to_string(num_items / 1000) + "I.";
  out += std::to_string(num_patterns / 1000) + "pats.";
  out += FormatShort(avg_pattern_len) + "plen";
  return out;
}

QuestGenerator::QuestGenerator(const QuestParams& params)
    : params_(params), rng_(params.seed) {
  DEMON_CHECK(params_.num_items >= 2);
  DEMON_CHECK(params_.num_patterns >= 1);
  DEMON_CHECK(params_.avg_pattern_len >= 1.0);
  DEMON_CHECK(params_.avg_transaction_len >= 1.0);

  patterns_.reserve(params_.num_patterns);
  corruption_.reserve(params_.num_patterns);
  std::vector<double> weights;
  weights.reserve(params_.num_patterns);

  for (size_t p = 0; p < params_.num_patterns; ++p) {
    // Pattern size: Poisson around the mean, at least one item.
    int size = rng_.NextPoisson(params_.avg_pattern_len - 1.0) + 1;
    size = std::min<int>(size, static_cast<int>(params_.num_items));

    std::unordered_set<Item> chosen;
    // An exponentially distributed fraction of items comes from the
    // previous pattern (AS94's correlation model).
    if (!patterns_.empty()) {
      double fraction = rng_.NextExponential(params_.correlation);
      fraction = std::min(fraction, 1.0);
      const auto& prev = patterns_.back();
      const int from_prev = std::min<int>(
          static_cast<int>(std::lround(fraction * size)),
          static_cast<int>(prev.size()));
      std::vector<Item> pool = prev;
      rng_.Shuffle(&pool);
      for (int i = 0; i < from_prev; ++i) chosen.insert(pool[i]);
    }
    while (static_cast<int>(chosen.size()) < size) {
      chosen.insert(static_cast<Item>(rng_.NextUint64(params_.num_items)));
    }
    std::vector<Item> pattern(chosen.begin(), chosen.end());
    std::sort(pattern.begin(), pattern.end());
    patterns_.push_back(std::move(pattern));

    weights.push_back(rng_.NextExponential(1.0));

    double c = rng_.NextGaussian(params_.corruption_mean,
                                 params_.corruption_sd);
    corruption_.push_back(std::clamp(c, 0.0, 0.99));
  }
  pattern_sampler_ = std::make_unique<AliasSampler>(weights);
}

Transaction QuestGenerator::NextTransaction() {
  // Transaction length: Poisson around the mean, at least 1.
  int target = rng_.NextPoisson(params_.avg_transaction_len - 1.0) + 1;
  target = std::min<int>(target, static_cast<int>(params_.num_items));

  std::vector<Item> items;
  items.reserve(target + 8);

  while (static_cast<int>(items.size()) < target) {
    std::vector<Item> picked;
    if (has_carry_over_) {
      picked = std::move(carry_over_);
      has_carry_over_ = false;
    } else {
      const size_t idx = pattern_sampler_->Sample(&rng_);
      const auto& pattern = patterns_[idx];
      const double c = corruption_[idx];
      // Corruption: repeatedly drop one random item while uniform < c.
      picked = pattern;
      while (picked.size() > 1 && rng_.NextDouble() < c) {
        const size_t drop = static_cast<size_t>(
            rng_.NextUint64(picked.size()));
        picked[drop] = picked.back();
        picked.pop_back();
      }
    }
    const int remaining = target - static_cast<int>(items.size());
    if (static_cast<int>(picked.size()) > remaining && !items.empty()) {
      // Does not fit: half the time force it in anyway, otherwise carry it
      // over to the next transaction (AS94 semantics).
      if (rng_.NextBernoulli(0.5)) {
        items.insert(items.end(), picked.begin(), picked.end());
      } else {
        carry_over_ = std::move(picked);
        has_carry_over_ = true;
      }
      break;
    }
    items.insert(items.end(), picked.begin(), picked.end());
  }
  if (items.empty()) {
    items.push_back(static_cast<Item>(rng_.NextUint64(params_.num_items)));
  }
  return Transaction(std::move(items));
}

TransactionBlock QuestGenerator::NextBlock(size_t n, Tid first_tid) {
  std::vector<Item> items;
  std::vector<uint32_t> ends;
  ends.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Transaction t = NextTransaction();
    items.insert(items.end(), t.items().begin(), t.items().end());
    ends.push_back(static_cast<uint32_t>(items.size()));
  }
  return TransactionBlock(std::move(items), std::move(ends), first_tid);
}

}  // namespace demon
