#include "itemsets/association_rules.h"

#include <algorithm>

#include "common/check.h"
#include "itemsets/candidate_generation.h"

namespace demon {

std::string AssociationRule::ToString() const {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), " (sup %.3f, conf %.3f, lift %.2f)",
                support, confidence, lift);
  return demon::ToString(antecedent) + " => " + demon::ToString(consequent) +
         buffer;
}

namespace {

Itemset Difference(const Itemset& from, const Itemset& remove) {
  Itemset out;
  out.reserve(from.size() - remove.size());
  std::set_difference(from.begin(), from.end(), remove.begin(), remove.end(),
                      std::back_inserter(out));
  return out;
}

void SortRules(std::vector<AssociationRule>* rules) {
  std::sort(rules->begin(), rules->end(),
            [](const AssociationRule& a, const AssociationRule& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              if (a.support != b.support) return a.support > b.support;
              if (a.antecedent != b.antecedent) {
                return ItemsetLess()(a.antecedent, b.antecedent);
              }
              return ItemsetLess()(a.consequent, b.consequent);
            });
}

}  // namespace

std::vector<AssociationRule> DeriveRulesFrom(const ItemsetModel& model,
                                             const Itemset& itemset,
                                             double min_confidence) {
  DEMON_CHECK(min_confidence > 0.0 && min_confidence <= 1.0);
  std::vector<AssociationRule> rules;
  if (itemset.size() < 2 || !model.IsFrequent(itemset)) return rules;
  const double itemset_support = model.SupportOf(itemset);

  // Grow consequents level-wise (ap-genrules): confidence of
  // (itemset \ Y) => Y is sup(itemset) / sup(itemset \ Y); enlarging Y
  // shrinks the antecedent, which can only raise sup(itemset \ Y) and
  // hence lower confidence — so failed consequents prune all their
  // supersets.
  std::vector<Itemset> consequents;
  for (Item item : itemset) consequents.push_back({item});

  while (!consequents.empty()) {
    std::vector<Itemset> surviving;
    for (const Itemset& consequent : consequents) {
      if (consequent.size() >= itemset.size()) continue;
      const Itemset antecedent = Difference(itemset, consequent);
      const double antecedent_support = model.SupportOf(antecedent);
      if (antecedent_support <= 0.0) continue;
      const double confidence = itemset_support / antecedent_support;
      if (confidence < min_confidence) continue;
      const double consequent_support = model.SupportOf(consequent);
      AssociationRule rule;
      rule.antecedent = antecedent;
      rule.consequent = consequent;
      rule.support = itemset_support;
      rule.confidence = confidence;
      rule.lift = consequent_support > 0.0 ? confidence / consequent_support
                                           : 0.0;
      rules.push_back(std::move(rule));
      surviving.push_back(consequent);
    }
    // Next level: join surviving consequents (all subsets must survive).
    ItemsetSet survivors(surviving.begin(), surviving.end());
    consequents = GenerateCandidates(
        std::move(surviving),
        [&survivors](const Itemset& s) { return survivors.count(s) > 0; });
  }
  SortRules(&rules);
  return rules;
}

std::vector<AssociationRule> DeriveRules(const ItemsetModel& model,
                                         double min_confidence) {
  std::vector<AssociationRule> rules;
  model.entries().ForEachFrequent(
      [&](const Itemset& itemset, ItemsetTrie::NodeId) {
        if (itemset.size() < 2) return;
        auto from_itemset = DeriveRulesFrom(model, itemset, min_confidence);
        rules.insert(rules.end(),
                     std::make_move_iterator(from_itemset.begin()),
                     std::make_move_iterator(from_itemset.end()));
      });
  SortRules(&rules);
  return rules;
}

}  // namespace demon
