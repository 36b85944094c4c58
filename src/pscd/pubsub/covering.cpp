#include "pscd/pubsub/covering.h"

#include <algorithm>

#include "pscd/util/hot.h"

namespace pscd {

namespace {
bool predicateLess(const Predicate& a, const Predicate& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  return a.value < b.value;
}
}  // namespace

std::vector<Predicate> normalizeConjuncts(std::vector<Predicate> conjuncts) {
  std::sort(conjuncts.begin(), conjuncts.end(), predicateLess);
  conjuncts.erase(std::unique(conjuncts.begin(), conjuncts.end()),
                  conjuncts.end());
  return conjuncts;
}

bool covers(const Subscription& a, const Subscription& b) {
  return coversNormalized(normalizeConjuncts(a.conjuncts),
                          normalizeConjuncts(b.conjuncts));
}

PSCD_HOT bool coversNormalized(const std::vector<Predicate>& na,
                               const std::vector<Predicate>& nb) {
  if (na.empty()) return false;  // empty matches nothing
  // a covers b iff a's constraints are a subset of b's.
  return std::includes(nb.begin(), nb.end(), na.begin(), na.end(),
                       predicateLess);
}

PSCD_HOT bool CoveringSet::add(Subscription sub) {
  // Normalize the newcomer once; members_ are canonical by construction,
  // so every pairwise test below is an allocation-free std::includes
  // (covers() would re-sort two fresh vectors per member).
  sub.conjuncts = normalizeConjuncts(std::move(sub.conjuncts));
  for (const Subscription& m : members_) {
    if (coversNormalized(m.conjuncts, sub.conjuncts)) return false;
  }
  // The newcomer may cover existing members: drop them.
  std::erase_if(members_, [&](const Subscription& m) {
    return coversNormalized(sub.conjuncts, m.conjuncts);
  });
  members_.push_back(std::move(sub));
  return true;
}

PSCD_HOT bool CoveringSet::isCovered(const Subscription& sub) const {
  // One normalization of the probe, then allocation-free member tests.
  const auto nsub = normalizeConjuncts(sub.conjuncts);
  return std::any_of(members_.begin(), members_.end(),
                     [&](const Subscription& m) {
                       return coversNormalized(m.conjuncts, nsub);
                     });
}

PSCD_HOT bool CoveringSet::matches(const ContentAttributes& attrs) const {
  return std::any_of(members_.begin(), members_.end(),
                     [&](const Subscription& m) { return m.matches(attrs); });
}

}  // namespace pscd
