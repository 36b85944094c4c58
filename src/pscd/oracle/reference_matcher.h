// Deliberately naive reference model of the matching engine:
// subscriptions are stored verbatim and every publish event is matched
// by a brute-force scan calling Subscription::matches. No inverted
// index, no access conjuncts, no packed records — nothing that could
// share a bug with the production MatchingEngine.
// Differential tests drive both in lockstep (see oracle/lockstep.h).
#pragma once

#include <optional>
#include <vector>

#include "pscd/pubsub/matcher.h"
#include "pscd/pubsub/subscription.h"
#include "pscd/util/types.h"

namespace pscd {

class ReferenceMatcher {
 public:
  /// Same id assignment and empty-conjunction rejection as the
  /// production engine, so returned ids can be compared directly.
  SubscriptionId addSubscription(Subscription sub);

  /// Returns false if the id is unknown or already removed.
  bool removeSubscription(SubscriptionId id);

  /// Brute-force match; `subscriptions` comes back sorted by id.
  MatchResult match(const ContentAttributes& attrs) const;

  std::size_t size() const { return liveCount_; }

 private:
  std::vector<std::optional<Subscription>> subs_;  // nullopt = removed
  std::size_t liveCount_ = 0;
};

}  // namespace pscd
