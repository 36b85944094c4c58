// Counting-based content matching engine (in the style of Fabret et al.,
// SIGMOD 2001): subscriptions are conjunctions of equality/containment
// predicates; an inverted index maps each predicate key to the
// subscriptions containing it, and a publish event matches a subscription
// when all of its conjuncts are satisfied.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "pscd/pubsub/attributes.h"
#include "pscd/pubsub/subscription.h"
#include "pscd/util/types.h"

namespace pscd {

/// Result of matching one publish event.
struct MatchResult {
  /// Ids of all matching subscriptions.
  std::vector<SubscriptionId> subscriptions;
  /// Number of matching subscriptions per proxy, sorted by proxy id.
  /// This is exactly the f_S(p) / s factor the push-time strategies use.
  std::vector<std::pair<ProxyId, std::uint32_t>> proxyCounts;
};

class MatchingEngine {
 public:
  /// Postings in the inverted index, split by the state of the
  /// subscription they belong to. Dead postings belong to removed
  /// subscriptions and stay until the next compaction.
  struct PostingCounts {
    std::size_t live = 0;
    std::size_t dead = 0;
  };

  /// Registers a subscription; duplicate predicates within one
  /// subscription are collapsed. Throws std::invalid_argument on an
  /// empty conjunction and std::length_error on the 2^32-th
  /// subscription ever made.
  SubscriptionId addSubscription(Subscription sub);

  /// Removes a subscription; returns false if the id is unknown. Once
  /// dead postings outnumber live ones, erases every dead posting in one
  /// pass over the index (amortized O(1) per removed posting).
  bool removeSubscription(SubscriptionId id);

  /// Matches the attributes against all live subscriptions.
  MatchResult match(const ContentAttributes& attrs) const;

  /// Number of live subscriptions.
  std::size_t size() const { return liveCount_; }

  PostingCounts postingCounts() const {
    return {livePostings_, deadPostings_};
  }

  /// Validates the inverted index against the registered subscriptions:
  /// every posting references a known subscription, postings are unique
  /// per key, a live subscription is referenced by exactly numConjuncts
  /// postings and a removed one by all or none of them, the live and
  /// posting counters match the records, and dead postings never
  /// outnumber live ones. Throws CheckFailure on any violation.
  void checkInvariants() const;

 private:
  friend class InvariantCorrupter;  // test-only state corruption hook

  /// One subscription in 16 bytes. `need` is its conjunct count, or'ed
  /// with kDead once removed, so a dead record can never reach
  /// hits == need. `stamp` and `hits` are match()'s per-publish counter:
  /// `hits` is valid only while `stamp` equals the current epoch.
  struct Record {
    ProxyId proxy = 0;
    std::uint32_t need = 0;
    std::uint32_t stamp = 0;
    std::uint32_t hits = 0;
  };
  static constexpr std::uint32_t kDead = 0x80000000u;
  /// A posting is a record position in 32 bits, half the size of a
  /// SubscriptionId, so addSubscription refuses a 2^32-th record.
  using Posting = std::uint32_t;

  static std::uint64_t key(Predicate::Kind kind, std::uint32_t value) {
    return (static_cast<std::uint64_t>(kind) << 32) | value;
  }

  void compact();

  // Mutable for the stamp/hits counters match() updates; match() never
  // changes a record's proxy or need.
  mutable std::vector<Record> recs_;
  std::unordered_map<std::uint64_t, std::vector<Posting>> index_;
  std::size_t liveCount_ = 0;
  std::size_t livePostings_ = 0;
  std::size_t deadPostings_ = 0;

  // Per-publish scratch, reused so steady-state matching does not
  // allocate beyond the result; mutable because match() is logically
  // const. Epoch 0 is never current, so fresh records start unstamped.
  mutable std::uint32_t epoch_ = 0;
  /// Matches per proxy id, all zero between calls.
  mutable std::vector<std::uint32_t> proxyHits_;
  mutable std::vector<Posting> matchScratch_;
  mutable std::vector<std::uint32_t> keywordScratch_;
};

}  // namespace pscd
