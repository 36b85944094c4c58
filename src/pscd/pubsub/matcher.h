// Content matching engine with access-predicate clustering (Fabret et
// al., SIGMOD 2001). A subscription, a conjunction of predicates, is
// posted in an inverted index under exactly one of its conjuncts, its
// access conjunct; a publish event scans the buckets of its attributes
// and tests the rest of each candidate's conjunction against the event.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "pscd/pubsub/attributes.h"
#include "pscd/pubsub/subscription.h"
#include "pscd/util/flat_map.h"
#include "pscd/util/types.h"

namespace pscd {

/// Result of matching one publish event.
struct MatchResult {
  /// Ids of all matching subscriptions, in index order (not id order).
  std::vector<SubscriptionId> subscriptions;
  /// Number of matching subscriptions per proxy, sorted by proxy id.
  /// This is exactly the f_S(p) / s factor the push-time strategies use.
  std::vector<std::pair<ProxyId, std::uint32_t>> proxyCounts;
};

class MatchingEngine {
 public:
  /// Registers a subscription, collapsing duplicate predicates, under
  /// its access conjunct: the one whose bucket is shortest now, ties
  /// going to the smallest (kind, value). Throws std::invalid_argument on
  /// an empty conjunction or an unknown kind, std::length_error on the
  /// 2^32-th subscription ever made or 2^29-th posting of one predicate.
  SubscriptionId addSubscription(Subscription sub);

  /// Removes a subscription and its posting at once; returns false if
  /// the id is unknown or already removed.
  bool removeSubscription(SubscriptionId id);

  /// Matches the attributes against all live subscriptions, refilling
  /// `out` in place so its capacity is reused.
  void match(const ContentAttributes& attrs, MatchResult& out) const;
  MatchResult match(const ContentAttributes& attrs) const {
    MatchResult out;
    match(attrs, out);
    return out;
  }

  /// Number of live subscriptions.
  std::size_t size() const { return liveCount_; }

  /// Validates the index: each posting's record points back at its
  /// bucket, list and position; a live subscription has one posting, a
  /// removed one none; the free slots are the empty buckets, none mapped;
  /// and the counters are right. Throws CheckFailure on any violation.
  void checkInvariants() const;

 private:
  friend class InvariantCorrupter;  // test-only state corruption hook

  /// A record position in 32 bits, so at most 2^32 subscriptions.
  using Posting = std::uint32_t;
  /// The posting of a single-conjunct subscription carries its proxy,
  /// so match() counts it without touching the record.
  struct Single { Posting id; ProxyId proxy; };
  /// One predicate's postings; `multi` ones need their record.
  struct Bucket {
    Predicate key;
    std::vector<Single> singles;
    std::vector<Posting> multi;
    std::size_t size() const { return singles.size() + multi.size(); }
  };
  /// One subscription in 16 bytes. `where` packs its posting's position
  /// (bits 3 and up), kSingle when it sits in `singles`, and the rest
  /// conjunct's Predicate::Kind; `rest` is that conjunct's value. With
  /// three or more conjuncts the kind is kPooled and pool_ holds them.
  struct Record {
    std::uint32_t slot = 0;  // bucket, kRemoved once removed
    std::uint32_t where = 0, rest = 0;
    ProxyId proxy = 0;
  };
  static_assert(sizeof(Record) == 16);
  static constexpr std::uint32_t kRemoved = 0xFFFFFFFFu;
  static constexpr std::uint32_t kPooled = 3, kSingle = 4, kPosShift = 3;
  static constexpr std::size_t kMaxPostings = std::size_t{1} << 29;

  /// nullptr when predicate `p` has no bucket.
  const std::uint32_t* slotOf(const Predicate& p) const {
    return slots_[static_cast<std::size_t>(p.kind)].find(p.value);
  }

  std::vector<Record> recs_;
  std::vector<Bucket> buckets_;
  /// Bucket slots by predicate kind, then value; free slots are empty.
  std::array<FlatMap<std::uint32_t>, 3> slots_;
  std::vector<std::uint32_t> freeSlots_;
  /// The conjuncts besides the access one, for kPooled subscriptions.
  std::unordered_map<Posting, std::vector<Predicate>> pool_;
  std::size_t liveCount_ = 0;
  // match()'s scratch: matches per proxy (zero between calls), buckets.
  mutable std::vector<std::uint32_t> proxyHits_;
  mutable std::vector<std::uint32_t> hitSlots_;
};

}  // namespace pscd
