#include "pscd/pubsub/matcher.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "pscd/util/check.h"
#include "pscd/util/hot.h"

namespace pscd {

PSCD_HOT SubscriptionId MatchingEngine::addSubscription(Subscription sub) {
  if (sub.conjuncts.empty()) {
    throw std::invalid_argument("addSubscription: empty conjunction");
  }
  std::sort(sub.conjuncts.begin(), sub.conjuncts.end(),
            [](const Predicate& a, const Predicate& b) {
              return key(a.kind, a.value) < key(b.kind, b.value);
            });
  sub.conjuncts.erase(std::unique(sub.conjuncts.begin(), sub.conjuncts.end()),
                      sub.conjuncts.end());

  if (recs_.size() > std::numeric_limits<Posting>::max()) {
    throw std::length_error("addSubscription: 2^32 subscriptions made");
  }
  const auto id = static_cast<Posting>(recs_.size());
  const auto need = static_cast<std::uint32_t>(sub.conjuncts.size());
  recs_.push_back({sub.proxy, need, 0, 0});
  // Widened before the +1: proxy UINT32_MAX must not wrap to size 0.
  if (sub.proxy >= proxyHits_.size()) {
    proxyHits_.resize(std::size_t{sub.proxy} + 1);
  }
  for (const Predicate& p : sub.conjuncts) {
    // pscd-lint: allow(map-bracket-insert) find-or-create is the intent: a miss must create the empty postings list
    index_[key(p.kind, p.value)].push_back(id);
  }
  ++liveCount_;
  livePostings_ += need;
  return id;
}

bool MatchingEngine::removeSubscription(SubscriptionId id) {
  if (id >= recs_.size()) return false;
  Record& rec = recs_[id];
  if ((rec.need & kDead) != 0) return false;
  // The postings stay until compaction; kDead keeps match() from ever
  // counting them as a match.
  livePostings_ -= rec.need;
  deadPostings_ += rec.need;
  rec.need |= kDead;
  --liveCount_;
  if (deadPostings_ > livePostings_) compact();
  return true;
}

void MatchingEngine::compact() {
  // pscd-lint: allow(unordered-iter) each list is filtered on its own; the visit order is unobservable
  for (auto it = index_.begin(); it != index_.end();) {
    std::erase_if(it->second, [this](Posting id) {
      return (recs_[id].need & kDead) != 0;
    });
    it = it->second.empty() ? index_.erase(it) : std::next(it);
  }
  deadPostings_ = 0;
}

PSCD_HOT MatchResult MatchingEngine::match(
    const ContentAttributes& attrs) const {
  MatchResult result;
  if (recs_.empty()) return result;

  if (++epoch_ == 0) {
    // The epoch wrapped: clear every stamp so none equals a reused epoch.
    for (Record& rec : recs_) rec.stamp = 0;
    epoch_ = 1;
  }
  // Every posting goes through the same straight-line count: the id is
  // always written to `out`, which advances only on a match. The loop
  // state arrives by value, so no store through `out` or `proxyHits`
  // can alias it.
  const auto count = [](const std::vector<Posting>& list, Record* recs,
                        std::uint32_t epoch, std::uint32_t* proxyHits,
                        Posting* out, std::size_t n) {
    for (const Posting id : list) {
      Record& rec = recs[id];
      const std::uint32_t hits = (rec.stamp == epoch ? rec.hits : 0) + 1;
      rec.stamp = epoch;
      rec.hits = hits;
      const std::uint32_t matched = hits == rec.need ? 1 : 0;
      out[n] = id;
      n += matched;
      proxyHits[rec.proxy] += matched;
    }
    return n;
  };
  std::size_t n = 0;
  auto scan = [&](std::uint64_t k) {
    const auto it = index_.find(k);
    if (it == index_.end()) return;
    const std::vector<Posting>& list = it->second;
    // Each posting advances n by at most one.
    if (matchScratch_.size() < n + list.size()) {
      matchScratch_.resize(n + list.size());
    }
    n = count(list, recs_.data(), epoch_, proxyHits_.data(),
              matchScratch_.data(), n);
  };

  scan(key(Predicate::Kind::kPageIdEq, attrs.page));
  scan(key(Predicate::Kind::kCategoryEq, attrs.category));
  // Deduplicate the keyword list: a keyword occurring twice in the
  // attributes must not advance a subscription's conjunct counter twice.
  // keywordScratch_ is a reused member, so steady-state matching does
  // not allocate here.
  keywordScratch_.assign(attrs.keywords.begin(), attrs.keywords.end());
  std::sort(keywordScratch_.begin(), keywordScratch_.end());
  keywordScratch_.erase(
      std::unique(keywordScratch_.begin(), keywordScratch_.end()),
      keywordScratch_.end());
  for (const std::uint32_t kw : keywordScratch_) {
    scan(key(Predicate::Kind::kKeywordContains, kw));
  }
  if (n == 0) return result;

  result.subscriptions.assign(matchScratch_.begin(),
                              matchScratch_.begin() + n);
  // Sweeping the counters in proxy order yields sorted proxyCounts and
  // leaves every counter at zero for the next call.
  auto& pc = result.proxyCounts;
  pc.reserve(std::min(n, proxyHits_.size()));
  for (std::size_t p = 0; p < proxyHits_.size(); ++p) {
    if (proxyHits_[p] != 0) {
      pc.emplace_back(static_cast<ProxyId>(p), proxyHits_[p]);
      proxyHits_[p] = 0;
    }
  }
  return result;
}

void MatchingEngine::checkInvariants() const {
  // Count the postings per subscription while validating each postings
  // list (ids in range, no duplicate posting of one sub under one key).
  std::vector<std::uint32_t> postings(recs_.size(), 0);
  // pscd-lint: allow(unordered-iter) per-list assertions + commutative count
  for (const auto& [key, list] : index_) {
    PSCD_CHECK(!list.empty()) << "MatchingEngine: empty postings list";
    for (const Posting id : list) {
      PSCD_CHECK_LT(id, recs_.size())
          << "MatchingEngine: posting references unknown subscription";
      ++postings[id];
    }
    auto sorted = list;
    std::sort(sorted.begin(), sorted.end());
    PSCD_CHECK(std::adjacent_find(sorted.begin(), sorted.end()) ==
               sorted.end())
        << "MatchingEngine: duplicate posting under one key";
  }
  std::size_t live = 0;
  std::size_t livePostings = 0;
  std::size_t deadPostings = 0;
  for (SubscriptionId id = 0; id < recs_.size(); ++id) {
    const Record& rec = recs_[id];
    const std::uint32_t need = rec.need & ~kDead;
    PSCD_CHECK_GT(need, 0u)
        << "MatchingEngine: subscription " << id << " has no conjuncts";
    PSCD_CHECK_LT(rec.proxy, proxyHits_.size())
        << "MatchingEngine: no proxy counter for subscription " << id;
    PSCD_CHECK_LE(rec.stamp, epoch_)
        << "MatchingEngine: subscription " << id << " stamped ahead of the "
        << "epoch";
    if ((rec.need & kDead) == 0) {
      PSCD_CHECK_EQ(postings[id], need)
          << "MatchingEngine: posting count of subscription " << id
          << " disagrees with its conjunct count";
      ++live;
      livePostings += need;
    } else {
      // Compaction erases a removed subscription's postings all at once.
      PSCD_CHECK(postings[id] == 0 || postings[id] == need)
          << "MatchingEngine: removed subscription " << id << " owns "
          << postings[id] << " of its " << need << " postings";
      deadPostings += postings[id];
    }
  }
  PSCD_CHECK_EQ(live, liveCount_)
      << "MatchingEngine: live counter disagrees with the records";
  PSCD_CHECK_EQ(livePostings, livePostings_)
      << "MatchingEngine: live-posting counter disagrees with the index";
  PSCD_CHECK_EQ(deadPostings, deadPostings_)
      << "MatchingEngine: dead-posting counter disagrees with the index";
  PSCD_CHECK_LE(deadPostings_, livePostings_)
      << "MatchingEngine: compaction overdue";
  PSCD_CHECK(std::all_of(proxyHits_.begin(), proxyHits_.end(),
                         [](std::uint32_t c) { return c == 0; }))
      << "MatchingEngine: per-proxy counters not cleared after a match";
}

}  // namespace pscd
