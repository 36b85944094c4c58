#include "pscd/pubsub/matcher.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "pscd/util/check.h"
#include "pscd/util/hot.h"

namespace pscd {

using Kind = Predicate::Kind;

PSCD_HOT SubscriptionId MatchingEngine::addSubscription(Subscription sub) {
  auto& conj = sub.conjuncts;
  std::ranges::sort(conj, {}, [](const Predicate& p) {
    return std::pair(p.kind, p.value);
  });
  if (conj.empty() || conj.back().kind > Kind::kKeywordContains) {
    throw std::invalid_argument("addSubscription: empty or bad conjunction");
  }
  conj.erase(std::unique(conj.begin(), conj.end()), conj.end());

  if (recs_.size() > std::numeric_limits<Posting>::max()) {
    throw std::length_error("addSubscription: 2^32 subscriptions made");
  }
  // The access conjunct: the shortest bucket, the first (smallest) of
  // equally short ones. A missing bucket is as short as it gets.
  std::size_t access = 0;
  std::size_t shortest = std::numeric_limits<std::size_t>::max();
  std::uint32_t slot = kRemoved;
  for (std::size_t i = 0; i < conj.size() && shortest != 0; ++i) {
    const std::uint32_t* at = slotOf(conj[i]);
    const std::size_t len = at == nullptr ? 0 : buckets_[*at].size();
    if (len < shortest) {
      shortest = len;
      access = i;
      slot = at == nullptr ? kRemoved : *at;
    }
  }
  if (slot == kRemoved) {
    if (freeSlots_.empty()) {
      freeSlots_.push_back(static_cast<std::uint32_t>(buckets_.size()));
      buckets_.emplace_back();
    }
    slot = freeSlots_.back();
    freeSlots_.pop_back();
    buckets_[slot].key = conj[access];
    slots_[static_cast<std::size_t>(conj[access].kind)][conj[access].value] =
        slot;
  } else if (shortest >= kMaxPostings) {
    throw std::length_error("addSubscription: 2^29 postings of one predicate");
  }
  Bucket& b = buckets_[slot];
  const auto id = static_cast<Posting>(recs_.size());
  Record rec{slot, 0, 0, sub.proxy};
  if (conj.size() == 1) {
    rec.where =
        (static_cast<std::uint32_t>(b.singles.size()) << kPosShift) | kSingle;
    b.singles.push_back({id, sub.proxy});
  } else {
    rec.where = static_cast<std::uint32_t>(b.multi.size()) << kPosShift;
    if (conj.size() == 2) {
      rec.where |= static_cast<std::uint32_t>(conj[1 - access].kind);
      rec.rest = conj[1 - access].value;
    } else {
      rec.where |= kPooled;
      conj.erase(conj.begin() + static_cast<std::ptrdiff_t>(access));
      pool_.emplace(id, std::move(conj));
    }
    b.multi.push_back(id);
  }
  recs_.push_back(rec);
  // Widened before the +1: proxy UINT32_MAX must not wrap to size 0.
  proxyHits_.resize(std::max(proxyHits_.size(), std::size_t{sub.proxy} + 1));
  ++liveCount_;
  return id;
}

bool MatchingEngine::removeSubscription(SubscriptionId id) {
  if (id >= recs_.size() || recs_[id].slot == kRemoved) return false;
  Record& rec = recs_[id];
  Bucket& b = buckets_[rec.slot];
  const std::uint32_t pos = rec.where >> kPosShift;
  // Move the list's last posting into the gap and fix its position.
  const auto unlink = [&](auto& list, auto idOf) {
    list[pos] = list.back();
    list.pop_back();
    if (pos == list.size()) return;
    Record& moved = recs_[idOf(list[pos])];
    moved.where = (pos << kPosShift) | (moved.where & (kSingle | kPooled));
  };
  if ((rec.where & kSingle) != 0) {
    unlink(b.singles, [](const Single& s) { return s.id; });
  } else {
    unlink(b.multi, [](Posting p) { return p; });
    if ((rec.where & kPooled) == kPooled) pool_.erase(Posting(id));
  }
  if (b.size() == 0) {
    slots_[static_cast<std::size_t>(b.key.kind)].erase(b.key.value);
    freeSlots_.push_back(rec.slot);
  }
  rec.slot = kRemoved;
  --liveCount_;
  return true;
}

PSCD_HOT void MatchingEngine::match(const ContentAttributes& attrs,
                                    MatchResult& out) const {
  out.subscriptions.clear();
  out.proxyCounts.clear();
  // Look the event's buckets up first, so the result is sized once; a
  // keyword listed twice finds one bucket, which is scanned once.
  hitSlots_.clear();
  const auto lookup = [&](Kind kind, std::uint32_t value) {
    const std::uint32_t* at = slotOf({kind, value});
    if (at == nullptr || std::ranges::count(hitSlots_, *at) != 0) return;
    hitSlots_.push_back(*at);
  };
  lookup(Kind::kPageIdEq, attrs.page);
  lookup(Kind::kCategoryEq, attrs.category);
  for (std::uint32_t k : attrs.keywords) lookup(Kind::kKeywordContains, k);
  std::size_t candidates = 0;
  for (std::uint32_t slot : hitSlots_) candidates += buckets_[slot].size();
  const auto restMatches = [&](Posting id, const Record& rec) {
    switch (static_cast<Kind>(rec.where & kPooled)) {
      case Kind::kPageIdEq: return attrs.page == rec.rest;
      case Kind::kCategoryEq: return attrs.category == rec.rest;
      case Kind::kKeywordContains:
        return std::ranges::count(attrs.keywords, rec.rest) != 0;
      default: {  // kPooled
        const auto ok = [&](const Predicate& p) { return p.matches(attrs); };
        return std::ranges::all_of(pool_.find(id)->second, ok);
      }
    }
  };
  out.subscriptions.resize(candidates);
  SubscriptionId* ids = out.subscriptions.data();
  std::uint32_t* hits = proxyHits_.data();
  std::size_t n = 0;
  for (const std::uint32_t slot : hitSlots_) {
    const Bucket& b = buckets_[slot];
    for (const Single& s : b.singles) {
      ids[n++] = s.id;
      ++hits[s.proxy];
    }
    // The id is always written; n advances only on a match.
    for (const Posting id : b.multi) {
      const Record& rec = recs_[id];
      const std::uint32_t matched = restMatches(id, rec) ? 1 : 0;
      ids[n] = id;
      n += matched;
      hits[rec.proxy] += matched;
    }
  }
  out.subscriptions.resize(n);
  if (n == 0) return;
  // Sweeping the counters in proxy order yields sorted proxyCounts and
  // leaves every counter at zero for the next call.
  auto& pc = out.proxyCounts;
  pc.reserve(std::min(n, proxyHits_.size()));
  for (std::size_t p = 0; p < proxyHits_.size(); ++p) {
    if (proxyHits_[p] != 0) {
      pc.emplace_back(static_cast<ProxyId>(p), proxyHits_[p]);
      proxyHits_[p] = 0;
    }
  }
}

void MatchingEngine::checkInvariants() const {
  // Each live record finds its own posting at its bucket, list and
  // position; with as many postings as live records, there is no other.
  std::size_t live = 0, pooled = 0, postings = 0;
  for (Posting id = 0; id < recs_.size(); ++id) {
    const Record& r = recs_[id];
    if (r.slot == kRemoved) continue;
    const std::uint32_t pos = r.where >> kPosShift;
    const Bucket* b = r.slot < buckets_.size() ? &buckets_[r.slot] : nullptr;
    PSCD_CHECK(b != nullptr && r.proxy < proxyHits_.size() &&
               ((r.where & kSingle) != 0
                    ? pos < b->singles.size() && b->singles[pos].id == id &&
                          b->singles[pos].proxy == r.proxy
                    : pos < b->multi.size() && b->multi[pos] == id))
        << "MatchingEngine: misplaced posting of subscription " << id
        << ", or no counter for its proxy";
    ++live;
    pooled += (r.where & (kSingle | kPooled)) == kPooled && pool_.contains(id);
  }
  std::vector<std::uint32_t> empty;
  for (std::uint32_t slot = 0; slot < buckets_.size(); ++slot) {
    const Bucket& b = buckets_[slot];
    const std::uint32_t* at = slotOf(b.key);
    postings += b.size();
    if (b.size() == 0) empty.push_back(slot);
    PSCD_CHECK(b.size() == 0 || (at != nullptr && *at == slot))
        << "MatchingEngine: bucket " << slot << " not mapped to its key";
  }
  PSCD_CHECK_EQ(postings, live)
      << "MatchingEngine: want one posting per live subscription";
  std::vector<std::uint32_t> freed = freeSlots_;
  std::sort(freed.begin(), freed.end());
  const std::size_t mapped =
      slots_[0].size() + slots_[1].size() + slots_[2].size();
  PSCD_CHECK(freed == empty && mapped + empty.size() == buckets_.size())
      << "MatchingEngine: free slots and empty buckets disagree";
  PSCD_CHECK(live == liveCount_ && pooled == pool_.size())
      << "MatchingEngine: live counter or pool disagrees with the records";
  PSCD_CHECK(std::all_of(proxyHits_.begin(), proxyHits_.end(),
                         [](std::uint32_t c) { return c == 0; }))
      << "MatchingEngine: per-proxy counters not cleared after a match";
}

}  // namespace pscd
