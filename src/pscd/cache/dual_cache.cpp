#include "pscd/cache/dual_cache.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "pscd/util/check.h"

namespace pscd {

namespace {
Bytes pcBytesFor(double fraction, Bytes total) {
  return static_cast<Bytes>(fraction * static_cast<double>(total) + 0.5);
}
}  // namespace

DualCacheStrategy::DualCacheStrategy(Bytes capacity, double fetchCost,
                                     const DualCacheConfig& config)
    : config_(config),
      totalCapacity_(capacity),
      fetchCost_(fetchCost),
      pc_(pcBytesFor(config.initialPcFraction, capacity)),
      ac_(capacity - pcBytesFor(config.initialPcFraction, capacity)) {
  if (fetchCost <= 0 || config.beta <= 0) {
    throw std::invalid_argument("DualCacheStrategy: bad fetchCost/beta");
  }
  if (config.initialPcFraction < 0 || config.initialPcFraction > 1 ||
      config.minPcFraction < 0 || config.maxPcFraction > 1 ||
      config.minPcFraction > config.maxPcFraction) {
    throw std::invalid_argument("DualCacheStrategy: bad fractions");
  }
  if (config.mode == PartitionMode::kLimitedAdaptive &&
      (config.initialPcFraction < config.minPcFraction ||
       config.initialPcFraction > config.maxPcFraction)) {
    throw std::invalid_argument(
        "DualCacheStrategy: initial fraction outside LAP bounds");
  }
}

bool DualCacheStrategy::acForceInsert(CacheEntry entry, SimTime now) {
  const auto evicted = ac_.evictFor(entry.size);
  if (!evicted) return false;
  if (!evicted->empty()) {
    inflation_ = evicted->back().value;
    lastAcReplacement_ = now;
  }
  ac_.insertNoEvict(entry,
                    gdStarValue(entry, fetchCost_, config_.beta, inflation_));
  return true;
}

bool DualCacheStrategy::pcInsert(const CacheEntry& entry) {
  const double v = subValue(entry, fetchCost_);
  if (const auto evicted = pc_.tryEvictLowerThan(v, entry.size)) {
    pc_.insertNoEvict(entry, v);
    return true;
  }
  return false;
}

bool DualCacheStrategy::claimFromAccessCache(Bytes size) {
  // LAP bound: PC capacity may grow at most to maxPcFraction of the
  // total. (AP is unbounded.)
  Bytes claimLimit = totalCapacity_ - pc_.capacity();
  if (config_.mode == PartitionMode::kLimitedAdaptive) {
    const Bytes maxPc = pcBytesFor(config_.maxPcFraction, totalCapacity_);
    claimLimit = maxPc > pc_.capacity() ? maxPc - pc_.capacity() : 0;
  }
  // Pages in AC not referenced since the last replacement in AC are
  // assumed less important than the incoming page; claim the least
  // valuable ones first. The claim set is computed up front so an
  // infeasible claim has no side effects.
  std::vector<PageId> claim;
  Bytes claimed = 0;
  ac_.forEachByValue([&](const ValueCache::StoredEntry& e) {
    if (pc_.free() + claimed >= size) return false;
    if (e.lastAccess <= lastAcReplacement_ &&
        claimed + e.size <= claimLimit) {
      claim.push_back(e.page);
      claimed += e.size;
    }
    return true;
  });
  if (pc_.free() + claimed < size) return false;
  for (const PageId page : claim) {
    const auto victim = ac_.erase(page);
    ac_.setCapacity(ac_.capacity() - victim->size);
    pc_.setCapacity(pc_.capacity() + victim->size);
  }
  return true;
}

bool DualCacheStrategy::shiftBudgetToAc(Bytes size) {
  if (config_.mode == PartitionMode::kFixed) return false;
  if (config_.mode == PartitionMode::kLimitedAdaptive) {
    const Bytes minPc = pcBytesFor(config_.minPcFraction, totalCapacity_);
    if (pc_.capacity() < minPc + size) return false;
  }
  if (pc_.capacity() < size) return false;
  pc_.setCapacity(pc_.capacity() - size);
  ac_.setCapacity(ac_.capacity() + size);
  return true;
}

PushOutcome DualCacheStrategy::onPush(const PushContext& ctx) {
  // A new version of a page already under access-time management stays
  // in AC and is refreshed there.
  if (ac_.contains(ctx.page)) {
    CacheEntry entry = *ac_.erase(ctx.page);
    entry.version = ctx.version;
    entry.size = ctx.size;
    entry.subCount = ctx.subCount;
    return {acForceInsert(entry, ctx.now)};
  }
  CacheEntry entry;
  if (const auto prior = pc_.erase(ctx.page)) entry = *prior;
  entry.page = ctx.page;
  entry.version = ctx.version;
  entry.size = ctx.size;
  entry.subCount = ctx.subCount;
  if (pcInsert(entry)) return {true};
  // "Placing in DC-AP": claim idle AC storage for the push cache.
  if (config_.mode != PartitionMode::kFixed &&
      claimFromAccessCache(ctx.size)) {
    pc_.insertNoEvict(entry, subValue(entry, fetchCost_));
    return {true};
  }
  return {false};
}

RequestOutcome DualCacheStrategy::onRequest(const RequestContext& ctx) {
  RequestOutcome out;

  if (const auto* inPc = pc_.find(ctx.page)) {
    if (inPc->version == ctx.latestVersion) {
      // First access of a pushed page: henceforth evaluate it by access
      // pattern. AP/LAP relabel the storage (budget shift); FP (or a
      // bound violation) moves the page, possibly evicting in AC.
      out.hit = true;
      CacheEntry entry = *pc_.erase(ctx.page);
      ++entry.accessCount;
      entry.lastAccess = ctx.now;
      if (shiftBudgetToAc(entry.size)) {
        ac_.insertNoEvict(
            entry, gdStarValue(entry, fetchCost_, config_.beta, inflation_));
      } else {
        acForceInsert(entry, ctx.now);  // page dropped if it cannot fit
      }
      return out;
    }
    // Stale pushed copy: miss; refetch and hand the fresh copy to the
    // access module (the user has now shown interest in it).
    out.stale = true;
    CacheEntry entry = *pc_.erase(ctx.page);
    entry.version = ctx.latestVersion;
    entry.size = ctx.size;
    ++entry.accessCount;
    entry.lastAccess = ctx.now;
    out.storedAfterMiss = acForceInsert(entry, ctx.now);
    return out;
  }

  if (const auto* inAc = ac_.find(ctx.page)) {
    if (inAc->version == ctx.latestVersion) {
      const auto& entry = ac_.recordAccess(ctx.page, ctx.now);
      ac_.updateValue(ctx.page, gdStarValue(entry, fetchCost_, config_.beta,
                                            inflation_));
      out.hit = true;
      return out;
    }
    out.stale = true;
    CacheEntry entry = *ac_.erase(ctx.page);
    entry.version = ctx.latestVersion;
    entry.size = ctx.size;
    ++entry.accessCount;
    entry.lastAccess = ctx.now;
    out.storedAfterMiss = acForceInsert(entry, ctx.now);
    return out;
  }

  // Cold miss: classic GD* placement in AC.
  CacheEntry entry;
  entry.page = ctx.page;
  entry.version = ctx.latestVersion;
  entry.size = ctx.size;
  entry.subCount = ctx.subCount;
  entry.accessCount = 1;
  entry.lastAccess = ctx.now;
  out.storedAfterMiss = acForceInsert(entry, ctx.now);
  return out;
}

void DualCacheStrategy::checkInvariants() const {
  pc_.checkInvariants();
  ac_.checkInvariants();
  PSCD_CHECK_EQ(pc_.capacity() + ac_.capacity(), totalCapacity_)
      << "DualCacheStrategy: partition budgets do not sum to the total";
  if (config_.mode == PartitionMode::kFixed) {
    PSCD_CHECK_EQ(pc_.capacity(),
                  pcBytesFor(config_.initialPcFraction, totalCapacity_))
        << "DualCacheStrategy: fixed partition moved";
  }
  if (config_.mode == PartitionMode::kLimitedAdaptive) {
    PSCD_CHECK_GE(pc_.capacity(),
                  pcBytesFor(config_.minPcFraction, totalCapacity_))
        << "DualCacheStrategy: PC below the LAP lower bound";
    PSCD_CHECK_LE(pc_.capacity(),
                  pcBytesFor(config_.maxPcFraction, totalCapacity_))
        << "DualCacheStrategy: PC above the LAP upper bound";
  }
  PSCD_CHECK(std::isfinite(inflation_) && inflation_ >= 0.0)
      << "DualCacheStrategy: bad inflation value L";
  // A page must never be in both portions.
  pc_.forEach([&](const ValueCache::StoredEntry& e) {
    PSCD_CHECK(!ac_.contains(e.page))
        << "DualCacheStrategy: page " << e.page << " in both caches";
  });
}

}  // namespace pscd
