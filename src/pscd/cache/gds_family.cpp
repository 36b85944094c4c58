#include "pscd/cache/gds_family.h"

#include <cmath>
#include <stdexcept>

#include "pscd/util/check.h"
#include "pscd/util/hot.h"

namespace pscd {

GdsFamilyConfig gdStarConfig(double beta) {
  GdsFamilyConfig c;
  c.freqMode = GdsFamilyConfig::FreqMode::kAccessOnly;
  c.beta = beta;
  c.displayName = "GD*";
  return c;
}

GdsFamilyConfig sg1Config(double beta) {
  GdsFamilyConfig c;
  c.freqMode = GdsFamilyConfig::FreqMode::kSubPlusAccess;
  c.pushEnabled = true;
  c.valueBasedAdmission = true;
  c.persistentAccessCounts = true;
  c.beta = beta;
  c.displayName = "SG1";
  return c;
}

GdsFamilyConfig sg2Config(double beta) {
  GdsFamilyConfig c;
  c.freqMode = GdsFamilyConfig::FreqMode::kSubMinusAccess;
  c.pushEnabled = true;
  c.valueBasedAdmission = true;
  c.persistentAccessCounts = true;
  c.beta = beta;
  c.displayName = "SG2";
  return c;
}

GdsFamilyConfig srConfig() {
  GdsFamilyConfig c;
  c.freqMode = GdsFamilyConfig::FreqMode::kSubMinusAccess;
  c.pushEnabled = true;
  c.valueBasedAdmission = true;
  c.persistentAccessCounts = true;
  c.useInflation = false;
  c.beta = 1.0;
  c.displayName = "SR";
  return c;
}

GdsFamilyConfig gdsConfig() {
  GdsFamilyConfig c;
  c.freqMode = GdsFamilyConfig::FreqMode::kConstantOne;
  c.beta = 1.0;
  c.displayName = "GDS";
  return c;
}

GdsFamilyConfig lfuDaConfig() {
  GdsFamilyConfig c;
  c.freqMode = GdsFamilyConfig::FreqMode::kAccessOnly;
  c.beta = 1.0;
  c.useCost = false;
  c.useSize = false;
  c.displayName = "LFU-DA";
  return c;
}

GdsFamilyStrategy::GdsFamilyStrategy(Bytes capacity, double fetchCost,
                                     const GdsFamilyConfig& config)
    : config_(config), fetchCost_(fetchCost), cache_(capacity) {
  if (config.beta <= 0) {
    throw std::invalid_argument("GdsFamilyStrategy: beta must be > 0");
  }
  if (fetchCost <= 0) {
    throw std::invalid_argument("GdsFamilyStrategy: fetchCost must be > 0");
  }
}

PSCD_HOT double GdsFamilyStrategy::frequency(std::uint32_t subCount,
                                             std::uint32_t accessCount) const {
  using FreqMode = GdsFamilyConfig::FreqMode;
  switch (config_.freqMode) {
    case FreqMode::kAccessOnly:
      return accessCount;
    case FreqMode::kSubPlusAccess:
      return static_cast<double>(subCount) + accessCount;
    case FreqMode::kSubMinusAccess:
      return std::max(static_cast<double>(subCount) - accessCount, 0.0);
    case FreqMode::kConstantOne:
      return 1.0;
  }
  return 0.0;
}

PSCD_HOT double GdsFamilyStrategy::value(double frequency, Bytes size) const {
  double utility = frequency;
  if (config_.useCost) utility *= fetchCost_;
  if (config_.useSize) utility /= static_cast<double>(size);
  const double term = std::pow(std::max(utility, 0.0), 1.0 / config_.beta);
  return (config_.useInflation ? inflation_ : 0.0) + term;
}

PSCD_HOT std::uint32_t GdsFamilyStrategy::effectiveAccessCount(
    const CacheEntry& entry) const {
  if (!config_.persistentAccessCounts) return entry.accessCount;
  const std::uint32_t* count = accessHistory_.find(entry.page);
  return count == nullptr ? 0 : *count;
}

PSCD_HOT std::uint32_t GdsFamilyStrategy::noteAccess(PageId page) {
  return config_.persistentAccessCounts ? ++accessHistory_[page] : 0;
}

PSCD_HOT bool GdsFamilyStrategy::insert(const CacheEntry& entry,
                                        std::uint32_t accessCount) {
  // The frequency term is identical before and after eviction (only the
  // inflation offset inside value() moves), so it is computed once.
  const double freq = frequency(entry.subCount, accessCount);
  const double v = value(freq, entry.size);
  const auto evicted = config_.valueBasedAdmission
                           ? cache_.tryEvictLowerThan(v, entry.size)
                           : cache_.evictFor(entry.size);
  if (!evicted) return false;
  if (evicted->empty() || !config_.useInflation) {
    // L moves only on eviction, so the pre-eviction value stands.
    cache_.insertNoEvict(entry, v);
    return true;
  }
  // GD* pseudo-code: L ends up as the value of the page evicted last,
  // and the new page is valued with it (evict first, then
  // V(p) <- L + ...).
  inflation_ = evicted->back().value;
  cache_.insertNoEvict(entry, value(freq, entry.size));
  return true;
}

PSCD_HOT PushOutcome GdsFamilyStrategy::onPush(const PushContext& ctx) {
  if (!config_.pushEnabled) return {false};
  CacheEntry entry;
  if (const auto prior = cache_.erase(ctx.page)) {
    // A version update of a cached page: refresh content in place,
    // keeping the in-cache access history.
    entry = *prior;
  }
  entry.page = ctx.page;
  entry.version = ctx.version;
  entry.size = ctx.size;
  entry.subCount = ctx.subCount;
  return {insert(entry, effectiveAccessCount(entry))};
}

PSCD_HOT RequestOutcome GdsFamilyStrategy::onRequest(
    const RequestContext& ctx) {
  RequestOutcome out;
  // One probe of the history and one of the cache serve a hit.
  const std::uint32_t history = noteAccess(ctx.page);
  if (const auto* cached = cache_.find(ctx.page)) {
    if (cached->version == ctx.latestVersion) {
      // Hit: bump f(p) and re-evaluate with the current inflation value.
      const auto& entry = cache_.recordAccess(*cached, ctx.now);
      const std::uint32_t accesses =
          config_.persistentAccessCounts ? history : entry.accessCount;
      cache_.updateValue(
          entry, value(frequency(entry.subCount, accesses), entry.size));
      out.hit = true;
      return out;
    }
    out.stale = true;
  }
  // Miss (page absent or stale): fetch from the publisher, then evaluate
  // the fresh copy for placement. A stale copy is refreshed in place,
  // keeping its access history.
  CacheEntry entry;
  if (const auto prior = cache_.erase(ctx.page)) entry = *prior;
  entry.page = ctx.page;
  entry.version = ctx.latestVersion;
  entry.size = ctx.size;
  entry.subCount = ctx.subCount;
  ++entry.accessCount;
  entry.lastAccess = ctx.now;
  out.storedAfterMiss = insert(
      entry, config_.persistentAccessCounts ? history : entry.accessCount);
  return out;
}

void GdsFamilyStrategy::checkInvariants() const {
  cache_.checkInvariants();
  PSCD_CHECK(std::isfinite(inflation_) && inflation_ >= 0.0)
      << "GdsFamilyStrategy: bad inflation value L";
  if (!config_.persistentAccessCounts) {
    PSCD_CHECK(accessHistory_.empty())
        << "GdsFamilyStrategy: access history populated without "
           "persistentAccessCounts";
  }
}

}  // namespace pscd
