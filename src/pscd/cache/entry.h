// Cached-page bookkeeping shared by all replacement strategies, and the
// two page values the paper's placement modules order by.
#pragma once

#include <cmath>

#include "pscd/util/types.h"

namespace pscd {

/// Metadata of one cached page at one proxy. The counters follow the
/// paper's In-Cache semantics: accessCount is discarded when the page is
/// evicted; subCount is the (static) number of end-user subscriptions at
/// this proxy matching the page.
struct CacheEntry {
  PageId page = kInvalidPage;
  Version version = 0;
  Bytes size = 0;
  std::uint32_t accessCount = 0;  // a: in-cache accesses
  std::uint32_t subCount = 0;     // s: matching subscriptions at the proxy
  SimTime lastAccess = 0.0;
};

/// SUB's push-time value (eq. 2): V(p) = s(p) * c(p) / size(p).
inline double subValue(const CacheEntry& e, double fetchCost) {
  return static_cast<double>(e.subCount) * fetchCost /
         static_cast<double>(e.size);
}

/// GD*'s access-time value (eq. 1 with f = a):
/// V(p) = L + (a(p) * c(p) / size(p))^(1/beta).
inline double gdStarValue(const CacheEntry& e, double fetchCost, double beta,
                          double inflation) {
  const double utility = static_cast<double>(e.accessCount) * fetchCost /
                         static_cast<double>(e.size);
  return inflation + std::pow(utility, 1.0 / beta);
}

}  // namespace pscd
