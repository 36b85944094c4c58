// The content-distribution strategy interface: every scheme in the paper
// (table 1) is a DistributionStrategy deployed at one proxy. The engine
// calls onPush() when the matching engine determines a newly published
// page matches local subscriptions (match-time placement opportunity)
// and onRequest() when a local user asks for a page (access-time
// placement opportunity).
#pragma once

#include <optional>

#include "pscd/util/types.h"

namespace pscd {

/// Match-time placement opportunity for one page at one proxy.
struct PushContext {
  PageId page = kInvalidPage;
  Version version = 0;
  Bytes size = 0;
  /// Number of end-user subscriptions at this proxy matching the page
  /// (always >= 1; proxies without matches are not notified).
  std::uint32_t subCount = 0;
  SimTime now = 0.0;
};

/// A user request arriving at the proxy.
struct RequestContext {
  PageId page = kInvalidPage;
  /// Version currently live at the publisher; a cached older version is
  /// stale and must not be served.
  Version latestVersion = 0;
  Bytes size = 0;
  /// Matching subscriptions at this proxy (0 if none), available because
  /// the proxy aggregates its users' subscriptions.
  std::uint32_t subCount = 0;
  SimTime now = 0.0;
};

struct PushOutcome {
  /// True when the proxy stored (or refreshed) the pushed page. Under
  /// Pushing-When-Necessary only stored pages are transferred.
  bool stored = false;
};

struct RequestOutcome {
  /// Fresh copy served from the local cache.
  bool hit = false;
  /// A stale version was cached at request time (diagnostic).
  bool stale = false;
  /// The page was cached after fetching it on a miss.
  bool storedAfterMiss = false;
};

/// Per-proxy content distribution strategy. Implementations own their
/// cache storage; the engine provides page sizes and subscription counts
/// through the contexts.
class DistributionStrategy {
 public:
  virtual ~DistributionStrategy() = default;

  DistributionStrategy(const DistributionStrategy&) = delete;
  DistributionStrategy& operator=(const DistributionStrategy&) = delete;

  /// False for access-time-only schemes (GD*, LRU, ...); the engine then
  /// sends no pushes and accounts no push traffic for this proxy.
  virtual bool pushCapable() const = 0;

  virtual PushOutcome onPush(const PushContext& ctx) = 0;

  virtual RequestOutcome onRequest(const RequestContext& ctx) = 0;

  /// Version of `page` currently cached at this proxy (std::nullopt
  /// when absent). Non-mutating — no recency or frequency bookkeeping
  /// is touched — so the failure layer can probe for a (possibly
  /// stale) copy to serve degraded when the publisher is unreachable.
  virtual std::optional<Version> cachedVersion(PageId page) const = 0;

  virtual Bytes usedBytes() const = 0;
  virtual Bytes capacityBytes() const = 0;

  /// Test hook: throws std::logic_error on any violated invariant.
  virtual void checkInvariants() const {}

 protected:
  DistributionStrategy() = default;
};

}  // namespace pscd
