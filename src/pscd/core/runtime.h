// The narrow seam between decision logic (core) and whatever drives it:
// a Clock the service reads instead of event timestamps, and an
// EventSink it reports deliveries to instead of a metrics object. The
// discrete-event simulator implements both (sim/simulator.cpp advances
// a virtual clock and folds deliveries into SimMetrics); a wire daemon
// would implement them with the wall clock and a stats exporter. This
// is the layering manifest's load-bearing edge: core never includes
// sim, so the same DistributionService can sit behind either driver
// (enforced transitively by `pscd_lint --forbid-reach core:sim`).
#pragma once

#include <cstdint>

#include "pscd/util/types.h"

namespace pscd {

/// The answer to one publish: its fan-out and the deliveries publisher
/// -> notified proxies. Lost pages/bytes are always 0 when the failure
/// layer is off.
struct PushDelivery {
  SimTime time = 0.0;
  std::uint32_t proxiesNotified = 0;  // proxies with >= 1 match
  std::uint32_t proxiesStored = 0;    // proxies that stored the page
  std::uint64_t pages = 0;            // pages transferred
  Bytes bytes = 0;
  /// Pushes that never arrived (down proxy, partition, or in-flight
  /// loss) but whose bytes the publisher sent anyway.
  std::uint64_t pagesLost = 0;
  Bytes bytesLost = 0;

  friend bool operator==(const PushDelivery&, const PushDelivery&) = default;
};

/// The answer to one request, as seen by the user attached to `proxy`.
/// The failure-layer fields (retries/servedStale/failover/unavailable)
/// are all zero/false when the failure layer is off; an unavailable
/// request has no response and responseTimeMs is 0.
struct RequestDelivery {
  ProxyId proxy = 0;
  SimTime time = 0.0;
  bool hit = false;
  bool stale = false;  // a stale copy was cached at request time
  /// Publisher -> proxy bytes (page size on a miss or a failover).
  Bytes bytesTransferred = 0;
  double responseTimeMs = 0.0;
  std::uint32_t retries = 0;  // failed fetch attempts that were retried
  bool servedStale = false;   // stale copy served after the fetch failed
  bool failover = false;      // fetched from the publisher, proxy down
  bool unavailable = false;   // the request could not be served at all

  friend bool operator==(const RequestDelivery&,
                         const RequestDelivery&) = default;
};

/// Source of "now" for decision logic. The driver owns time: the
/// simulator sets it from the merged event streams, a daemon would
/// read the wall clock. Core code must never learn time any other way.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual SimTime now() const = 0;
};

/// Receiver of delivery records. Core pushes facts out through this
/// interface and never sees what the driver does with them (metrics
/// aggregation, logging, a live dashboard).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void onPush(const PushDelivery& delivery) = 0;
  virtual void onRequest(const RequestDelivery& delivery) = 0;
};

}  // namespace pscd
