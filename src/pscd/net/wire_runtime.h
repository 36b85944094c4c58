// The serving tier's implementation of the core runtime seam
// (core/runtime.h): WireClock reads the sanctioned monotonic wall clock
// instead of a simulated event timeline, and WireSink folds delivery
// records into live counters instead of SimMetrics — so the exact same
// DistributionService decision layer the simulator drives runs behind a
// TCP wire with zero changes (the layering manifest's core:net
// forbid-reach gate keeps it that way from the other direction).
//
// The daemon builds each RESPONSE from the record the service call
// returns. WireSink still stashes the most recent delivery of each kind
// (lastPush()/lastRequest()); the only reader is the serve-mixed replay
// in perfbench/serve_mixed.cpp.
#pragma once

#include <cstdint>

#include "pscd/core/runtime.h"
#include "pscd/util/types.h"
#include "pscd/util/wallclock.h"

namespace pscd::net {

/// Wall-clock Clock: now() is seconds of real time since construction,
/// monotonic and immune to system clock adjustments. The service's
/// decision logic only consumes relative order and spacing, which is
/// exactly what a steady clock provides.
class WireClock final : public Clock {
 public:
  WireClock() : origin_(monotonicSeconds()) {}

  SimTime now() const override { return monotonicSeconds() - origin_; }

 private:
  double origin_;
};

/// Aggregate serving counters, readable while the daemon runs (from the
/// daemon thread) or after it stops (from anywhere, once joined).
struct ServeCounters {
  std::uint64_t pushes = 0;
  std::uint64_t pushedPages = 0;
  Bytes pushedBytes = 0;
  std::uint64_t pushedPagesLost = 0;
  Bytes pushedBytesLost = 0;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t staleServes = 0;
  std::uint64_t unavailable = 0;
  Bytes requestBytes = 0;

  double hitRatio() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(requests);
  }
};

class WireSink final : public EventSink {
 public:
  void onPush(const PushDelivery& delivery) override {
    lastPush_ = delivery;
    ++counters_.pushes;
    counters_.pushedPages += delivery.pages;
    counters_.pushedBytes += delivery.bytes;
    counters_.pushedPagesLost += delivery.pagesLost;
    counters_.pushedBytesLost += delivery.bytesLost;
  }

  void onRequest(const RequestDelivery& delivery) override {
    lastRequest_ = delivery;
    ++counters_.requests;
    if (delivery.hit) ++counters_.hits;
    if (delivery.servedStale) ++counters_.staleServes;
    if (delivery.unavailable) ++counters_.unavailable;
    counters_.requestBytes += delivery.bytesTransferred;
  }

  const PushDelivery& lastPush() const { return lastPush_; }
  const RequestDelivery& lastRequest() const { return lastRequest_; }
  const ServeCounters& counters() const { return counters_; }

 private:
  PushDelivery lastPush_{};
  RequestDelivery lastRequest_{};
  ServeCounters counters_{};
};

}  // namespace pscd::net
