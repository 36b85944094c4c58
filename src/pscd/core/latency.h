// User-perceived latency model (section 5.1's motivation: "a high hit
// ratio in a local server generally means a smaller response time").
// A hit is served from the local proxy in localLatencyMs; fetching
// fresh bytes from the publisher additionally pays a round trip scaled
// by the proxy's normalized network distance (mean distance = 1).
#pragma once

namespace pscd {

struct LatencyModel {
  double localLatencyMs = 5.0;
  double remoteLatencyMsPerUnit = 100.0;

  /// Throws CheckFailure unless both parameters are finite and >= 0.
  void validate() const;
};

}  // namespace pscd
