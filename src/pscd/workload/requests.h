// Request-stream generator (section 4.2): Zipf popularity with random
// rank assignment, four popularity classes with age-correlated request
// times (plus a diurnal intensity swing), and per-page daily server
// pools of size S_i = numProxies * (P_i/P_max)^0.5 with 60% day-to-day
// overlap (eq. 6).
#pragma once

#include <vector>

#include "pscd/util/rng.h"
#include "pscd/workload/params.h"
#include "pscd/workload/workload.h"

namespace pscd {

/// Popularity class (0..3) for a Zipf rank: class k contains the ranks
/// whose request rate is within 10^-k .. 10^-(k+1) of the rank-1 rate,
/// so rates drop about one order of magnitude from class to class.
std::uint8_t popularityClassForRank(std::uint32_t rank, double alpha);

/// std::fmod(t, kDay), computed as an exact integer-day remainder; equal
/// to it bit for bit for 0 <= t < 2^53.
SimTime timeOfDay(SimTime t);

/// Fills pages[*].popularityRank/popularityClass/requestCount and
/// returns the request stream ordered by (time, page, proxy,
/// notificationDriven). `horizon` must match the publishing generator's.
std::vector<RequestEvent> generateRequests(const RequestParams& params,
                                           SimTime horizon,
                                           std::vector<PageInfo>& pages,
                                           Rng& rng);

}  // namespace pscd
