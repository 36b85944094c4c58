// Parameters of the synthetic news-delivery workload (section 4 of the
// paper). Defaults reproduce the paper's setup, which is itself derived
// from Padmanabhan & Qiu's study of MSNBC (SIGCOMM 2000).
#pragma once

#include <array>
#include <cstdint>

#include "pscd/util/types.h"

namespace pscd {

/// Bound on the horizon: below it every request time stays under 2^53 s,
/// where the time of day is an exact integer-day remainder.
inline constexpr SimTime kMaxHorizon = 0x1p52;

struct PublishingParams {
  /// Distinct pages (the paper: 6000 distinct, ~30k publish events).
  std::uint32_t numPages = 6000;
  /// Pages that receive modified versions (the paper: 2400).
  std::uint32_t numUpdatedPages = 2400;
  /// Simulation horizon (7 days); finite and below kMaxHorizon.
  SimTime horizon = 7 * kDay;
  /// Step-wise modification-interval distribution: 5% shorter than an
  /// hour, 5% longer than a day, the rest in between (section 4.1).
  double shortIntervalWeight = 0.05;
  double shortIntervalLo = 10 * kMinute;
  double shortIntervalHi = 1 * kHour;
  double midIntervalWeight = 0.90;
  double midIntervalLo = 1 * kHour;
  double midIntervalHi = 1 * kDay;
  double longIntervalWeight = 0.05;
  double longIntervalLo = 1 * kDay;
  double longIntervalHi = 3 * kDay;
  /// Cap on the versions of one page: a breaking story is edited
  /// intensively for a bounded spell, not for the whole week. Without a
  /// cap the 5% of pages with sub-hour intervals would publish hundreds
  /// of versions each; see DESIGN.md for the calibration.
  std::uint32_t maxVersionsPerPage = 100;
  /// Log-normal page sizes (footnote 1: mu = 9.357, sigma^2 = 1.318).
  double sizeMu = 9.357;
  double sizeSigma = 1.14804;  // sqrt(1.318)
  Bytes minPageSize = 128;
  Bytes maxPageSize = 8u << 20;  // clamp pathological tail draws
};

struct RequestParams {
  /// ~1/1000 of MSNBC's 7-day volume (section 4.2).
  std::uint64_t totalRequests = 195000;
  std::uint32_t numProxies = 100;
  /// Zipf homogeneity: 1.5 for NEWS, 1.0 for ALTERNATIVE.
  double zipfAlpha = 1.5;
  /// Age-decay exponents of the four popularity classes (class 0 = most
  /// popular). Class boundaries are the ranks where the Zipf rate drops
  /// by another order of magnitude; a larger gamma concentrates requests
  /// on fresh pages ("the more popular a page is, the stronger the
  /// negative correlation between access probability and age").
  std::array<double, 4> classGamma = {3.5, 3.0, 2.5, 2.0};
  /// Scale of the age decay (1 + age/tau)^-gamma.
  SimTime ageTau = 1 * kHour;
  /// Lifecycle envelope: interest in a page dies off over its whole
  /// lifetime even though each modified version rekindles it. A request
  /// targets version k with weight (1 + (t_k - t_0)/lifecycleTau)
  /// ^-lifecycleGamma; its time then decays from t_k per classGamma.
  double lifecycleGamma = 2.0;
  SimTime lifecycleTau = 6 * kHour;
  /// Floor on the per-page daily server pool (eq. 6 yields 1 for the
  /// tail; the MSNBC study observes even unpopular objects shared by
  /// several organizations).
  std::uint32_t minServerPool = 10;
  /// Zipf exponent of the per-page affinity across its pool members:
  /// requests are split across the pool non-uniformly because the
  /// organizations behind different proxies care about a story to very
  /// different degrees (organization-based sharing, Wolman et al.).
  /// 0 restores the paper's uniform split.
  double poolAffinityAlpha = 0.0;
  /// Day/night swing of the request intensity; 0 disables it.
  double diurnalAmplitude = 0.6;
  /// Local time of the daily traffic peak.
  SimTime diurnalPeak = 14 * kHour;
  /// S_i = numProxies * (P_i / P_max)^serverPoolExponent (eq. 6).
  double serverPoolExponent = 0.5;
  /// Fraction of a page's server pool kept from one day to the next.
  double poolOverlap = 0.6;
  /// Probability that each of the top-numUpdatedPages popularity ranks
  /// is held by an updated page. News popularity and update frequency
  /// are strongly correlated (breaking stories are edited repeatedly —
  /// Padmanabhan & Qiu; Gadde et al. note content distribution matters
  /// most when popular objects update frequently), and this correlation
  /// is what makes pure access-based caching pay stale-miss penalties.
  double updatedPopularityBias = 0.85;
  /// Fraction of requests driven by notifications; < 1 enables the
  /// paper's future-work scenario where some readers are not
  /// subscribers (their requests do not contribute subscriptions).
  double notificationDrivenFraction = 1.0;
};

struct SubscriptionParams {
  /// Subscription quality SQ (eq. 7): probability that a subscriber of
  /// a page actually requests it; 1 = subscriptions perfectly reflect
  /// accesses.
  double quality = 1.0;
  /// Lower clamp for the per-(page, proxy) quality draw, which protects
  /// against division by ~0 when quality <= 0.5.
  double minQuality = 0.05;
  /// Extension beyond the paper's static-subscription assumption:
  /// fraction of all subscriptions that migrate per simulated day (a
  /// user drops one interest and picks up another at the same proxy).
  /// 0 restores the paper's static model.
  double churnPerDay = 0.0;
};

struct WorkloadParams {
  PublishingParams publishing;
  RequestParams request;
  SubscriptionParams subscription;
  std::uint64_t seed = 42;
};

/// The two request traces evaluated in the paper.
WorkloadParams newsTraceParams();
WorkloadParams alternativeTraceParams();

}  // namespace pscd
