#include "pscd/workload/requests.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <optional>
#include <span>
#include <stdexcept>

#include "pscd/util/distributions.h"

namespace pscd {

std::uint8_t popularityClassForRank(std::uint32_t rank, double alpha) {
  if (rank == 0) throw std::invalid_argument("rank must be >= 1");
  // rate(rank) / rate(1) = rank^-alpha; class k while the ratio is above
  // 10^-(k+1).
  const double drop = alpha * std::log10(static_cast<double>(rank));
  if (drop < 1.0) return 0;
  if (drop < 2.0) return 1;
  if (drop < 3.0) return 2;
  return 3;
}

SimTime timeOfDay(SimTime t) {
  // t / kDay rounds to the day or, within an ulp of a day's end, to the
  // next one. Each product is an integer below 2^53, so exact, and each
  // difference is within a factor 2 of t, so exact too (Sterbenz).
  const auto day = static_cast<std::uint64_t>(t / kDay);
  const SimTime r = t - static_cast<double>(day) * kDay;
  return r < 0 ? t - static_cast<double>(day - 1) * kDay : r;
}

namespace {

/// Diurnal intensity factor in [1-A, 1+A], peaking at params.diurnalPeak.
double diurnalFactor(const RequestParams& params, SimTime t) {
  if (params.diurnalAmplitude <= 0) return 1.0;
  const double phase =
      2.0 * std::numbers::pi * (timeOfDay(t) - params.diurnalPeak) / kDay;
  return 1.0 + params.diurnalAmplitude * std::cos(phase);
}

/// Samples a request time for a page: age-decayed from the first publish
/// time, thinned by the diurnal factor (rejection sampling).
SimTime sampleRequestTime(const RequestParams& params,
                          const TruncatedPowerLawAge& ageDist,
                          SimTime firstPublish, Rng& rng) {
  const double maxFactor = 1.0 + params.diurnalAmplitude;
  SimTime t = firstPublish;
  for (int attempt = 0; attempt < 64; ++attempt) {
    t = firstPublish + ageDist.sample(rng);
    if (rng.uniform() * maxFactor <= diurnalFactor(params, t)) return t;
  }
  return t;  // extremely unlikely; keep the last candidate
}

/// Per-page daily pool of candidate proxies (eq. 6 + the 60% overlap
/// rule). Pools are generated lazily per day.
class ServerPool {
 public:
  /// cumWeight[i] is the affinity weight of pool positions 0..i, shared
  /// by every page's pool; it has at least numProxies entries.
  ServerPool(std::uint32_t poolSize, std::uint32_t numProxies,
             std::span<const double> cumWeight, Rng& rng)
      : poolSize_(std::min(poolSize, numProxies)),
        numProxies_(numProxies),
        cumWeight_(cumWeight.first(poolSize_)) {
    pool_.reserve(poolSize_);
    member_.assign(numProxies_, false);
    while (pool_.size() < poolSize_) addRandomNonMember(rng);
  }

  ProxyId pick(std::uint64_t day, Rng& rng, double overlap) {
    while (day_ < day) {
      advanceDay(rng, overlap);
      ++day_;
    }
    // std::lower_bound without branches: u is a fresh draw, so a
    // branching search mispredicts about every other step.
    const double u = rng.uniform() * cumWeight_.back();
    const double* first = cumWeight_.data();
    for (std::size_t len = cumWeight_.size(); len > 1;) {
      const std::size_t half = len / 2;
      first = first[half] < u ? first + half : first;
      len -= half;
    }
    const auto slot = static_cast<std::size_t>(first - cumWeight_.data()) +
                      (*first < u ? 1 : 0);
    return pool_[slot];
  }

 private:
  void addRandomNonMember(Rng& rng) {
    for (;;) {
      const auto cand = static_cast<ProxyId>(rng.uniformInt(numProxies_));
      if (!member_[cand]) {
        member_[cand] = true;
        pool_.push_back(cand);
        return;
      }
    }
  }

  void advanceDay(Rng& rng, double overlap) {
    // Replace (1 - overlap) of the pool with proxies not currently in it.
    const auto keep = static_cast<std::uint32_t>(
        std::lround(overlap * static_cast<double>(pool_.size())));
    const std::uint32_t replace =
        static_cast<std::uint32_t>(pool_.size()) - keep;
    if (replace == 0 || poolSize_ >= numProxies_) return;
    // Shuffle, drop the tail, then refill with non-members.
    for (std::uint32_t i = static_cast<std::uint32_t>(pool_.size()) - 1; i > 0;
         --i) {
      std::swap(pool_[i],
                pool_[rng.uniformInt(static_cast<std::uint64_t>(i) + 1)]);
    }
    for (std::uint32_t i = 0; i < replace; ++i) {
      member_[pool_.back()] = false;
      pool_.pop_back();
    }
    while (pool_.size() < poolSize_) addRandomNonMember(rng);
  }

  std::uint32_t poolSize_;
  std::uint32_t numProxies_;
  std::uint64_t day_ = 0;
  std::span<const double> cumWeight_;
  std::vector<ProxyId> pool_;
  std::vector<bool> member_;
};

bool timePageBefore(const RequestEvent& a, const RequestEvent& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.page < b.page;
}

bool proxyFlagBefore(const RequestEvent& a, const RequestEvent& b) {
  if (a.proxy != b.proxy) return a.proxy < b.proxy;
  return a.notificationDriven < b.notificationDriven;
}

/// Orders a trace by (time, page) in place, in expected linear time.
/// Each pass deals a range into buckets of equal width between its least
/// and greatest time. A range of up to kScratchEvents events takes one
/// counting pass through a scratch buffer, about two events per bucket,
/// and its buckets are then sorted. A larger one takes an in-place
/// American-flag pass of kFlagBuckets buckets, whose next free slots lie
/// scattered across the range, so each swap prefetches the slot
/// kPrefetch ahead of its target; its buckets are then ordered in turn.
class TimeOrder {
 public:
  void order(std::span<RequestEvent> events) {
    if (events.size() <= kSmallRange) {
      std::sort(events.begin(), events.end(), timePageBefore);
      return;
    }
    SimTime lo = events.front().time;
    SimTime hi = lo;
    for (const RequestEvent& ev : events) {
      lo = std::min(lo, ev.time);
      hi = std::max(hi, ev.time);
    }
    if (!(lo < hi)) {  // one time: order by page
      std::sort(events.begin(), events.end(), timePageBefore);
    } else if (events.size() <= kScratchEvents) {
      countingPass(events, lo, hi);
    } else {
      flagPass(events, lo, hi);
    }
  }

 private:
  /// Events per scratch pass, and per bucket of one.
  static constexpr std::size_t kScratchEvents = std::size_t{1} << 15;
  static constexpr std::size_t kEventsPerBucket = 2;
  static constexpr std::size_t kFlagBuckets = 256;
  static constexpr std::size_t kPrefetch = 8;
  /// Ranges this small are sorted directly.
  static constexpr std::size_t kSmallRange = 16;

  /// Maps times in [lo, hi] onto buckets 0..buckets-1 monotonically.
  struct Buckets {
    SimTime lo;
    double scale;
    std::size_t last;
    Buckets(SimTime lo, SimTime hi, std::size_t buckets)
        : lo(lo), scale(static_cast<double>(buckets) / (hi - lo)),
          last(buckets - 1) {}
    std::size_t operator()(SimTime t) const {
      return std::min(static_cast<std::size_t>((t - lo) * scale), last);
    }
  };

  void countingPass(std::span<RequestEvent> events, SimTime lo, SimTime hi) {
    const std::size_t buckets = events.size() / kEventsPerBucket;
    const Buckets bucketOf(lo, hi, buckets);
    start_.assign(buckets + 1, 0);
    for (const RequestEvent& ev : events) ++start_[bucketOf(ev.time) + 1];
    for (std::size_t b = 1; b <= buckets; ++b) start_[b] += start_[b - 1];
    scratch_.resize(kScratchEvents);
    for (const RequestEvent& ev : events) {
      scratch_[start_[bucketOf(ev.time)]++] = ev;
    }
    std::copy(scratch_.begin(), scratch_.begin() + events.size(),
              events.begin());
    // start_[b] now holds the end of bucket b.
    auto begin = events.begin();
    for (std::size_t b = 0; b < buckets; ++b) {
      std::sort(begin, events.begin() + start_[b], timePageBefore);
      begin = events.begin() + start_[b];
    }
  }

  void flagPass(std::span<RequestEvent> events, SimTime lo, SimTime hi) {
    const Buckets bucketOf(lo, hi, kFlagBuckets);
    std::array<std::size_t, kFlagBuckets + 1> end{};
    for (const RequestEvent& ev : events) ++end[bucketOf(ev.time) + 1];
    for (std::size_t b = 1; b <= kFlagBuckets; ++b) end[b] += end[b - 1];
    std::array<std::size_t, kFlagBuckets> next;
    std::copy(end.begin(), end.end() - 1, next.begin());
    RequestEvent* const slot = events.data();
    const std::size_t last = events.size() - 1;
    for (std::size_t b = 0; b < kFlagBuckets; ++b) {
      while (next[b] < end[b + 1]) {
        RequestEvent ev = slot[next[b]];
        for (std::size_t d = bucketOf(ev.time); d != b;
             d = bucketOf(ev.time)) {
          __builtin_prefetch(slot + std::min(next[d] + kPrefetch, last), 1);
          std::swap(ev, slot[next[d]++]);
        }
        slot[next[b]++] = ev;
      }
    }
    for (std::size_t b = 0; b < kFlagBuckets; ++b) {
      order(events.subspan(end[b], end[b + 1] - end[b]));
    }
  }

  std::vector<RequestEvent> scratch_;
  std::vector<std::size_t> start_;
};

/// A pick as it waits for its event: the proxy id, with the
/// notificationDriven flag in the top bit.
constexpr std::uint32_t kDrivenBit = 1u << 31;

}  // namespace

std::vector<RequestEvent> generateRequests(const RequestParams& params,
                                           SimTime horizon,
                                           std::vector<PageInfo>& pages,
                                           Rng& rng) {
  const auto numPages = static_cast<std::uint32_t>(pages.size());
  if (numPages == 0 || params.numProxies == 0) {
    throw std::invalid_argument("generateRequests: empty pages/proxies");
  }
  if (params.numProxies > kMaxProxies) {
    throw std::invalid_argument("generateRequests: more than 2^31 proxies");
  }
  if (!(horizon > 0 && horizon < kMaxHorizon)) {
    throw std::invalid_argument(
        "generateRequests: horizon must be in (0, 2^52) s");
  }

  // 1. Popularity ranks are planned by the publishing generator (they
  //    are correlated with update behaviour); derive the Zipf weights.
  std::vector<double> weight(numPages);
  for (PageId page = 0; page < numPages; ++page) {
    if (pages[page].popularityRank == 0 ||
        pages[page].popularityRank > numPages) {
      throw std::invalid_argument("generateRequests: pages lack ranks");
    }
    weight[page] = std::pow(static_cast<double>(pages[page].popularityRank),
                            -params.zipfAlpha);
  }

  // 2. Multinomial assignment of the total request volume to pages.
  const DiscreteSampler pageSampler(weight);
  std::vector<std::uint32_t> perPage(numPages, 0);
  for (std::uint64_t r = 0; r < params.totalRequests; ++r) {
    ++perPage[pageSampler.sample(rng)];
  }
  std::uint32_t maxCount = 0;
  for (PageId page = 0; page < numPages; ++page) {
    pages[page].requestCount = perPage[page];
    maxCount = std::max(maxCount, perPage[page]);
  }
  if (maxCount == 0) return {};

  // Pool position i carries affinity weight (i+1)^-alpha: a pool is in
  // random order, so the "high affinity" proxies of each page are random,
  // and requests split non-uniformly across the pool.
  std::vector<double> cumWeight(params.numProxies);
  double acc = 0.0;
  for (std::uint32_t i = 0; i < params.numProxies; ++i) {
    acc += std::pow(static_cast<double>(i + 1), -params.poolAffinityAlpha);
    cumWeight[i] = acc;
  }

  // 3. Page by page: the server pool, then the request times, drawn
  //    straight into the page's slice of the output, then the pool's
  //    picks. Picks are drawn in time order, and they depend only on how
  //    many of the page's requests fall on each day, so they are drawn
  //    per day into the page's slice of `picks` and wait there until the
  //    trace is ordered.
  std::vector<RequestEvent> requests(params.totalRequests);
  std::vector<std::uint32_t> picks(params.totalRequests);
  std::vector<std::uint32_t> perDay;  // the current page's requests per day
  std::vector<double> versionWeight;
  std::vector<TruncatedPowerLawAge> versionAge;
  std::size_t offset = 0;
  for (PageId page = 0; page < numPages; ++page) {
    const std::uint32_t n = perPage[page];
    if (n == 0) continue;
    const PageInfo& info = pages[page];

    // Eq. 6: maximum number of servers requesting the page in a day.
    const double share = static_cast<double>(n) / maxCount;
    const auto poolSize = static_cast<std::uint32_t>(std::max<std::int64_t>(
        params.minServerPool,
        std::lround(params.numProxies *
                    std::pow(share, params.serverPoolExponent))));
    ServerPool pool(poolSize, params.numProxies, cumWeight, rng);

    // Request times: every modified version rekindles interest ("most
    // news pages are requested when they are fresh"), but under a
    // lifecycle envelope that dies off over the page's lifetime — a
    // story is read most around its early versions and fades even while
    // it keeps being edited. A request picks a version under the
    // envelope and then decays from that version's publish time.
    const double gamma = params.classGamma[info.popularityClass];
    versionWeight.resize(info.numVersions);
    versionAge.clear();
    for (std::uint32_t k = 0; k < info.numVersions; ++k) {
      const SimTime sincebirth = k * info.modificationInterval;
      versionWeight[k] = std::pow(
          1.0 + sincebirth / static_cast<double>(params.lifecycleTau),
          -params.lifecycleGamma);
      // The floor keeps the sampler well-defined for versions published
      // in the horizon's last moments; the clamp below keeps their
      // requests inside the simulated week.
      const SimTime versionTime =
          info.firstPublish + k * info.modificationInterval;
      versionAge.emplace_back(gamma, static_cast<double>(params.ageTau),
                              std::max(horizon - versionTime, kMinute));
    }
    std::optional<DiscreteSampler> versionSampler;
    if (info.numVersions > 1) versionSampler.emplace(versionWeight);
    RequestEvent* const slice = requests.data() + offset;
    for (std::uint32_t k = 0; k < n; ++k) {
      const std::uint32_t version =
          versionSampler ? versionSampler->sample(rng) : 0;
      const SimTime versionTime =
          info.firstPublish + version * info.modificationInterval;
      const SimTime t = std::min(
          sampleRequestTime(params, versionAge[version], versionTime, rng),
          horizon);
      slice[k].time = t;
      slice[k].page = page;
      const auto day = static_cast<std::size_t>(t / kDay);
      if (day >= perDay.size()) perDay.resize(day + 1, 0);
      ++perDay[day];
    }

    std::uint32_t* out = picks.data() + offset;
    for (std::size_t day = 0; day < perDay.size(); ++day) {
      for (; perDay[day] > 0; --perDay[day]) {
        const ProxyId proxy = pool.pick(day, rng, params.poolOverlap);
        const bool driven = params.notificationDrivenFraction >= 1.0 ||
                            rng.bernoulli(params.notificationDrivenFraction);
        *out++ = proxy | (driven ? kDrivenBit : 0);
      }
    }
    offset += n;
  }

  // 4. One ordering of the whole trace by (time, page); then each page's
  //    events, now in time order, take its picks in turn.
  TimeOrder().order(requests);
  std::vector<std::size_t> nextPick(numPages);
  offset = 0;
  for (PageId page = 0; page < numPages; ++page) {
    nextPick[page] = offset;
    offset += perPage[page];
  }
  for (RequestEvent& ev : requests) {
    const std::uint32_t p = picks[nextPick[ev.page]++];
    ev.proxy = p & ~kDrivenBit;
    ev.notificationDriven = (p & kDrivenBit) != 0;
  }

  // 5. Requests of one page at one time (clamped to the horizon, most
  //    often) are ordered by (proxy, notificationDriven), so the trace
  //    has one defined order whatever the standard library's sort does.
  for (auto run = requests.begin(); run != requests.end();) {
    const auto end =
        std::find_if(run + 1, requests.end(), [&](const RequestEvent& ev) {
          return timePageBefore(*run, ev);
        });
    if (end - run > 1) std::sort(run, end, proxyFlagBefore);
    run = end;
  }
  return requests;
}

}  // namespace pscd
