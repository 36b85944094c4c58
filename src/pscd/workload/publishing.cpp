#include "pscd/workload/publishing.h"

#include <algorithm>
#include <stdexcept>

#include "pscd/util/distributions.h"
#include "pscd/workload/requests.h"

namespace pscd {

namespace {

/// Fisher-Yates shuffle driven by our deterministic Rng.
void shufflePages(std::vector<PageId>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniformInt(i)]);
  }
}

}  // namespace

PublishingStream generatePublishing(const PublishingParams& params,
                                    double zipfAlpha,
                                    double updatedPopularityBias, Rng& rng) {
  if (params.numPages == 0 || params.numUpdatedPages > params.numPages) {
    throw std::invalid_argument("generatePublishing: bad page counts");
  }
  // Negated so that a NaN horizon fails it too.
  if (!(params.horizon > 0 && params.horizon < kMaxHorizon)) {
    throw std::invalid_argument(
        "generatePublishing: horizon must be in (0, 2^52) s");
  }
  if (params.maxVersionsPerPage == 0) {
    throw std::invalid_argument("generatePublishing: version cap must be > 0");
  }

  const LogNormalDistribution sizeDist(params.sizeMu, params.sizeSigma);
  const StepwiseDistribution intervalDist({
      {params.shortIntervalWeight, params.shortIntervalLo,
       params.shortIntervalHi},
      {params.midIntervalWeight, params.midIntervalLo, params.midIntervalHi},
      {params.longIntervalWeight, params.longIntervalLo,
       params.longIntervalHi},
  });

  PublishingStream stream;
  stream.pages.resize(params.numPages);

  // Choose the updated pages uniformly at random.
  std::vector<PageId> perm(params.numPages);
  for (PageId i = 0; i < params.numPages; ++i) perm[i] = i;
  shufflePages(perm, rng);
  std::vector<PageId> updatedPages(perm.begin(),
                                   perm.begin() + params.numUpdatedPages);
  std::vector<PageId> staticPages(perm.begin() + params.numUpdatedPages,
                                  perm.end());

  // Deal the popularity ranks: with probability updatedPopularityBias a
  // top rank draws from the updated pages (popular news is edited
  // repeatedly), otherwise from the never-updated pool.
  shufflePages(updatedPages, rng);
  shufflePages(staticPages, rng);
  std::size_t ui = 0, si = 0;
  std::vector<PageId> pageAtRank(params.numPages);
  for (std::uint32_t rank = 1; rank <= params.numPages; ++rank) {
    const bool preferUpdated = rng.bernoulli(updatedPopularityBias);
    PageId page;
    if (si >= staticPages.size() ||
        (preferUpdated && ui < updatedPages.size())) {
      page = updatedPages[ui++];
    } else {
      page = staticPages[si++];
    }
    pageAtRank[rank - 1] = page;
    stream.pages[page].popularityRank = rank;
    stream.pages[page].popularityClass =
        popularityClassForRank(rank, zipfAlpha);
  }

  // Draw the modification intervals (their marginal distribution is the
  // paper's step-wise one), then assign them assortatively: the most
  // popular updated page receives the shortest interval.
  std::vector<double> intervals(params.numUpdatedPages);
  for (auto& iv : intervals) iv = intervalDist.sample(rng);
  std::sort(intervals.begin(), intervals.end());
  std::vector<bool> isUpdated(params.numPages, false);
  for (const PageId page : updatedPages) isUpdated[page] = true;
  std::size_t nextInterval = 0;
  for (std::uint32_t rank = 1;
       rank <= params.numPages && nextInterval < intervals.size(); ++rank) {
    const PageId page = pageAtRank[rank - 1];
    if (isUpdated[page]) {
      stream.pages[page].modificationInterval = intervals[nextInterval++];
    }
  }

  // Sizes, first-publish times and the event expansion.
  for (PageId page = 0; page < params.numPages; ++page) {
    PageInfo& info = stream.pages[page];
    const double raw = sizeDist.sample(rng);
    info.size = std::clamp<Bytes>(static_cast<Bytes>(raw),
                                  params.minPageSize, params.maxPageSize);
    info.firstPublish = rng.uniform(0.0, params.horizon);

    // Accumulating while-loop rather than a float-induction for-loop
    // (cert-flp30-c); the accumulation itself is intentional and must
    // stay bit-identical across refactors to keep seeds reproducible.
    Version version = 0;
    SimTime t = info.firstPublish;
    while (t < params.horizon && version < params.maxVersionsPerPage) {
      stream.events.push_back({t, page, version++, info.size});
      if (info.modificationInterval <= 0) break;
      t += info.modificationInterval;
    }
    info.numVersions = version;
  }

  std::sort(stream.events.begin(), stream.events.end(),
            [](const PublishEvent& a, const PublishEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.page < b.page;
            });
  return stream;
}

}  // namespace pscd
