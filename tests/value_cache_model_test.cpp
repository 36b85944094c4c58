// Differential test: ValueCache against a deliberately naive reference
// model (linear scans over a vector) under long random operation
// sequences. Any divergence in contents, eviction choice, accounting or
// (value, page) visiting order is a bug in the indexed implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "pscd/cache/value_cache.h"
#include "pscd/util/rng.h"

namespace pscd {
namespace {

/// Straight-line re-implementation of the ValueCache contract.
class ReferenceCache {
 public:
  explicit ReferenceCache(Bytes capacity) : capacity_(capacity) {}

  struct Entry {
    PageId page;
    Bytes size;
    double value;
  };

  bool contains(PageId page) const { return find(page) != nullptr; }

  const Entry* find(PageId page) const {
    for (const auto& e : entries_) {
      if (e.page == page) return &e;
    }
    return nullptr;
  }

  Bytes used() const {
    Bytes total = 0;
    for (const auto& e : entries_) total += e.size;
    return total;
  }

  std::optional<std::vector<PageId>> evictFor(Bytes size) {
    if (size > capacity_) return std::nullopt;
    std::vector<PageId> evicted;
    while (capacity_ - used() < size) {
      const auto lowest = std::min_element(
          entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
            if (a.value != b.value) return a.value < b.value;
            return a.page < b.page;  // ties broken like std::set's key
          });
      evicted.push_back(lowest->page);
      entries_.erase(lowest);
    }
    return evicted;
  }

  std::optional<std::vector<PageId>> tryEvictLowerThan(double value,
                                                       Bytes size) {
    Bytes reclaimable = capacity_ - used();
    for (const auto& e : entries_) {
      if (e.value < value) reclaimable += e.size;
    }
    if (reclaimable < size) return std::nullopt;
    std::vector<PageId> evicted;
    while (capacity_ - used() < size) {
      auto lowest = entries_.end();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->value >= value) continue;
        if (lowest == entries_.end() || it->value < lowest->value ||
            (it->value == lowest->value && it->page < lowest->page)) {
          lowest = it;
        }
      }
      evicted.push_back(lowest->page);
      entries_.erase(lowest);
    }
    return evicted;
  }

  void insert(PageId page, Bytes size, double value) {
    entries_.push_back({page, size, value});
  }

  void erase(PageId page) {
    std::erase_if(entries_, [&](const Entry& e) { return e.page == page; });
  }

  void updateValue(PageId page, double value) {
    for (auto& e : entries_) {
      if (e.page == page) e.value = value;
    }
  }

  std::size_t size() const { return entries_.size(); }

  /// Every page in ascending (value, page) order.
  std::vector<PageId> pagesByValue() const {
    std::vector<Entry> sorted = entries_;
    std::sort(sorted.begin(), sorted.end(), [](const Entry& a, const Entry& b) {
      if (a.value != b.value) return a.value < b.value;
      return a.page < b.page;
    });
    std::vector<PageId> pages;
    for (const auto& e : sorted) pages.push_back(e.page);
    return pages;
  }

 private:
  Bytes capacity_;
  std::vector<Entry> entries_;
};

/// One lockstep run: `steps` random force-insert / admission-insert /
/// erase / revalue ops over pages [0, pages), after pre-filling the
/// caches with pages from the top of that range while they fit.
struct ModelRun {
  std::uint64_t seed = 2026;
  int steps = 20000;
  std::uint64_t pages = 40;
  Bytes capacity = 1000;
  /// Values from {0, 1, 2}: most keys tie, and order rests on page id.
  bool tiedValues = false;
  std::uint64_t prefill = 0;
  /// Entries the pre-fill must leave resident.
  std::size_t minResident = 0;
  int checkEvery = 1;
};

/// forEachByValue visits a prefix of the reference's (value, page) order
/// and stops when told; forEach visits the whole order.
void expectSameOrder(const ValueCache& real, const ReferenceCache& model,
                     std::size_t stopAfter) {
  const std::vector<PageId> order = model.pagesByValue();
  std::vector<PageId> visited;
  real.forEachByValue([&](const ValueCache::StoredEntry& e) {
    if (visited.size() == stopAfter) return false;
    visited.push_back(e.page);
    return true;
  });
  const std::size_t prefix = std::min(stopAfter, order.size());
  ASSERT_EQ(visited, std::vector<PageId>(order.begin(),
                                         order.begin() + prefix));
  visited.clear();
  real.forEach([&](const ValueCache::StoredEntry& e) {
    visited.push_back(e.page);
  });
  ASSERT_EQ(visited, order);
}

void runAgainstReference(const ModelRun& run) {
  Rng rng(run.seed);
  Rng stopRng(run.seed + 1);  // early-exit points, apart from the op stream
  ValueCache real(run.capacity);
  ReferenceCache model(run.capacity);
  const auto drawValue = [&](int step) {
    return run.tiedValues
               ? static_cast<double>(rng.uniformInt(std::uint64_t{3}))
               : rng.uniform() + 1e-7 * step;
  };
  for (std::uint64_t i = 0; i < run.prefill; ++i) {
    const auto page = static_cast<PageId>(run.pages - 1 - i);
    const Bytes size = 20 + 10 * rng.uniformInt(std::uint64_t{12});
    if (real.free() < size) break;
    const double value = drawValue(0);
    real.insertNoEvict({page, 0, size, 0, 0, 0.0}, value);
    model.insert(page, size, value);
  }
  ASSERT_GE(real.size(), run.minResident);

  for (int step = 0; step < run.steps; ++step) {
    const auto page = static_cast<PageId>(rng.uniformInt(run.pages));
    const double value = drawValue(step);
    const Bytes size = 20 + 10 * rng.uniformInt(std::uint64_t{12});
    switch (rng.uniformInt(std::uint64_t{4})) {
      case 0: {  // force insert (erase first if present)
        real.erase(page);
        model.erase(page);
        const auto evReal = real.evictFor(size);
        const auto evModel = model.evictFor(size);
        ASSERT_EQ(evReal.has_value(), evModel.has_value());
        if (evReal) {
          std::vector<PageId> pagesReal;
          for (const auto& e : *evReal) pagesReal.push_back(e.page);
          ASSERT_EQ(pagesReal, *evModel) << "step " << step;
          real.insertNoEvict({page, 0, size, 0, 0, 0.0}, value);
          model.insert(page, size, value);
        }
        break;
      }
      case 1: {  // admission-based insert
        if (real.contains(page)) break;
        const auto evReal = real.tryEvictLowerThan(value, size);
        const auto evModel = model.tryEvictLowerThan(value, size);
        ASSERT_EQ(evReal.has_value(), evModel.has_value()) << "step " << step;
        if (evReal) {
          std::vector<PageId> pagesReal;
          for (const auto& e : *evReal) pagesReal.push_back(e.page);
          ASSERT_EQ(pagesReal, *evModel);
          real.insertNoEvict({page, 0, size, 0, 0, 0.0}, value);
          model.insert(page, size, value);
        }
        break;
      }
      case 2: {  // erase
        real.erase(page);
        model.erase(page);
        break;
      }
      default: {  // revalue
        if (real.contains(page)) {
          real.updateValue(page, value);
          model.updateValue(page, value);
        }
      }
    }
    ASSERT_EQ(real.size(), model.size()) << "step " << step;
    ASSERT_EQ(real.used(), model.used()) << "step " << step;
    if (step % run.checkEvery == 0) {
      real.checkInvariants();
      expectSameOrder(real, model, stopRng.uniformInt(model.size() + 1));
    }
  }
  real.checkInvariants();
  expectSameOrder(real, model, model.size() / 2);
}

TEST(ValueCacheModelTest, AgreesWithReferenceUnderRandomOps) {
  runAgainstReference(ModelRun{});
}

TEST(ValueCacheModelTest, AgreesWithReferenceWhenValuesTie) {
  ModelRun run;
  run.seed = 7;
  run.tiedValues = true;
  runAgainstReference(run);
}

TEST(ValueCacheModelTest, AgreesWithReferenceAtTenThousandEntries) {
  ModelRun run;
  run.seed = 31;
  run.steps = 3000;
  run.pages = 16000;
  run.capacity = 820000;  // about 10.9k pages of mean size 75
  run.prefill = 12000;
  run.minResident = 10000;
  run.checkEvery = 500;
  runAgainstReference(run);
}

TEST(ValueCacheModelTest, AgreesWithReferenceAtTenThousandTiedEntries) {
  ModelRun run;
  run.seed = 32;
  run.steps = 3000;
  run.pages = 16000;
  run.capacity = 820000;
  run.prefill = 12000;
  run.minResident = 10000;
  run.tiedValues = true;
  run.checkEvery = 500;
  runAgainstReference(run);
}

}  // namespace
}  // namespace pscd
