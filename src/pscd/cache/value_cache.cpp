#include "pscd/cache/value_cache.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pscd/util/check.h"
#include "pscd/util/hot.h"

namespace pscd {

namespace {

constexpr std::size_t kArity = 4;

std::size_t parentOf(std::size_t pos) { return (pos - 1) / kArity; }
std::size_t firstChildOf(std::size_t pos) { return kArity * pos + 1; }

}  // namespace

ValueCache::ValueCache(Bytes capacity) : capacity_(capacity) {}

void ValueCache::setCapacity(Bytes capacity) {
  if (capacity < used_) {
    throw std::invalid_argument("ValueCache::setCapacity below used bytes");
  }
  capacity_ = capacity;
}

PSCD_HOT const ValueCache::StoredEntry* ValueCache::find(PageId page) const {
  const std::uint32_t* slot = slotOf_.find(page);
  return slot == nullptr ? nullptr : &entries_[*slot];
}

PSCD_HOT std::uint32_t ValueCache::slotOf(const StoredEntry& cached) const {
  const auto slot = static_cast<std::size_t>(&cached - entries_.data());
  PSCD_DCHECK_LT(slot, entries_.size())
      << "ValueCache: entry reference not from this cache";
  return static_cast<std::uint32_t>(slot);
}

PSCD_HOT void ValueCache::place(std::size_t pos, const HeapNode& node) {
  heap_[pos] = node;
  heapPos_[node.slot] = static_cast<std::uint32_t>(pos);
}

PSCD_HOT void ValueCache::siftUp(std::size_t pos) {
  const HeapNode node = heap_[pos];
  while (pos > 0 && before(node, heap_[parentOf(pos)])) {
    place(pos, heap_[parentOf(pos)]);
    pos = parentOf(pos);
  }
  place(pos, node);
}

PSCD_HOT void ValueCache::siftDown(std::size_t pos) {
  const HeapNode node = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = firstChildOf(pos);
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], node)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, node);
}

PSCD_HOT void ValueCache::resift(std::size_t pos) {
  if (pos > 0 && before(heap_[pos], heap_[parentOf(pos)])) {
    siftUp(pos);
  } else {
    siftDown(pos);
  }
}

PSCD_HOT ValueCache::StoredEntry ValueCache::removeSlot(std::uint32_t slot) {
  // Unlink the heap node: the last node fills its position.
  const std::size_t pos = heapPos_[slot];
  const HeapNode tail = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    place(pos, tail);
    resift(pos);
  }
  // Free the slot: the last slot moves into it, keeping the array dense.
  StoredEntry removed = entries_[slot];
  slotOf_.erase(removed.page);
  const auto lastSlot = static_cast<std::uint32_t>(entries_.size() - 1);
  if (slot != lastSlot) {
    entries_[slot] = entries_[lastSlot];
    heapPos_[slot] = heapPos_[lastSlot];
    heap_[heapPos_[slot]].slot = slot;
    *slotOf_.find(entries_[slot].page) = slot;
  }
  entries_.pop_back();
  heapPos_.pop_back();
  used_ -= removed.size;
  return removed;
}

PSCD_HOT std::optional<std::vector<ValueCache::StoredEntry>>
ValueCache::evictFor(Bytes size) {
  if (size > capacity_) return std::nullopt;
  // pscd-lint: allow(alloc-in-hot) the eviction list escapes to the caller; empty when nothing is evicted
  std::vector<StoredEntry> evicted;
  while (free() < size) {
    PSCD_DCHECK(!heap_.empty()) << "ValueCache::evictFor ran out of victims";
    // pscd-lint: allow(grow-without-reserve) victim count depends on entry sizes and is unknowable before the walk
    evicted.push_back(removeSlot(heap_.front().slot));
  }
  return evicted;
}

PSCD_HOT std::optional<std::vector<ValueCache::StoredEntry>>
ValueCache::tryEvictLowerThan(double value, Bytes size) {
  // pscd-lint: allow(alloc-in-hot) empty-vector return on the fast path does not allocate
  if (free() >= size) return std::vector<StoredEntry>{};
  // Feasibility: can the candidates (value < `value`) free enough space?
  // Every ancestor of a candidate is a candidate too, so a walk from the
  // root that prunes at the first non-candidate on each path visits
  // exactly the candidates, and stops once enough bytes are reclaimable.
  Bytes reclaimable = free();
  bool feasible = false;
  walk_.clear();
  if (!heap_.empty() && heap_.front().value < value) walk_.push_back(0);
  while (!walk_.empty() && !feasible) {
    const std::size_t pos = walk_.back();
    walk_.pop_back();
    reclaimable += entries_[heap_[pos].slot].size;
    feasible = reclaimable >= size;
    const std::size_t first = firstChildOf(pos);
    const std::size_t last = std::min(first + kArity, heap_.size());
    for (std::size_t c = first; c < last; ++c) {
      if (heap_[c].value < value) {
        // pscd-lint: allow(grow-without-reserve) scratch member reused across calls; it stops growing at its high-water mark
        walk_.push_back(static_cast<std::uint32_t>(c));
      }
    }
  }
  if (!feasible) return std::nullopt;
  // pscd-lint: allow(alloc-in-hot) the eviction list escapes to the caller
  std::vector<StoredEntry> evicted;
  while (free() < size) {
    PSCD_DCHECK(!heap_.empty() && heap_.front().value < value)
        << "ValueCache::tryEvictLowerThan evicting non-candidate";
    // pscd-lint: allow(grow-without-reserve) victim count depends on entry sizes and is unknowable before the walk
    evicted.push_back(removeSlot(heap_.front().slot));
  }
  return evicted;
}

PSCD_HOT void ValueCache::insertNoEvict(const CacheEntry& entry,
                                        double value) {
  if (entry.size > free()) {
    throw std::logic_error("ValueCache::insertNoEvict: no room");
  }
  const auto slot = static_cast<std::uint32_t>(entries_.size());
  const auto [mapped, inserted] = slotOf_.tryEmplace(entry.page);
  if (!inserted) {
    throw std::logic_error("ValueCache::insertNoEvict: page already cached");
  }
  *mapped = slot;
  StoredEntry stored;
  static_cast<CacheEntry&>(stored) = entry;
  stored.value = value;
  entries_.push_back(stored);
  heapPos_.push_back(static_cast<std::uint32_t>(heap_.size()));
  heap_.push_back({value, entry.page, slot});
  siftUp(heap_.size() - 1);
  used_ += entry.size;
}

PSCD_HOT std::optional<ValueCache::StoredEntry> ValueCache::erase(
    PageId page) {
  const std::uint32_t* slot = slotOf_.find(page);
  if (slot == nullptr) return std::nullopt;
  return removeSlot(*slot);
}

PSCD_HOT void ValueCache::updateValue(PageId page, double value) {
  const StoredEntry* cached = find(page);
  if (cached == nullptr) {
    throw std::out_of_range("ValueCache::updateValue: page not cached");
  }
  updateValue(*cached, value);
}

PSCD_HOT void ValueCache::updateValue(const StoredEntry& cached,
                                      double value) {
  const std::uint32_t slot = slotOf(cached);
  entries_[slot].value = value;
  const std::size_t pos = heapPos_[slot];
  heap_[pos].value = value;
  resift(pos);
}

PSCD_HOT const ValueCache::StoredEntry& ValueCache::recordAccess(
    PageId page, SimTime now) {
  const StoredEntry* cached = find(page);
  if (cached == nullptr) {
    throw std::out_of_range("ValueCache::recordAccess: page not cached");
  }
  return recordAccess(*cached, now);
}

PSCD_HOT const ValueCache::StoredEntry& ValueCache::recordAccess(
    const StoredEntry& cached, SimTime now) {
  StoredEntry& entry = entries_[slotOf(cached)];
  ++entry.accessCount;
  entry.lastAccess = now;
  return entry;
}

PSCD_HOT double ValueCache::minValue() const {
  if (heap_.empty()) throw std::logic_error("ValueCache::minValue: empty");
  return heap_.front().value;
}

void ValueCache::forEach(
    const std::function<void(const StoredEntry&)>& fn) const {
  // The (value, page) order is deterministic, so refresh passes and
  // diagnostics built on forEach stay reproducible.
  forEachByValue([&fn](const StoredEntry& e) {
    fn(e);
    return true;
  });
}

void ValueCache::forEachByValue(
    const std::function<bool(const StoredEntry&)>& fn) const {
  if (heap_.empty()) return;
  // A frontier heap of heap positions: the smallest unvisited node is
  // always on the frontier, because its parent was visited before it.
  const auto later = [this](std::uint32_t a, std::uint32_t b) {
    return before(heap_[b], heap_[a]);
  };
  std::vector<std::uint32_t> frontier{0};
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), later);
    const std::size_t pos = frontier.back();
    frontier.pop_back();
    if (!fn(entries_[heap_[pos].slot])) return;
    const std::size_t first = firstChildOf(pos);
    const std::size_t last = std::min(first + kArity, heap_.size());
    for (std::size_t c = first; c < last; ++c) {
      frontier.push_back(static_cast<std::uint32_t>(c));
      std::push_heap(frontier.begin(), frontier.end(), later);
    }
  }
}

void ValueCache::checkInvariants() const {
  PSCD_CHECK_EQ(heap_.size(), entries_.size())
      << "ValueCache: heap and slot array disagree";
  PSCD_CHECK_EQ(heapPos_.size(), entries_.size())
      << "ValueCache: heap positions and slot array disagree";
  PSCD_CHECK_EQ(slotOf_.size(), entries_.size())
      << "ValueCache: page map and slot array disagree";
  Bytes total = 0;
  for (std::size_t slot = 0; slot < entries_.size(); ++slot) {
    const StoredEntry& entry = entries_[slot];
    const PageId page = entry.page;
    PSCD_CHECK_GT(entry.size, 0u) << "ValueCache: zero-sized page " << page;
    PSCD_CHECK(std::isfinite(entry.value))
        << "ValueCache: non-finite value for page " << page;
    const std::uint32_t* mapped = slotOf_.find(page);
    PSCD_CHECK(mapped != nullptr && *mapped == slot)
        << "ValueCache: page map misses page " << page;
    const std::size_t pos = heapPos_[slot];
    PSCD_CHECK(pos < heap_.size() && heap_[pos].slot == slot)
        << "ValueCache: heap position of page " << page << " drifted";
    const HeapNode expect{entry.value, page, static_cast<std::uint32_t>(slot)};
    PSCD_CHECK(!before(heap_[pos], expect) && !before(expect, heap_[pos]))
        << "ValueCache: stale heap key for page " << page;
    total += entry.size;
  }
  // Every slot owns exactly one heap node (sizes match, positions round-
  // trip), so the eviction order is a permutation of the entries.
  for (std::size_t pos = 1; pos < heap_.size(); ++pos) {
    PSCD_CHECK(!before(heap_[pos], heap_[parentOf(pos)]))
        << "ValueCache: heap order broken at position " << pos;
  }
  PSCD_CHECK_EQ(total, used_) << "ValueCache: byte accounting drifted";
  PSCD_CHECK_LE(used_, capacity_) << "ValueCache: over capacity";
}

}  // namespace pscd
