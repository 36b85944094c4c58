// Byte-capacity page store ordered by a per-page value, the common
// substrate of every replacement strategy in the paper: GD* evicts the
// least-valued pages until a new page fits; SUB-style admission evicts
// only pages whose value is strictly below the incoming page's value and
// otherwise refuses the insert.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "pscd/cache/entry.h"
#include "pscd/util/flat_map.h"
#include "pscd/util/types.h"

namespace pscd {

/// Value-ordered cache. Mutations that affect ordering go through
/// updateValue(); entries are exposed read-only.
///
/// Entries live in a dense slot array with a page -> slot FlatMap; a
/// 4-ary min-heap over (value, page) orders them for eviction, and each
/// slot records its heap position so a re-key sifts in place. A re-key
/// never moves a slot: a find() or recordAccess() result stays valid
/// until the next insert or erase.
class ValueCache {
 public:
  struct StoredEntry : CacheEntry {
    double value = 0.0;
  };

  explicit ValueCache(Bytes capacity);

  Bytes capacity() const { return capacity_; }
  Bytes used() const { return used_; }
  Bytes free() const { return capacity_ - used_; }
  std::size_t size() const { return entries_.size(); }

  /// Adjusts the capacity (used by the adaptive dual-cache partitions).
  /// The new capacity must not be below the currently used bytes.
  void setCapacity(Bytes capacity);

  bool contains(PageId page) const { return slotOf_.contains(page); }

  /// nullptr when the page is not cached.
  const StoredEntry* find(PageId page) const;

  /// GD*-style eviction: removes lowest-valued entries until `size`
  /// bytes are free, in eviction order. Returns std::nullopt (and evicts
  /// nothing) when size exceeds the capacity.
  std::optional<std::vector<StoredEntry>> evictFor(Bytes size);

  /// SUB-style admission check: evicts entries with value strictly below
  /// `value` (lowest first) until `size` bytes are free. If even
  /// evicting all such candidates cannot free enough space, evicts
  /// nothing and returns std::nullopt.
  std::optional<std::vector<StoredEntry>> tryEvictLowerThan(double value,
                                                            Bytes size);

  /// Inserts without evicting; requires free() >= entry.size and the
  /// page not already present.
  void insertNoEvict(const CacheEntry& entry, double value);

  /// Removes a page, returning its entry if it was present.
  std::optional<StoredEntry> erase(PageId page);

  /// Re-keys an existing page's ordering value.
  void updateValue(PageId page, double value);
  /// The same for an entry obtained from find() or recordAccess(),
  /// without a second lookup.
  void updateValue(const StoredEntry& cached, double value);

  /// Bumps the access bookkeeping of a cached page (accessCount +1,
  /// lastAccess = now). Ordering is unchanged; call updateValue() after
  /// recomputing the value. Returns the updated entry.
  const StoredEntry& recordAccess(PageId page, SimTime now);
  /// The same for an entry obtained from find(), without a second lookup.
  const StoredEntry& recordAccess(const StoredEntry& cached, SimTime now);

  /// Smallest value currently cached; requires a non-empty cache.
  double minValue() const;

  /// Applies fn to every entry in ascending (value, page) order — a
  /// deterministic order, so callers may fold into output-visible state.
  /// fn must not mutate the cache.
  void forEach(const std::function<void(const StoredEntry&)>& fn) const;

  /// Applies fn to every entry in ascending (value, page) order; stops
  /// early when fn returns false. The walk is lazy: visiting k entries
  /// costs O(k log k), not a sort of the whole cache.
  void forEachByValue(const std::function<bool(const StoredEntry&)>& fn) const;

  /// Test hook: validates the page map and the heap against the slots.
  void checkInvariants() const;

 private:
  friend class InvariantCorrupter;  // test-only state corruption hook

  /// Heap node: the ordering key (value, page) and the slot it orders.
  struct HeapNode {
    double value;
    PageId page;
    std::uint32_t slot;
  };

  /// Strict (value, page) order; ties on value break on page id.
  static bool before(const HeapNode& a, const HeapNode& b) {
    return a.value < b.value || (!(b.value < a.value) && a.page < b.page);
  }

  std::uint32_t slotOf(const StoredEntry& cached) const;
  void place(std::size_t pos, const HeapNode& node);
  void siftUp(std::size_t pos);
  void siftDown(std::size_t pos);
  /// Restores heap order around `pos` after its key changed.
  void resift(std::size_t pos);
  StoredEntry removeSlot(std::uint32_t slot);

  Bytes capacity_;
  Bytes used_ = 0;
  std::vector<StoredEntry> entries_;      // dense slots [0, size())
  std::vector<std::uint32_t> heapPos_;    // slot -> position in heap_
  std::vector<HeapNode> heap_;            // 4-ary min-heap by before()
  FlatMap<std::uint32_t> slotOf_;         // page -> slot
  std::vector<std::uint32_t> walk_;       // scratch of tryEvictLowerThan
};

}  // namespace pscd
