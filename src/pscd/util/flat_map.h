// FlatMap: an open-addressed hash map keyed by 32-bit ids (pages,
// proxies), for the per-event tables of the decision path.
//
// One array of (key, value) slots and a parallel array of occupancy
// bytes; linear probing from a multiplicatively hashed home slot; and
// backward-shift deletion, so there are no tombstones and a lookup stops
// at the first empty slot. Every 32-bit key is usable, including 0 and
// 0xFFFFFFFF: occupancy is kept apart from the key. The hash is fixed,
// so iteration order — the slot order — depends only on the sequence of
// inserts and erases: it is the same in every run and with every
// standard library, but it is hash order, not key order. Code that folds
// iteration into output must sort first.
//
// Pointers and references into the table (find() results, iterators,
// operator[] results) are invalidated by the next insert or erase. A
// lookup of a key that is already present never invalidates them.
//
// Slots are sized for small values: a large V belongs in a dense array
// that a FlatMap<std::uint32_t> indexes, which keeps the empty slots
// (a quarter to five eighths of the table) cheap.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace pscd {

template <typename V>
class FlatMap {
 public:
  using Key = std::uint32_t;
  using value_type = std::pair<Key, V>;

  /// Iterator over the occupied slots, in slot order.
  template <bool Const>
  class Iter {
    using Map = std::conditional_t<Const, const FlatMap, FlatMap>;
    using Ref = std::conditional_t<Const, const value_type&, value_type&>;

   public:
    Iter(Map& map, std::size_t at) : map_(&map), at_(at) { skipEmpty(); }

    Ref operator*() const { return map_->slots_[at_]; }
    auto* operator->() const { return &map_->slots_[at_]; }
    Iter& operator++() {
      ++at_;
      skipEmpty();
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.at_ == b.at_;
    }

   private:
    void skipEmpty() {
      while (at_ < map_->full_.size() && map_->full_[at_] == 0) ++at_;
    }

    Map* map_;
    std::size_t at_;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  iterator begin() { return {*this, 0}; }
  iterator end() { return {*this, slots_.size()}; }
  const_iterator begin() const { return {*this, 0}; }
  const_iterator end() const { return {*this, slots_.size()}; }

  /// nullptr when the key is absent.
  V* find(Key key) {
    const std::size_t i = locate(key);
    return i == kAbsent ? nullptr : &slots_[i].second;
  }
  const V* find(Key key) const {
    const std::size_t i = locate(key);
    return i == kAbsent ? nullptr : &slots_[i].second;
  }
  bool contains(Key key) const { return locate(key) != kAbsent; }

  /// Inserts a value-initialized V when the key is absent. Returns the
  /// mapped value and whether it was inserted.
  std::pair<V*, bool> tryEmplace(Key key) {
    if (!slots_.empty()) {
      std::size_t i = home(key);
      while (full_[i] != 0) {
        if (slots_[i].first == key) return {&slots_[i].second, false};
        i = (i + 1) & mask_;
      }
      if (fits(size_ + 1)) return {&fill(i, key), true};
    }
    rehash(slots_.empty() ? kMinBuckets : 2 * slots_.size());
    std::size_t i = home(key);
    while (full_[i] != 0) i = (i + 1) & mask_;
    return {&fill(i, key), true};
  }

  V& operator[](Key key) { return *tryEmplace(key).first; }

  /// Removes the key; false when it was absent.
  bool erase(Key key) {
    std::size_t hole = locate(key);
    if (hole == kAbsent) return false;
    // Backward shift: walk the rest of the probe run and pull back into
    // the hole every entry whose home does not lie after the hole, so a
    // lookup never has to step over an empty slot.
    for (std::size_t j = (hole + 1) & mask_; full_[j] != 0;
         j = (j + 1) & mask_) {
      const std::size_t dist = (j - home(slots_[j].first)) & mask_;
      if (dist >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = value_type{};  // release what the value held
    full_[hole] = 0;
    --size_;
    return true;
  }

  /// Number of slots, and the home slot of `key` in the current table
  /// (bucketCount() must be non-zero). For tests and diagnostics.
  std::size_t bucketCount() const { return slots_.size(); }
  std::size_t bucketOf(Key key) const { return home(key); }

 private:
  static constexpr std::size_t kAbsent = ~std::size_t{0};
  static constexpr std::size_t kMinBuckets = 8;

  /// Load cap of 3/4: linear probing keeps unsuccessful lookups short,
  /// and misses are common (a cache probe for an uncached page).
  bool fits(std::size_t n) const { return 4 * n <= 3 * slots_.size(); }

  /// Fibonacci hashing: the top bits of key * 2^64/phi. Consecutive ids
  /// land far apart, so dense id ranges do not form probe clusters.
  std::size_t home(Key key) const {
    return static_cast<std::size_t>(
        (std::uint64_t{key} * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  std::size_t locate(Key key) const {
    if (size_ == 0) return kAbsent;
    for (std::size_t i = home(key); full_[i] != 0; i = (i + 1) & mask_) {
      if (slots_[i].first == key) return i;
    }
    return kAbsent;
  }

  V& fill(std::size_t i, Key key) {
    slots_[i].first = key;
    full_[i] = 1;
    ++size_;
    return slots_[i].second;
  }

  /// Moves every entry into a fresh table of `buckets` (a power of two).
  void rehash(std::size_t buckets) {
    std::vector<value_type> slots =
        std::exchange(slots_, std::vector<value_type>(buckets));
    const std::vector<std::uint8_t> full =
        std::exchange(full_, std::vector<std::uint8_t>(buckets, 0));
    mask_ = buckets - 1;
    shift_ = 64 - std::countr_zero(buckets);
    for (std::size_t j = 0; j < slots.size(); ++j) {
      if (full[j] == 0) continue;
      std::size_t i = home(slots[j].first);
      while (full_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = std::move(slots[j]);
      full_[i] = 1;
    }
  }

  std::vector<value_type> slots_;
  std::vector<std::uint8_t> full_;  // occupancy, parallel to slots_
  std::size_t mask_ = 0;
  int shift_ = 64;  // 64 - log2(bucketCount())
  std::size_t size_ = 0;
};

}  // namespace pscd
