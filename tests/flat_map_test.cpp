// FlatMap against std::unordered_map under long seeded operation streams.
// Keys are drawn partly from a pool whose home slots sit at the end of
// the table, so probe runs wrap around to slot 0 and backward-shift
// deletion has to pull entries across the wrap; 0 and 0xFFFFFFFF are in
// every stream, since no key is reserved as an empty marker.
#include "pscd/util/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "pscd/util/rng.h"

namespace pscd {
namespace {

using Key = std::uint32_t;

/// Every key the reference holds is found with its value, and iteration
/// yields exactly the reference's entries.
void expectSameContents(const FlatMap<std::uint64_t>& map,
                        const std::unordered_map<Key, std::uint64_t>& ref) {
  ASSERT_EQ(map.size(), ref.size());
  ASSERT_EQ(map.empty(), ref.empty());
  for (const auto& [key, value] : ref) {
    const std::uint64_t* found = map.find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    ASSERT_EQ(*found, value) << "key " << key;
  }
  std::size_t walked = 0;
  for (const auto& [key, value] : map) {
    const auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << "iterated stray key " << key;
    ASSERT_EQ(value, it->second);
    ++walked;
  }
  ASSERT_EQ(walked, ref.size());
}

/// Keys whose home slot lies in the last `tail` slots of a table of
/// `map`'s current bucket count.
std::vector<Key> keysHomedAtTableEnd(const FlatMap<std::uint64_t>& map,
                                     std::size_t tail, std::size_t want) {
  std::vector<Key> keys;
  for (Key k = 1; keys.size() < want; ++k) {
    if (map.bucketOf(k) + tail >= map.bucketCount()) keys.push_back(k);
  }
  return keys;
}

/// Runs `ops` random insert/erase/find/operator[] steps in lockstep.
/// `maxSize` bounds the map so a reserved table never rehashes.
void runLockstep(FlatMap<std::uint64_t>& map, const std::vector<Key>& pool,
                 std::uint64_t seed, int ops, std::size_t maxSize) {
  std::unordered_map<Key, std::uint64_t> ref;
  Rng rng(seed);
  for (int step = 0; step < ops; ++step) {
    Key key = pool[rng.uniformInt(std::uint64_t{pool.size()})];
    switch (rng.uniformInt(std::uint64_t{16})) {
      case 0: key = 0; break;
      case 1: key = 0xFFFFFFFFu; break;
      default: break;
    }
    switch (rng.uniformInt(std::uint64_t{5})) {
      case 0: {  // tryEmplace
        if (ref.size() >= maxSize && !ref.contains(key)) break;
        const auto [value, inserted] = map.tryEmplace(key);
        const auto [it, refInserted] = ref.try_emplace(key, 0);
        ASSERT_EQ(inserted, refInserted) << "step " << step;
        *value = static_cast<std::uint64_t>(step);
        it->second = static_cast<std::uint64_t>(step);
        break;
      }
      case 1: {  // operator[] read-modify-write
        if (ref.size() >= maxSize && !ref.contains(key)) break;
        map[key] += 3;
        ref[key] += 3;
        break;
      }
      case 2:
        ASSERT_EQ(map.erase(key), ref.erase(key) == 1) << "step " << step;
        break;
      case 3:
        key = static_cast<Key>(rng.next());  // almost surely absent
        [[fallthrough]];
      default: {
        const std::uint64_t* found = map.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end()) << "step " << step;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
        ASSERT_EQ(map.contains(key), it != ref.end());
      }
    }
    ASSERT_EQ(map.size(), ref.size()) << "step " << step;
    if (step % 4096 == 0) expectSameContents(map, ref);
  }
  expectSameContents(map, ref);
}

TEST(FlatMapTest, EmptyMapFindsNothing) {
  FlatMap<std::uint64_t> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_EQ(map.find(0xFFFFFFFFu), nullptr);
  EXPECT_FALSE(map.erase(7));
  EXPECT_EQ(map.begin(), map.end());
}

TEST(FlatMapTest, ExtremeKeysAreOrdinaryKeys) {
  FlatMap<std::uint64_t> map;
  map[0] = 10;
  map[0xFFFFFFFFu] = 20;
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(*map.find(0), 10u);
  EXPECT_EQ(*map.find(0xFFFFFFFFu), 20u);
  EXPECT_TRUE(map.erase(0));
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_EQ(*map.find(0xFFFFFFFFu), 20u);
}

TEST(FlatMapTest, LookupOfPresentKeyKeepsPointers) {
  FlatMap<std::uint64_t> map;
  for (Key k = 0; k < 6; ++k) map[k] = k;  // 6 of 8 slots: at the cap
  std::uint64_t* five = map.find(5);
  const auto [again, inserted] = map.tryEmplace(5);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(again, five);  // no rehash for a key that is present
  EXPECT_EQ(map.bucketCount(), 8u);
}

/// A map grown to `buckets` slots and emptied again: tables never
/// shrink, so the slot count stays fixed while size() <= 3/4 of it.
FlatMap<std::uint64_t> emptyMapWithBuckets(std::size_t buckets) {
  FlatMap<std::uint64_t> map;
  const auto fill = static_cast<Key>(buckets * 3 / 4);
  for (Key k = 0; k < fill; ++k) map[k] = k;
  for (Key k = 0; k < fill; ++k) map.erase(k);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.bucketCount(), buckets);
  return map;
}

TEST(FlatMapTest, ProbeRunsWrapAroundTheTableEnd) {
  FlatMap<std::uint64_t> map = emptyMapWithBuckets(64);
  // 24 keys homed in the last 4 slots: the run must spill past the end.
  for (const Key k : keysHomedAtTableEnd(map, 4, 24)) map[k] = k;
  ASSERT_EQ(map.bucketCount(), 64u);
  const Key first = map.begin()->first;  // the entry in the lowest slot
  EXPECT_GE(map.bucketOf(first), 60u) << "slot 0 holds a wrapped entry";
}

TEST(FlatMapTest, AgreesWithUnorderedMapOnWrappingClusters) {
  FlatMap<std::uint64_t> map = emptyMapWithBuckets(128);
  const std::size_t buckets = map.bucketCount();
  // A third of the pool is homed in the last 8 slots, the rest anywhere.
  std::vector<Key> pool = keysHomedAtTableEnd(map, 8, 40);
  Rng rng(77);
  while (pool.size() < 120) pool.push_back(static_cast<Key>(rng.next()));
  runLockstep(map, pool, 2026, 150000, 96);
  EXPECT_EQ(map.bucketCount(), buckets) << "bounded size never rehashes";
}

TEST(FlatMapTest, AgreesWithUnorderedMapWhileGrowing) {
  FlatMap<std::uint64_t> map;
  std::vector<Key> pool;
  Rng rng(5);
  for (Key k = 0; k < 3000; ++k) pool.push_back(k * 7919u);
  for (int i = 0; i < 1000; ++i) pool.push_back(static_cast<Key>(rng.next()));
  runLockstep(map, pool, 99, 120000, pool.size() + 2);
}

TEST(FlatMapTest, ErasedValuesAreReleased) {
  FlatMap<std::vector<std::string>> map;
  map[3].assign(4, "payload");
  ASSERT_TRUE(map.erase(3));
  EXPECT_TRUE(map[3].empty()) << "a re-inserted key starts value-initialized";
}

}  // namespace
}  // namespace pscd
