// Fixture: pscd::FlatMap's operator[] value-initializes on a miss like
// unordered_map's, so using it in a hot loop fires map-bracket-insert;
// the same access outside a loop is a one-off and stays silent.
// pscd-lint: as-path(src/pscd/util/flat_map_bracket_insert_fixture.cpp)
#include <cstdint>
#include <vector>

#include "pscd/util/flat_map.h"
#include "pscd/util/hot.h"

namespace fixture {

struct Histogram {
  pscd::FlatMap<std::uint32_t> counts_;

  PSCD_HOT void add(const std::vector<std::uint32_t>& keys) {
    for (const std::uint32_t k : keys) {
      ++counts_[k];  // pscd-lint: expect(map-bracket-insert)
    }
    counts_[0] += 1;  // not in a loop: no finding
  }
};

}  // namespace fixture
