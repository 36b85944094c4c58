// Fixture: pscd::FlatMap iterates in hash order exactly like
// std::unordered_map, so walking one while writing stream output must
// fire unordered-iter. A find() that never iterates stays silent.
// pscd-lint: as-path(src/pscd/cache/flat_map_iter_fixture.cpp)
#include <cstdint>
#include <ostream>

#include "pscd/util/flat_map.h"

namespace fixture {

struct Stats {
  pscd::FlatMap<std::uint64_t> hitsByPage;

  void dump(std::ostream& out) const {
    for (const auto& [page, hits] : hitsByPage) {  // pscd-lint: expect(unordered-iter)
      out << page << ',' << hits << '\n';
    }
    auto it = hitsByPage.begin();  // pscd-lint: expect(unordered-iter)
    if (it != hitsByPage.end()) {
      out << it->first << '\n';
    }
    if (hitsByPage.find(0) != nullptr) {
      out << "page 0 present\n";
    }
  }
};

}  // namespace fixture
