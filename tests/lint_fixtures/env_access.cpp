// Fixture: ambient environment reads/writes make behavior depend on
// state no seed controls.
#include <cstdlib>

namespace fixture {

const char* threadOverride() {
  return std::getenv("PSCD_THREADS");  // pscd-lint: expect(env-access)
}

void pollute() {
  setenv("PSCD_MODE", "fast", 1);  // pscd-lint: expect(env-access)
}

}  // namespace fixture
