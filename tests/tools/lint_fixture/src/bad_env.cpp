// Seeded env-knob violation: a library TU reading an undocumented
// environment variable. BAFFLE_THREADS is on the allow-list and must
// not be reported.
#include <cstdlib>

namespace fixture {
bool knob() { return std::getenv("BAFFLE_SECRET_KNOB") != nullptr; }
bool threads() { return std::getenv("BAFFLE_THREADS") != nullptr; }
}  // namespace fixture
