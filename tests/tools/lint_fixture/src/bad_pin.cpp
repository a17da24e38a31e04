// Seeded pool-pin violation: library code swapping the global pool.
// A comment may name GlobalPoolPin; only code is reported.
#include "util/thread_pool.hpp"

namespace fixture {
void serial_section(ThreadPool& one) { GlobalPoolPin pin(one); }
}  // namespace fixture
