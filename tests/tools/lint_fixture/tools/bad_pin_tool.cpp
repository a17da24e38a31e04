// Seeded pool-pin violation in a command-line tool: a flag that pinned
// the pool would be a thread-placement option, which the pin is not.
#include "util/thread_pool.hpp"

int main() {
  fixture::ThreadPool one;
  fixture::GlobalPoolPin pin(one);
  return 0;
}
