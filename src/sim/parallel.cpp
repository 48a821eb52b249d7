#include "sim/parallel.h"

#include <thread>

#include "util/assert.h"
#include "util/env.h"
#include "util/thread_pool.h"

namespace lad {

namespace {

// Upper bound on any configured thread count: generous for real machines,
// small enough to catch garbage like LAD_THREADS=1e9 before it tries to
// spawn that many workers.
constexpr long kMaxThreads = 4096;

// The LAD_THREADS pin, or -1 when the variable is unset/empty.  Anything
// present but not an integer in [1, kMaxThreads] is a named error (from
// env_int): a mistyped pin silently falling back to all cores would
// defeat the reproducibility the override exists for.
int env_thread_override() {
  return static_cast<int>(env_int("LAD_THREADS", -1, 1, kMaxThreads));
}

}  // namespace

int default_parallelism() {
  const int pinned = env_thread_override();
  if (pinned > 0) return pinned;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int resolve_threads(int threads) {
  // A negative count used to be silently treated as "use all cores" —
  // exactly what a caller computing threads from a subtraction would
  // least expect.  Reject it by name instead.
  LAD_REQUIRE_MSG(threads >= 0,
                  "thread count must be >= 0 (0 = default parallelism), "
                  "got "
                      << threads);
  return threads > 0 ? threads : default_parallelism();
}

void parallel_for_items(std::size_t n,
                        const std::function<void(std::size_t)>& fn,
                        int max_threads) {
  const int threads = resolve_threads(max_threads);
  parallel_for_shared(n, fn, static_cast<std::size_t>(threads));
}

}  // namespace lad
