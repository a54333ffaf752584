#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace opiso {

namespace {

std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - t0)
                                        .count());
}

}  // namespace

unsigned resolve_threads(unsigned threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  return std::max(threads, 1u);
}

void parallel_for(unsigned threads, std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  OPISO_REQUIRE(fn != nullptr, "parallel_for: null function");
  const auto workers =
      static_cast<unsigned>(std::min<std::size_t>(resolve_threads(threads), n));
  const auto wall0 = std::chrono::steady_clock::now();
  std::atomic<std::size_t> next{0};
  std::vector<std::uint64_t> busy_ns(workers, 0);  // slot w is worker w's alone
  // The smallest-index failure, and the count of every throwing task.
  std::mutex mu;
  std::exception_ptr error;
  std::size_t error_index = 0;
  std::uint64_t failures = 0;
  {
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        const auto t0 = std::chrono::steady_clock::now();
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) break;
          try {
            fn(i);
          } catch (...) {
            std::lock_guard<std::mutex> lock(mu);
            ++failures;
            if (!error || i < error_index) {
              error = std::current_exception();
              error_index = i;
            }
          }
        }
        busy_ns[w] = ns_since(t0);
      });
    }
  }  // joins every worker: their writes happen before everything below

  const std::uint64_t wall_ns = ns_since(wall0);
  std::uint64_t busy = 0;
  obs::MetricsRegistry& m = obs::metrics();
  // One sample per worker: the histogram's min/max spread is the
  // load-imbalance signal of the call.
  for (const std::uint64_t ns : busy_ns) {
    busy += ns;
    m.histogram("pool.worker_busy_ns").record(static_cast<double>(ns));
  }
  m.counter("pool.parallel_for").add(1);
  m.counter("pool.tasks").add(n);
  m.counter("pool.busy_ns").add(busy);
  m.gauge("pool.workers").set(static_cast<double>(workers));
  if (failures > 0) m.counter("pool.task_failures").add(failures);
  if (wall_ns > 0) {
    m.gauge("pool.occupancy")
        .set(static_cast<double>(busy) /
             (static_cast<double>(wall_ns) * static_cast<double>(workers)));
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace opiso
