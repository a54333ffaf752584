#include "util/thread_pool.hpp"

#include <chrono>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace opiso {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) return;
      seen_generation = generation_;
      // A worker that wakes after its generation completed must not
      // join it: the caller may already be rewriting n_/fn_ for the
      // next parallel_for, which this worker would read unlocked.
      if (done_ >= n_) continue;
      ++active_;
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t executed = 0;
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n_) break;
      try {
        (*fn_)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        ++task_failures_;
        if (!error_ || i < error_index_) {
          error_ = std::current_exception();
          error_index_ = i;
        }
      }
      ++executed;
    }
    const std::uint64_t worker_ns =
        static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                       std::chrono::steady_clock::now() - t0)
                                       .count());
    busy_ns_.fetch_add(worker_ns, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Report busy time before the completion signal so the caller's
      // snapshot covers every worker that did work this generation.
      if (executed > 0) generation_busy_ns_.push_back(worker_ns);
      done_ += executed;
      --active_;
      // Completion needs every task executed AND every participating
      // worker out of the task loop — a still-active worker may yet
      // touch fn_/n_/next_, which the next generation overwrites.
      if (done_ >= n_ && active_ == 0) done_cv_.notify_all();
    }
    (void)executed;
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  OPISO_REQUIRE(fn != nullptr, "ThreadPool::parallel_for: null function");
  std::lock_guard<std::mutex> job_lock(job_mu_);
  const auto wall0 = std::chrono::steady_clock::now();
  busy_ns_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    done_ = 0;
    error_ = nullptr;
    error_index_ = 0;
    task_failures_ = 0;
    generation_busy_ns_.clear();
    if (n > queue_depth_max_) queue_depth_max_ = n;
    ++generation_;
  }
  work_cv_.notify_all();
  std::exception_ptr error;
  std::vector<std::uint64_t> worker_busy;
  std::size_t queue_depth_max = 0;
  std::uint64_t task_failures = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return done_ >= n_ && active_ == 0; });
    fn_ = nullptr;
    error = error_;
    worker_busy = generation_busy_ns_;
    queue_depth_max = queue_depth_max_;
    task_failures = task_failures_;
    task_failures_ = 0;
  }

  const std::uint64_t wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           wall0)
          .count());
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("pool.parallel_for").add(1);
  m.counter("pool.tasks").add(n);
  m.counter("pool.busy_ns").add(busy_ns_.load(std::memory_order_relaxed));
  m.gauge("pool.workers").set(static_cast<double>(size()));
  m.gauge("pool.queue_depth_max").set(static_cast<double>(queue_depth_max));
  if (task_failures > 0) m.counter("pool.task_failures").add(task_failures);
  // One sample per worker that ran tasks: the histogram's min/max
  // spread is the load-imbalance signal for this pool.
  for (const std::uint64_t ns : worker_busy) {
    m.histogram("pool.worker_busy_ns").record(static_cast<double>(ns));
  }
  if (wall_ns > 0) {
    m.gauge("pool.occupancy")
        .set(static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) /
             (static_cast<double>(wall_ns) * static_cast<double>(size())));
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace opiso
