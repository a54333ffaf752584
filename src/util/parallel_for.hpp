#pragma once
// Deterministic fan-out of independent tasks.
//
// parallel_for runs N independent, pure tasks on worker threads that
// the call starts and joins itself. Tasks are identified by index and
// must write their outputs into index-addressed slots; because no task
// reads another task's output and the join orders every task's writes
// before the caller reduces the slots in index order, results are
// bitwise identical for any worker count — the property the sweep
// runner's determinism CI job checks (`--threads 1` vs `--threads 8`).
//
// Scheduling is one shared atomic next-index (work stealing at the
// granularity of one task). The caller runs no task, and no call starts
// more workers than it has tasks. A throwing task does not stop the
// others; once every worker has joined, the exception of the smallest
// throwing index is rethrown (again: deterministic).
//
// Occupancy metrics flush to the registry once per call ("pool.tasks",
// "pool.busy_ns", "pool.occupancy", the workers started as
// "pool.workers" and the per-worker "pool.worker_busy_ns" histogram),
// never per task.

#include <cstddef>
#include <functional>

namespace opiso {

/// `threads`, or std::thread::hardware_concurrency (min 1) when it is 0.
[[nodiscard]] unsigned resolve_threads(unsigned threads);

/// Run fn(i) for every i in [0, n) on min(resolve_threads(threads), n)
/// workers, blocking until all of them have joined.
void parallel_for(unsigned threads, std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace opiso
