// Process-global work-stealing task pool for scenarios × chunks.
//
// The campaign layer (dc::CampaignRunner) fans scenarios and the scheduler
// (core::WaterWiseScheduler) fans chunk solves, both through one call,
// global_parallel_for(threads, n, fn). Running those two axes on separate
// per-owner pools either oversubscribes (K·C tasks on K·C threads) or idles
// workers behind the nested-pool barrier. This pool merges the axes: every
// worker owns a deque (owner pushes/pops the bottom, LIFO; thieves steal the
// top, FIFO), so a scenario task running on a worker spawns its chunk
// subtasks into the *same* scheduler, and an idle worker — or a thread
// blocked in parallel_for's join — helps by stealing pending tasks instead
// of sleeping (help-while-waiting join).
//
// Determinism contract: the pool never orders results. Callers write results
// into caller-owned slots by index (scenario index, chunk index) and commit
// them in index order, and parallel_for rethrows the exception of the lowest
// failing index, so aggregates, decision streams and errors are
// byte-identical at any worker count and under any steal interleaving.
// Stealing is observable only through the counters below (tasks_stolen /
// steal_attempts / queue_depth), which are *observational* — like decision
// latency, they are excluded from byte-identity comparisons.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ww::util {

/// One worker's task deque. Mutex-guarded rather than lock-free Chase–Lev:
/// tasks here are coarse (a chunk MILP solve, a scenario simulation), so the
/// lock is never contended enough to matter, and the implementation is
/// trivially TSan-clean with no fences to reason about.
class StealDeque {
 public:
  /// Owner side: push a task on the bottom.
  void push_bottom(std::function<void()> task);
  /// Owner side: pop the most recently pushed task (LIFO). Returns false if
  /// the deque is empty.
  bool try_pop_bottom(std::function<void()>& out);
  /// Thief side: steal the oldest task (FIFO). Returns false if empty.
  bool try_steal_top(std::function<void()>& out);

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::deque<std::function<void()>> tasks_;
};

/// Work-stealing pool. One process-global instance (global()) serves the
/// campaign and scheduler layers; tests may construct private instances.
class WorkStealingPool {
 public:
  /// The process-wide pool. Created on first use with hardware_concurrency
  /// workers; callers with an explicit thread request (WW_SCHED_THREADS,
  /// CampaignConfig::jobs) grow it via ensure_workers().
  static WorkStealingPool& global();

  /// `threads == 0` selects hardware_concurrency (at least 1).
  explicit WorkStealingPool(std::size_t threads = 0);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Current worker count.
  [[nodiscard]] std::size_t size() const noexcept {
    return num_workers_.load(std::memory_order_acquire);
  }

  /// Worker count a pool constructed with `requested` will have
  /// (0 => hardware_concurrency, at least 1).
  [[nodiscard]] static std::size_t resolve_threads(
      std::size_t requested) noexcept;

  /// Grows the pool to at least n workers (never shrinks; capped at
  /// kMaxWorkers). Workers are appended into preallocated slots and
  /// published with a release store on the count, so concurrent thieves
  /// iterating [0, size()) never race the growth.
  void ensure_workers(std::size_t n);

  /// Runs fn(i) for i in [0, n) on the pool and waits, helping while
  /// waiting; n == 1 runs fn(0) on the caller. An index is skipped only
  /// when a *lower* index has already failed, every task is drained before
  /// returning, and the exception of the lowest failing index is rethrown.
  /// So the lowest index whose body throws is always run and always the one
  /// reported, regardless of steal interleaving or nesting.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // --- Observational counters (never part of byte-identity comparisons) ---

  /// Tasks executed by a thread other than the one that spawned them.
  [[nodiscard]] std::uint64_t tasks_stolen() const noexcept {
    return tasks_stolen_.load(std::memory_order_relaxed);
  }
  /// Steal sweeps attempted (own deque and injection queue were empty).
  [[nodiscard]] std::uint64_t steal_attempts() const noexcept {
    return steal_attempts_.load(std::memory_order_relaxed);
  }
  /// Total tasks executed (by owners, thieves, and helping waiters).
  [[nodiscard]] std::uint64_t tasks_run() const noexcept {
    return tasks_run_.load(std::memory_order_relaxed);
  }
  /// Tasks currently queued across all deques (instantaneous, approximate).
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queued_.load(std::memory_order_relaxed);
  }

  /// Hard cap on workers (growth requests above this are clamped).
  static constexpr std::size_t kMaxWorkers = 512;

 private:
  struct Worker {
    StealDeque deque;
    std::thread thread;
  };

  /// Enqueues a task from the current thread: own deque when called on a
  /// worker of *this* pool, injection queue otherwise.
  void submit(std::function<void()> task);

  /// Tries to dequeue-and-run one task: own deque (LIFO), then the
  /// injection queue, then a steal sweep over the other workers (FIFO).
  /// Returns false only if every deque was observed empty.
  bool try_run_one();

  /// Parks the calling thread on the pool's wake channel until done() holds
  /// or queued work appears. Used by parallel_for's join: submit() notifies
  /// the channel on every enqueue and a loop's last task notifies it on
  /// completion, so external waiters never need a timed repoll.
  void wait_for_work(const std::function<bool()>& done);

  void worker_loop(std::size_t id);
  void notify_one_worker();
  void notify_all_workers();

  // Fixed-capacity slot array: the vector is sized once in the constructor
  // and never reallocates, so thieves may read slots [0, num_workers_)
  // without holding grow_mutex_.
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::size_t> num_workers_{0};
  std::mutex grow_mutex_;

  StealDeque inject_;  // tasks from threads that are not pool workers

  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<bool> stopping_{false};

  std::atomic<std::size_t> queued_{0};
  std::atomic<std::uint64_t> tasks_stolen_{0};
  std::atomic<std::uint64_t> steal_attempts_{0};
  std::atomic<std::uint64_t> tasks_run_{0};
};

/// The one fan-out call. When `threads` resolves to 1 (resolve_threads:
/// 0 => hardware_concurrency) or n <= 1, it runs fn(0), ..., fn(n - 1)
/// inline on the calling thread, in index order: it neither creates nor
/// touches the pool, and it does not allocate. Otherwise it grows the
/// global pool to resolve_threads(threads) workers and runs
/// global().parallel_for(n, fn), which rethrows the exception of the lowest
/// failing index.
template <typename Fn>
void global_parallel_for(std::size_t threads, std::size_t n, Fn&& fn) {
  if (n <= 1 || WorkStealingPool::resolve_threads(threads) == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  WorkStealingPool& pool = WorkStealingPool::global();
  pool.ensure_workers(WorkStealingPool::resolve_threads(threads));
  // A reference wrapper is stored in place: the callable is not copied.
  pool.parallel_for(n, std::ref(fn));
}

}  // namespace ww::util
