#include "util/work_steal.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

namespace ww::util {

namespace {

// Identity of the current thread within a pool: set for the lifetime of a
// worker thread, null on external threads (main, bench drivers, test
// threads). submit() and try_run_one() use it to pick the owner deque.
struct TlsWorker {
  WorkStealingPool* pool = nullptr;
  std::size_t id = 0;
};

thread_local TlsWorker tls_current;

/// parallel_for's join: how many of its tasks have not finished. Its tasks
/// never throw (parallel_for catches each body's exception), so the group
/// holds no error.
///
/// Lifetime: a finishing task decrements pending_ while holding mutex_, and
/// settle() takes mutex_ after done() holds, so once settle() returns the
/// last task has provably released the lock and never touches the group
/// again — the stack-allocated group is then safe to destroy even though
/// that task may still be running epilogue code against the pool.
class TaskGroup {
 public:
  void add() { pending_.fetch_add(1, std::memory_order_acq_rel); }
  /// Marks one task finished; true for the last one.
  bool finish() {
    const std::lock_guard lock(mutex_);
    return pending_.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }
  [[nodiscard]] bool done() const {
    return pending_.load(std::memory_order_acquire) == 0;
  }
  /// Call once done() holds, before destroying the group.
  void settle() { const std::lock_guard lock(mutex_); }

 private:
  std::atomic<std::size_t> pending_{0};
  std::mutex mutex_;
};

}  // namespace

// --- StealDeque -------------------------------------------------------------

void StealDeque::push_bottom(std::function<void()> task) {
  const std::lock_guard lock(mutex_);
  tasks_.push_back(std::move(task));
}

bool StealDeque::try_pop_bottom(std::function<void()>& out) {
  const std::lock_guard lock(mutex_);
  if (tasks_.empty()) return false;
  out = std::move(tasks_.back());
  tasks_.pop_back();
  return true;
}

bool StealDeque::try_steal_top(std::function<void()>& out) {
  const std::lock_guard lock(mutex_);
  if (tasks_.empty()) return false;
  out = std::move(tasks_.front());
  tasks_.pop_front();
  return true;
}

std::size_t StealDeque::size() const {
  const std::lock_guard lock(mutex_);
  return tasks_.size();
}

// --- WorkStealingPool -------------------------------------------------------

WorkStealingPool& WorkStealingPool::global() {
  static WorkStealingPool pool(0);
  return pool;
}

WorkStealingPool::WorkStealingPool(std::size_t threads)
    : workers_(kMaxWorkers) {
  ensure_workers(resolve_threads(threads));
}

WorkStealingPool::~WorkStealingPool() {
  stopping_.store(true, std::memory_order_release);
  notify_all_workers();
  const std::size_t n = num_workers_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) workers_[i]->thread.join();
}

std::size_t WorkStealingPool::resolve_threads(std::size_t requested) noexcept {
  if (requested != 0) return std::min(requested, kMaxWorkers);
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void WorkStealingPool::ensure_workers(std::size_t n) {
  n = std::min(n, kMaxWorkers);
  if (num_workers_.load(std::memory_order_acquire) >= n) return;
  const std::lock_guard lock(grow_mutex_);
  while (num_workers_.load(std::memory_order_relaxed) < n) {
    const std::size_t id = num_workers_.load(std::memory_order_relaxed);
    workers_[id] = std::make_unique<Worker>();
    Worker* w = workers_[id].get();
    w->thread = std::thread([this, id] { worker_loop(id); });
    // Publish the slot only after it is fully constructed: thieves iterate
    // [0, num_workers_) with an acquire load and never lock grow_mutex_.
    num_workers_.store(id + 1, std::memory_order_release);
  }
}

void WorkStealingPool::submit(std::function<void()> task) {
  if (stopping_.load(std::memory_order_acquire))
    throw std::runtime_error("WorkStealingPool: spawn after stop");
  // Increment before the push so queued_ never underflows: a dequeue can
  // only succeed after the push, which follows this increment. If the push
  // itself throws (bad_alloc in the deque), roll the count back — a stale
  // nonzero queued_ would keep every idle worker's sleep predicate true
  // forever (busy-spin with nothing to dequeue).
  queued_.fetch_add(1, std::memory_order_acq_rel);
  try {
    if (tls_current.pool == this) {
      workers_[tls_current.id]->deque.push_bottom(std::move(task));
    } else {
      inject_.push_bottom(std::move(task));
    }
  } catch (...) {
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    throw;
  }
  notify_one_worker();
}

bool WorkStealingPool::try_run_one() {
  std::function<void()> task;
  const bool is_worker = tls_current.pool == this;
  const std::size_t self = is_worker ? tls_current.id : 0;
  bool stolen = false;
  if (is_worker && workers_[self]->deque.try_pop_bottom(task)) {
    // Own deque, LIFO: the most recently spawned subtask runs first, which
    // keeps nested fork-join working sets hot and depth-first.
  } else if (inject_.try_steal_top(task)) {
    // Externally injected work drains FIFO; not counted as a steal.
  } else {
    steal_attempts_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t n = num_workers_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n && !task; ++i) {
      const std::size_t victim = (self + 1 + i) % n;
      if (is_worker && victim == self) continue;
      if (workers_[victim]->deque.try_steal_top(task)) stolen = true;
    }
    if (!task) return false;
  }
  queued_.fetch_sub(1, std::memory_order_acq_rel);
  if (stolen) tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  task();
  return true;
}

void WorkStealingPool::worker_loop(std::size_t id) {
  tls_current = {this, id};
  for (;;) {
    if (try_run_one()) continue;
    std::unique_lock lock(sleep_mutex_);
    sleep_cv_.wait(lock, [this] {
      return stopping_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stopping_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0)
      return;
  }
}

void WorkStealingPool::notify_one_worker() {
  // Notify while holding sleep_mutex_ so a worker between its predicate
  // check and its park cannot miss the wakeup.
  const std::lock_guard lock(sleep_mutex_);
  sleep_cv_.notify_one();
}

void WorkStealingPool::notify_all_workers() {
  const std::lock_guard lock(sleep_mutex_);
  sleep_cv_.notify_all();
}

void WorkStealingPool::wait_for_work(const std::function<bool()>& done) {
  std::unique_lock lock(sleep_mutex_);
  sleep_cv_.wait(lock, [this, &done] {
    return done() || queued_.load(std::memory_order_acquire) > 0;
  });
}

void WorkStealingPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  // Skip an index only when a lower one has failed: the lowest index whose
  // body throws then always runs, so the rethrown exception does not depend
  // on which worker stole what, nor on whether this loop is nested.
  std::atomic<std::size_t> failed_index{n};
  std::mutex error_mutex;
  std::exception_ptr error;
  TaskGroup group;
  const auto join = [this, &group] {
    while (!group.done()) {
      // Help while waiting: run any pending pool task (this loop's or
      // another's) instead of parking the thread. Only when every deque is
      // observed empty — all remaining work running on other threads — do
      // we park on the pool's wake channel: submit() notifies it for every
      // new task and the loop's last task notifies it on completion.
      if (try_run_one()) continue;
      wait_for_work([&group] { return group.done(); });
    }
    group.settle();
  };
  try {
    for (std::size_t i = 0; i < n; ++i) {
      group.add();
      submit([this, &fn, &failed_index, &error_mutex, &error, &group, i] {
        if (failed_index.load(std::memory_order_acquire) > i) {
          try {
            fn(i);
          } catch (...) {
            const std::lock_guard lock(error_mutex);
            if (i < failed_index.load(std::memory_order_relaxed)) {
              error = std::current_exception();
              failed_index.store(i, std::memory_order_release);
            }
          }
        }
        // The loop's locals are off limits once finish() returns true: the
        // joining thread may return and destroy them. The pool outlives
        // the loop.
        if (group.finish()) notify_all_workers();
      });
    }
  } catch (...) {
    // submit() threw (pool stopping, or bad_alloc): that task will never
    // run, so undo its count; the spawned ones reference this frame, so
    // drain them before unwinding.
    (void)group.finish();
    join();
    throw;
  }
  join();
  if (error) std::rethrow_exception(error);
}

}  // namespace ww::util
