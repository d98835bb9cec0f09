#include "util/work_steal.hpp"

#include <algorithm>
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
  // Fail fast (iterations queued after the first failure are skipped),
  // drain every task before returning, and rethrow the exception of the
  // lowest failing index — deterministic regardless of which worker stole
  // what.
  std::vector<std::exception_ptr> errors(n);
  std::atomic<bool> failed{false};
  TaskGroup group(*this);
  for (std::size_t i = 0; i < n; ++i) {
    group.spawn([&fn, &errors, &failed, i] {
      if (failed.load(std::memory_order_acquire)) return;
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
        failed.store(true, std::memory_order_release);
      }
    });
  }
  group.wait();
  for (std::size_t i = 0; i < n; ++i)
    if (errors[i]) std::rethrow_exception(errors[i]);
}

void global_parallel_for(std::size_t threads, std::size_t n,
                         const std::function<void(std::size_t)>& fn) {
  WorkStealingPool& pool = WorkStealingPool::global();
  pool.ensure_workers(WorkStealingPool::resolve_threads(threads));
  pool.parallel_for(n, fn);
}

// --- TaskGroup --------------------------------------------------------------

TaskGroup::TaskGroup(WorkStealingPool& pool) : pool_(pool) {}

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // Destructor join swallows task exceptions; call wait() to observe them.
  }
}

void TaskGroup::spawn(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  try {
    // `&pool = pool_` is captured separately because the epilogue below may
    // run after wait() has returned and the group been destroyed; past that
    // point the wrapper must not read through `this` (see below).
    pool_.submit([this, &pool = pool_, fn = std::move(fn)]() mutable {
      std::exception_ptr err;
      try {
        fn();
      } catch (...) {
        err = std::current_exception();
      }
      bool last = false;
      {
        // Decrement pending_ while holding mutex_. wait() re-takes mutex_
        // after observing pending_ == 0, so by the time it can return this
        // wrapper has provably released the lock — decrementing first and
        // locking after would let a waiter slip through, destroy the group,
        // and leave us locking a dead mutex.
        const std::lock_guard lock(mutex_);
        if (err && !error_) error_ = std::move(err);
        last = pending_.fetch_sub(1, std::memory_order_acq_rel) == 1;
      }
      // Group members are off limits from here on. Wake any waiter parked
      // on the pool's channel (idle workers re-check their predicate and
      // park again). The captured pool reference outlives the group.
      if (last) pool.notify_all_workers();
    });
  } catch (...) {
    // submit() threw (pool stopping, or bad_alloc building the wrapper):
    // the task will never run, so roll back the count a wait() — including
    // the destructor's — would otherwise block on forever.
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    throw;
  }
}

void TaskGroup::wait() {
  while (pending_.load(std::memory_order_acquire) != 0) {
    // Help while waiting: run any pending pool task (this group's or
    // another's) instead of parking the thread. Only when every deque is
    // observed empty — all remaining work running on other threads — do we
    // park, on the pool's wake channel: submit() notifies it for every new
    // task (so late-spawned work is helped immediately) and the last task's
    // wrapper notifies it on group completion, so no timed repoll is needed.
    if (pool_.try_run_one()) continue;
    pool_.wait_for_work(
        [this] { return pending_.load(std::memory_order_acquire) == 0; });
  }
  // pending_ reached 0, so no wrapper will touch error_ again; taking
  // mutex_ here additionally guarantees the last wrapper has *released* the
  // lock it decremented under, making it safe for the caller to destroy the
  // group the moment we return.
  std::exception_ptr err;
  {
    const std::lock_guard lock(mutex_);
    err = std::exchange(error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace ww::util
