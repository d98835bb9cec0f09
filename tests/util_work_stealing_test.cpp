// Unit tests for the process-global work-stealing pool: deque ordering
// (owner LIFO / thief FIFO), randomized nested parallel_for trees checked
// against a serial reference with an order-sensitive fold, the
// help-while-waiting join, steal-counter sanity, the lowest-failing-index
// rethrow (nested too), and global_parallel_for's inline path.  All shapes
// are derived from util::Rng named streams, so every run exercises
// bit-identical trees.
#include "util/work_steal.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace ww::util {
namespace {

TEST(StealDeque, OwnerPopsLifoThiefStealsFifo) {
  StealDeque dq;
  std::vector<int> order;
  for (int v : {1, 2, 3})
    dq.push_bottom([&order, v] { order.push_back(v); });
  EXPECT_EQ(dq.size(), 3u);

  std::function<void()> task;
  // Owner side is a stack: the most recently pushed task comes back first.
  ASSERT_TRUE(dq.try_pop_bottom(task));
  task();
  ASSERT_EQ(order.back(), 3);
  // Thief side is a queue: steals take the *oldest* task.
  ASSERT_TRUE(dq.try_steal_top(task));
  task();
  ASSERT_EQ(order.back(), 1);
  ASSERT_TRUE(dq.try_pop_bottom(task));
  task();
  ASSERT_EQ(order.back(), 2);

  EXPECT_EQ(dq.size(), 0u);
  EXPECT_FALSE(dq.try_pop_bottom(task));
  EXPECT_FALSE(dq.try_steal_top(task));
}

TEST(WorkStealingPool, ResolveThreadsAndGrowth) {
  EXPECT_EQ(WorkStealingPool::resolve_threads(3), 3u);
  EXPECT_GE(WorkStealingPool::resolve_threads(0), 1u);
  EXPECT_EQ(WorkStealingPool::resolve_threads(100000),
            WorkStealingPool::kMaxWorkers);

  WorkStealingPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  pool.ensure_workers(4);
  EXPECT_EQ(pool.size(), 4u);
  pool.ensure_workers(1);  // never shrinks
  EXPECT_EQ(pool.size(), 4u);
}

TEST(WorkStealingPool, ParallelForCoversAllIndicesExactlyOnce) {
  WorkStealingPool pool(4);
  constexpr std::size_t kTasks = 500;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.parallel_for(kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(WorkStealingPool, GlobalParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(128);
  global_parallel_for(2, hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(WorkStealingPool::global().size(), 2u);
}

TEST(WorkStealingPool, GlobalParallelForOneThreadRunsInlineInOrder) {
  // threads == 1 is the serial path: every index on the calling thread, in
  // index order, and the pool is not grown (nor handed a task).
  const std::size_t workers = WorkStealingPool::global().size();
  const std::uint64_t tasks = WorkStealingPool::global().tasks_run();
  const auto caller = std::this_thread::get_id();
  std::mutex mutex;  // guards the record should indices run elsewhere
  std::vector<std::size_t> order;
  bool on_caller = true;
  global_parallel_for(1, 64, [&](std::size_t i) {
    const std::lock_guard lock(mutex);
    on_caller = on_caller && std::this_thread::get_id() == caller;
    order.push_back(i);
  });
  EXPECT_TRUE(on_caller);
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(WorkStealingPool::global().size(), workers);
  EXPECT_EQ(WorkStealingPool::global().tasks_run(), tasks);
}

// --- Randomized nested fork-join trees vs a serial reference --------------

struct Node {
  long value = 0;
  std::vector<Node> kids;
};

/// Deterministic tree: every shape decision comes from a named child
/// stream of the seed, so the same seed always yields the same tree.
Node build_tree(const Rng& stream, int depth) {
  Rng rng = stream;
  Node n;
  n.value = rng.uniform_int(-1000, 1000);
  if (depth == 0) return n;
  const auto fanout = rng.uniform_int(2, 8);
  n.kids.reserve(static_cast<std::size_t>(fanout));
  for (std::int64_t k = 0; k < fanout; ++k)
    n.kids.push_back(
        build_tree(rng.child(static_cast<std::uint64_t>(k)), depth - 1));
  return n;
}

/// Order-sensitive fold (h = h * 31 + child), so a commit in anything but
/// child-index order changes the fingerprint — unlike a plain sum, which
/// would hide reorderings.  Unsigned, so the fold wraps instead of
/// overflowing.
std::uint64_t serial_fold(const Node& n) {
  auto h = static_cast<std::uint64_t>(n.value);
  for (const Node& kid : n.kids) h = h * 31 + serial_fold(kid);
  return h;
}

std::uint64_t parallel_fold(WorkStealingPool& pool, const Node& n) {
  if (n.kids.empty()) return static_cast<std::uint64_t>(n.value);
  std::vector<std::uint64_t> kid(n.kids.size(), 0);
  pool.parallel_for(n.kids.size(), [&pool, &n, &kid](std::size_t i) {
    kid[i] = parallel_fold(pool, n.kids[i]);  // disjoint slot per child
  });
  auto h = static_cast<std::uint64_t>(n.value);
  for (const std::uint64_t v : kid) h = h * 31 + v;  // child-index order
  return h;
}

TEST(WorkStealingPool, RandomizedNestedForkJoinMatchesSerial) {
  // Depth-3 and depth-4 trees with fanout 2..8: thousands of tasks whose
  // spawning tasks themselves block in helping joins.  Nested parallel_for
  // on one pool is exactly the scenario x chunk shape the scheduler runs.
  WorkStealingPool pool(4);
  const Rng root(20260808);
  for (const int depth : {3, 4}) {
    for (std::uint64_t seed_idx = 0; seed_idx < 4; ++seed_idx) {
      const Node tree =
          build_tree(root.child("tree").child(seed_idx), depth);
      const std::uint64_t want = serial_fold(tree);
      const std::uint64_t got = parallel_fold(pool, tree);
      EXPECT_EQ(got, want) << "depth=" << depth << " seed=" << seed_idx;
    }
  }
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(WorkStealingPool, WaitHelpsWhileSoleWorkerIsBlocked) {
  // One worker, pinned by one of two spinning tasks that a second thread
  // runs through parallel_for (that thread runs the other one itself).
  // Every task the main thread's parallel_for then queues can only finish
  // if its join runs it on the *waiting* thread (help-while-waiting).  A
  // parking join would deadlock here; a helping join finishes all eight
  // before the release.
  WorkStealingPool pool(1);
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  // det-ok: test-only blocker thread, off the pool by design
  std::thread blocker([&pool, &started, &release] {
    pool.parallel_for(2, [&started, &release](std::size_t) {
      started.fetch_add(1, std::memory_order_acq_rel);
      while (!release.load(std::memory_order_acquire))
        std::this_thread::yield();
    });
  });
  while (started.load(std::memory_order_acquire) < 2)
    std::this_thread::yield();

  std::atomic<int> ran{0};
  pool.parallel_for(
      8, [&ran](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
  // The sole worker is still spinning in a blocker task, so the helping
  // waiter must have executed all eight itself.
  EXPECT_EQ(ran.load(), 8);
  EXPECT_FALSE(release.load());
  release.store(true, std::memory_order_release);
  blocker.join();
}

TEST(WorkStealingPool, GroupDestroyedImmediatelyAfterWaitIsSafe) {
  // Regression for a completion-path lifetime race: the last task used to
  // decrement its loop's pending count *before* locking the join's mutex to
  // notify, so a waiter could observe zero, return from parallel_for, and
  // destroy the stack-allocated join while the task was still about to
  // lock the now dead mutex.  Thousands of short-lived loops whose tasks
  // finish right as the join returns keep that window hot; the suite's
  // TSan job flags the use-after-free if the decrement ever moves back
  // outside the lock.
  WorkStealingPool pool(4);
  std::atomic<long> ran{0};
  for (int wave = 0; wave < 1500; ++wave)
    pool.parallel_for(4, [&ran](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });  // the join is destroyed as parallel_for returns, every iteration
  EXPECT_EQ(ran.load(), 1500L * 4);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(WorkStealingPool, ParkedWaiterWakesOnGroupCompletion) {
  // The waiter parks on the pool's wake channel once every deque is empty
  // (the remaining tasks are *running*); the loop's last task must notify
  // that channel or parallel_for would hang forever.  The release comes
  // from a separate thread, so once the waiting main thread has finished
  // any task it took itself, it really has nothing to help with.
  WorkStealingPool pool(2);
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  // det-ok: test-only releaser thread, off the pool by design
  std::thread releaser([&started, &release] {
    while (started.load(std::memory_order_acquire) < 2)
      std::this_thread::yield();
    for (int i = 0; i < 1000; ++i) std::this_thread::yield();
    release.store(true, std::memory_order_release);
  });
  pool.parallel_for(2, [&started, &release](std::size_t) {
    started.fetch_add(1, std::memory_order_acq_rel);
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
  });  // must wake on the completion notification, not a timeout
  releaser.join();
  EXPECT_TRUE(release.load());
}

TEST(WorkStealingPool, StealCountersAreSane) {
  // Counters are observational; what must hold under any interleaving:
  // every executed task is counted once, every successful steal implies an
  // attempt, and the queue drains to zero after a join.
  WorkStealingPool pool(4);
  const std::uint64_t run_before = pool.tasks_run();
  const Rng root(4242);
  const Node tree = build_tree(root.child("counters"), 3);
  (void)parallel_fold(pool, tree);

  std::size_t spawned = 0;
  const std::function<void(const Node&)> count = [&](const Node& n) {
    spawned += n.kids.size();  // one task per child of an inner node
    for (const Node& kid : n.kids) count(kid);
  };
  count(tree);

  EXPECT_EQ(pool.tasks_run() - run_before, spawned);
  EXPECT_LE(pool.tasks_stolen(), pool.steal_attempts());
  EXPECT_LE(pool.tasks_stolen(), pool.tasks_run());
  EXPECT_EQ(pool.queue_depth(), 0u);
}

// --- Exception propagation ------------------------------------------------

TEST(WorkStealingPool, ParallelForRethrowsLowestFailingIndex) {
  // Every index throws an error naming itself.  An index is skipped only
  // after a lower one failed, so index 0 always runs and is always the one
  // rethrown, regardless of which workers stole what.
  WorkStealingPool pool(4);
  constexpr std::size_t kTasks = 64;
  try {
    pool.parallel_for(kTasks, [](std::size_t i) {
      throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "parallel_for did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(WorkStealingPool, NestedParallelForRethrowsLowestFailingIndex) {
  // The scenario x chunk shape with failing chunks: each of four outer
  // tasks runs an inner loop of eight whose indices 0 and 7 throw.  Under
  // nesting, workers and helping joins pick up inner tasks in any order, so
  // index 7 often fails first; the inner loop must still report index 0.
  WorkStealingPool pool(2);
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<std::string> reported(4);
    pool.parallel_for(4, [&pool, &reported](std::size_t outer) {
      try {
        pool.parallel_for(8, [](std::size_t i) {
          if (i == 0 || i == 7) throw std::runtime_error(std::to_string(i));
        });
        reported[outer] = "no exception";
      } catch (const std::runtime_error& e) {
        reported[outer] = e.what();
      }
    });
    for (std::size_t outer = 0; outer < reported.size(); ++outer)
      ASSERT_EQ(reported[outer], "0") << "rep " << rep << " outer " << outer;
  }
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(WorkStealingPool, NestedGroupPropagatesThroughOuterTask) {
  // An inner loop's failure rethrows from the inner parallel_for inside an
  // outer task, which the outer loop rethrows in turn: errors surface
  // through nested fork-join scopes, not into std::terminate on a worker
  // thread.
  WorkStealingPool pool(2);
  EXPECT_THROW(pool.parallel_for(2,
                                 [&pool](std::size_t) {
                                   pool.parallel_for(2, [](std::size_t) {
                                     throw std::logic_error("inner failure");
                                   });
                                 }),
               std::logic_error);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(WorkStealingPool, ManyWavesOnOneExternalThread) {
  // The campaign pattern: one long-lived pool, many short fan-out waves
  // injected from a non-worker thread.  The notify/park edge is where
  // lost-wakeup bugs live, so wave count is high and tasks are tiny.
  WorkStealingPool pool(3);
  std::atomic<long> hits{0};
  for (int wave = 0; wave < 200; ++wave) {
    pool.parallel_for(17, [&hits](std::size_t) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(hits.load(), 200L * 17);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

}  // namespace
}  // namespace ww::util
