// PATH: tests/fixture_test.cpp
// EXPECT: 9:raw-thread-or-async
// EXPECT: 10:raw-thread-or-async
// Fixture: raw threads and std::async outside util/work_steal.
#include <future>
#include <thread>

void fan_out() {
  std::thread worker([] {});
  auto f = std::async([] { return 1; });
  worker.join();
  f.get();
}
