// PATH: src/sched/fixture.cpp
// EXPECT: 7:unordered-in-solver-path
// Fixture: the scheduler's transportation solver lives in src/sched, so an
// unordered container there is a solver-path finding too.
#include <unordered_map>

std::unordered_map<int, int> region_of_job;
