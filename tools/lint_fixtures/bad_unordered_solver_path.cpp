// PATH: tests/support/milp/fixture.cpp
// EXPECT: 8:unordered-in-solver-path
// EXPECT: 12:unordered-in-solver-path
// Fixture: unordered containers in a solver path without justification.
#include <unordered_map>
#include <unordered_set>

std::unordered_map<int, double> build_costs();

void touch() {
  // The declaration is the finding; any later iteration rides on it.
  std::unordered_set<int> seen;
  seen.insert(3);
}
