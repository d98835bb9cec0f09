// PATH: src/core/fixture.cpp
// EXPECT: 12:unused-det-ok
// EXPECT: 13:unused-det-ok
// EXPECT: 15:unused-det-ok
// EXPECT: 19:unused-det-ok
// Fixture: a justified det-ok that excuses no finding is itself a finding,
// so a waiver cannot outlive the code it excused.  Covered: a waiver on a
// clean line, a comment-only waiver above a clean line, one cut off from its
// code line by a blank line, and one with no line after it.  The waiver on
// the unordered_map is used and stays silent.
#include <unordered_map>
long budget = 20000;  // det-ok: neutralizes a limit that no longer exists
// det-ok: lookup-only, never iterated
long other_budget = 400;
// det-ok: a comment-only waiver must sit directly above its code line

std::unordered_map<int, int> index;  // det-ok: lookup-only, never iterated

// det-ok: nothing follows this waiver
