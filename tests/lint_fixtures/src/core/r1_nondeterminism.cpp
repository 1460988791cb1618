// Fixture: every R1 (nondeterminism) trigger. Expected hits are asserted by
// line number in tests/lint_test.cpp — keep the layout stable.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

namespace fixture {

unsigned bad_entropy() {
  std::random_device device;  // line 11: entropy source
  return device();
}

int bad_rand() {
  std::srand(42);            // line 16: hidden global state
  return std::rand();        // line 17
}

long bad_wall_time() {
  return std::time(nullptr);  // line 21: wall clock
}

long bad_clock_now() {
  return std::chrono::steady_clock::now().time_since_epoch().count();  // 25
}

// An alias hides the clock from a `*_clock::now()` match: the rule flags the
// name where the alias is made (line 30), so the call below needs no hit.
using Clock = std::chrono::steady_clock;  // line 30
long bad_aliased_now() { return Clock::now().time_since_epoch().count(); }

// Negative controls: member access and non-call uses must NOT fire.
struct Msg {
  double time = 0.0;
};
double ok_member(const Msg& m) { return m.time; }
struct Timer {
  long time() const { return 0; }
};
long ok_method(const Timer& t) { return t.time(); }

}  // namespace fixture
