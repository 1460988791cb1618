// Fixture: suppression directives. Every would-be violation here is
// annotated, so the file must lint clean — except the final one, which
// proves an allow() for rule A does not silence rule B.
#include <random>

// The whole file opts out of the confinement rule (imagine a sanctioned
// substrate TU outside src/host/ and src/runtime/):
// adam2-lint: allow-file(confinement)
#include <mutex>
#include <iostream>

namespace fixture {

unsigned trailing_allow() {
  std::random_device device;  // adam2-lint: allow(nondeterminism)
  return device();
}

unsigned preceding_allow() {
  // Annotation on the line above also covers the statement:
  // adam2-lint: allow(nondeterminism)
  std::random_device device;
  return device();
}

void covered_by_allow_file() {
  std::mutex m;
  std::lock_guard lock(m);
  std::cout << "substrate log\n";
}

unsigned wrong_rule_does_not_silence() {
  std::random_device device;  // adam2-lint: allow(confinement) -- line 33 still fires
  return device();
}

}  // namespace fixture
