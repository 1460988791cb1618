// Fixture: R6 (hot-path-container) triggers plus allowed cold paths and
// non-std controls.
#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

namespace fixture {

struct Agent {
  // Node-based maps in the gossip hot path: one heap node per instance, one
  // cache miss per instance per traversal.
  std::unordered_map<std::uint64_t, double> active;   // line 14: R6
  std::map<std::uint64_t, double> pending;            // line 15: R6
  // An idle deque member still holds its chunk map and first chunk.
  std::deque<std::uint64_t> finished;                 // line 17: R6

  double drain() {
    // Locals count too — the declaration is the allocation pattern.
    std::unordered_map<std::uint64_t, double> scratch;  // line 21: R6
    double sum = 0.0;
    for (double v : series) sum += v;
    (void)scratch;
    return sum;
  }

  // Cold path: finalisation bookkeeping runs once per instance lifetime,
  // not once per round — the annotation records the reviewed exception.
  std::map<std::uint64_t, double> completed;  // adam2-lint: allow(hot-path-container)

  // Non-std types named like maps are someone else's business.
  struct map_view {};
  map_view view;

  std::vector<double> series;
};

}  // namespace fixture
