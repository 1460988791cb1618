// Fixture: negative control. Idiomatic library code that must produce zero
// diagnostics under every rule.
#include <cstdint>
#include <utility>
#include <vector>

#include "stats/sketch.hpp"  // downward include: core (4) -> stats (1)

namespace fixture {

struct Series {
  // Insertion-order flat storage: the idiomatic hot-path layout (R6 rejects
  // node-based std:: maps here).
  std::vector<std::pair<std::uint64_t, double>> by_round;
  std::vector<double> values;

  double sum() const {
    double total = 0.0;
    for (const auto& [round, value] : by_round) total += value;
    for (double v : values) total += v;
    return total;
  }
};

}  // namespace fixture
