// adam2_lint: a token-level static checker for the project's written-but-
// otherwise-unchecked invariants (DESIGN.md §10 "Checked invariants").
//
// The runtime test suite guards determinism *behaviourally* (golden replay,
// draw-contract tests); this tool guards it *structurally*, before a run
// ever happens. It is deliberately a token scanner, not a compiler plugin:
// the rules are about names and shapes (`std::random_device`, a by-value
// `rng::Rng`, an `#include` that jumps up the layer DAG), which a lexer sees
// exactly as well as an AST would — with no libclang dependency and a
// sub-second walk of the whole tree.
//
// Rules (each suppressible per line with `// adam2-lint: allow(<rule>)`,
// per file with `// adam2-lint: allow-file(<rule>)`):
//
//   nondeterminism  (R1)  std::random_device, rand()/srand(), time(),
//                         clock_gettime/gettimeofday anywhere; any *_clock
//                         name outside the wall-clock whitelist (src/runtime/,
//                         bench/, tests/), so an alias (`using Clock =
//                         std::chrono::steady_clock;`) is caught where it is
//                         made, not only at `steady_clock::now()`. Protects:
//                         seeded replay.
//   rng-copy        (R2)  rng::Rng by-value parameters and copy-initialised
//                         locals. A copied generator silently forks the
//                         stream: both copies replay the same tail and the
//                         original's draw positions shift. Owning members
//                         and factory returns (`node_stream(id)`) are fine.
//   layering        (R3)  #include edges must respect the DESIGN.md DAG
//                         rng < stats < data/wire < host/obs < core <
//                         sim/runtime < baselines; tools/bench/tests/examples
//                         sit on top. The protocol (core/) implements the
//                         substrate's agent contract (host/), so host/ and
//                         obs/ never include core/, and src/obs/ never
//                         includes sim/ or runtime/ — observability is
//                         recorded *into*, it does not reach back into the
//                         engines. Protects: substrate-agnostic agents.
//   unordered-iter  (R4)  iteration (`for (x : m)`, `m.begin()`) over
//                         unordered_map/unordered_set in library TUs.
//                         Bucket order is not part of any contract; letting
//                         it reach wire payloads, metrics, or evaluation
//                         series makes replay hostage to the hash table.
//   confinement     (R5)  no std::cout/printf/puts in src/ libraries; no
//                         std:: concurrency primitives (mutex/atomic/thread/
//                         condition_variable/...) outside src/host/ and
//                         src/runtime/.
//   hot-path-container (R6) std::map / std::unordered_map (and multi
//                         variants) and std::deque declared in the gossip
//                         hot path (src/core/), the host substrate
//                         (src/host/) or the simulators and their overlays
//                         (src/sim/). Node-based maps scatter state across
//                         the heap — one cache miss per entry per traversal
//                         at million-node rounds — and an idle deque member
//                         still costs ~600 B per object under libstdc++.
//                         Per-instance state belongs in the slot vector
//                         of core::InstanceStore (DESIGN.md §7.5), per-node
//                         state in vectors indexed by id, bounded FIFOs in
//                         rings that allocate on first use; genuinely cold
//                         paths (observer tooling) annotate with
//                         allow(hot-path-container).
//
// The library half (this header) is what the unit tests drive over the
// fixture corpus; the CLI (tools/lint/main.cpp) wraps lint_tree for CI.
#pragma once

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace adam2::lint {

struct Diagnostic {
  std::string file;     ///< Path as given to the linter.
  int line = 0;         ///< 1-based.
  std::string rule;     ///< One of rule_names().
  std::string message;  ///< Human-readable explanation.
};

/// All rule identifiers, in R1..R6 order.
[[nodiscard]] const std::vector<std::string>& rule_names();

struct Options {
  /// Enabled rules; defaults to all of rule_names().
  std::set<std::string> rules;

  /// Layer rank per top-level src/ directory; an include may only point at a
  /// rank <= the includer's. Directories absent from the map (and files not
  /// under src/) rank as "top" and may include anything. obs/ sits beside
  /// host/ (rank 3), below the protocol (core/, rank 4) that implements
  /// host's agent contract: engines above record into obs/, and it must
  /// never reach up into core/, sim/ or runtime/.
  std::map<std::string, int> layers = {
      {"rng", 0},  {"stats", 1}, {"data", 2},    {"wire", 2},
      {"host", 3}, {"obs", 3},   {"core", 4},    {"sim", 5},
      {"runtime", 5},            {"baselines", 6},
  };

  /// Logical-path prefixes whose files may name a *_clock (wall-clock
  /// substrates and timing harnesses).
  std::vector<std::string> clock_whitelist = {"src/runtime/", "bench/",
                                              "tests/"};

  /// Logical-path prefixes whose files may use std:: concurrency primitives.
  std::vector<std::string> concurrency_whitelist = {"src/host/",
                                                    "src/runtime/"};

  /// Logical-path prefixes forming the gossip hot path, the host substrate
  /// and the simulators, where node-based std:: maps and std::deque are
  /// rejected (R6 hot-path-container).
  std::vector<std::string> hot_path_prefixes = {"src/core/", "src/host/",
                                                "src/sim/"};

  Options();
};

/// Classifies a path into its logical project-relative form: the suffix
/// starting at the *last* occurrence of src/, tools/, bench/, tests/ or
/// examples/ ("/repo/tests/lint_fixtures/src/core/x.cpp" -> "src/core/x.cpp",
/// which is what lets the fixture corpus exercise src/-scoped rules).
/// Returns the path unchanged when no marker occurs.
[[nodiscard]] std::string logical_path(std::string_view path);

/// Lints one in-memory source. `path` is used for classification (layering,
/// whitelists) and for Diagnostic::file.
[[nodiscard]] std::vector<Diagnostic> lint_source(std::string_view path,
                                                  std::string_view text,
                                                  const Options& options = {});

/// Lints one file on disk.
[[nodiscard]] std::vector<Diagnostic> lint_file(
    const std::filesystem::path& path, const Options& options = {});

/// Recursively lints every .hpp/.h/.cpp/.cc under each root (a root may also
/// be a single file). Skips directories named "build*", ".git", and
/// "lint_fixtures". Diagnostics are sorted by file, then line.
[[nodiscard]] std::vector<Diagnostic> lint_tree(
    const std::vector<std::filesystem::path>& roots,
    const Options& options = {});

/// One rule an `adam2-lint: allow(...)` or `allow-file(...)` directive
/// suppresses.
struct AllowSite {
  std::string file;  ///< Path as walked.
  int line = 0;      ///< First line of the comment carrying the directive.
  std::string rule;  ///< One of rule_names().
};

/// Every suppression the linter honours under `roots`, walked as lint_tree
/// walks them: directives in comments (not string literals) naming a known
/// rule. A name that is no rule suppresses nothing and is not listed.
/// Sorted by file, then line.
[[nodiscard]] std::vector<AllowSite> allow_sites(
    const std::vector<std::filesystem::path>& roots);

}  // namespace adam2::lint
