// Unit tests for the adam2_lint rule engine (tools/lint/). Two layers:
//
//  * in-memory snippets via lint_source(), pinning exactly which rule fires
//    on which line and that legitimate idioms stay silent;
//  * the on-disk fixture corpus under tests/lint_fixtures/, which is also
//    what the per-fixture CLI ctest entries (label `lint`, WILL_FAIL) and the
//    real-tree self-check exercise end to end.
//
// The fixture paths nest src/... *inside* tests/ on purpose: logical_path()
// classifies by the last path marker, so the corpus is linted under the same
// src-scoped rules as real library code.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace lint = adam2::lint;

namespace {

std::vector<lint::Diagnostic> run(std::string_view path,
                                  std::string_view text) {
  return lint::lint_source(path, text, lint::Options{});
}

bool fires(const std::vector<lint::Diagnostic>& diags, const std::string& rule,
           int line) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const lint::Diagnostic& d) {
                       return d.rule == rule && d.line == line;
                     });
}

// Fixture corpus location: tests live in <repo>/tests, and ctest runs from
// the build tree, so resolve relative to this source file.
std::filesystem::path fixture_root() {
  return std::filesystem::path(__FILE__).parent_path() / "lint_fixtures";
}

// --- logical_path ----------------------------------------------------------

TEST(LogicalPath, TakesSuffixFromLastMarker) {
  EXPECT_EQ(lint::logical_path("/repo/src/core/protocol.cpp"),
            "src/core/protocol.cpp");
  // Nested markers: the *last* one wins, so fixture files under tests/
  // classify as library code.
  EXPECT_EQ(lint::logical_path("/repo/tests/lint_fixtures/src/core/x.cpp"),
            "src/core/x.cpp");
  EXPECT_EQ(lint::logical_path("bench/exchange_bench.cpp"),
            "bench/exchange_bench.cpp");
}

TEST(LogicalPath, RequiresComponentBoundary) {
  // "mysrc/" must not count as the marker "src/".
  EXPECT_EQ(lint::logical_path("/repo/mysrc/core/x.cpp"),
            "/repo/mysrc/core/x.cpp");
}

// --- R1 nondeterminism -----------------------------------------------------

TEST(Nondeterminism, FlagsEntropyAndClocks) {
  const auto diags = run("src/core/a.cpp",
                         "#include <random>\n"
                         "unsigned f() { std::random_device d; return d(); }\n"
                         "int g() { return std::rand(); }\n"
                         "long h() { return std::time(nullptr); }\n"
                         "long i() { return std::chrono::steady_clock::now()"
                         ".time_since_epoch().count(); }\n");
  EXPECT_TRUE(fires(diags, "nondeterminism", 2));
  EXPECT_TRUE(fires(diags, "nondeterminism", 3));
  EXPECT_TRUE(fires(diags, "nondeterminism", 4));
  EXPECT_TRUE(fires(diags, "nondeterminism", 5));
  EXPECT_EQ(diags.size(), 4u);
}

TEST(Nondeterminism, IgnoresMembersAndDeclarations) {
  const auto diags = run("src/core/a.cpp",
                         "struct M { double time = 0; long time_ms() const; };\n"
                         "double f(const M& m) { return m.time; }\n"
                         "struct T { long time() const; };\n"  // declaration
                         "long g(const T& t) { return t.time(); }\n"
                         "long h(const T* t) { return t->time(); }\n");
  EXPECT_TRUE(diags.empty());
}

TEST(Nondeterminism, ClockWhitelistIsPathScoped) {
  const std::string text =
      "long f() { return std::chrono::system_clock::now()"
      ".time_since_epoch().count(); }\n";
  EXPECT_TRUE(fires(run("src/core/a.cpp", text), "nondeterminism", 1));
  EXPECT_TRUE(run("src/runtime/clock.cpp", text).empty());
  EXPECT_TRUE(run("bench/timing.cpp", text).empty());
  // Entropy stays banned even on the clock whitelist.
  EXPECT_TRUE(fires(run("src/runtime/clock.cpp",
                        "#include <random>\nstd::random_device d;\n"),
                    "nondeterminism", 2));
}

TEST(Nondeterminism, FlagsClockAliasesWhereTheyAreMade) {
  // `Clock::now()` names no *_clock, so the alias line is where it shows.
  const std::string text =
      "using Clock = std::chrono::steady_clock;\n"
      "long f() { return Clock::now().time_since_epoch().count(); }\n";
  const auto diags = run("src/host/a.hpp", text);
  EXPECT_TRUE(fires(diags, "nondeterminism", 1));
  EXPECT_EQ(diags.size(), 1u);
  EXPECT_TRUE(run("src/runtime/session.hpp", text).empty());
}

// --- R2 rng-copy -----------------------------------------------------------

TEST(RngCopy, FlagsByValueParameters) {
  EXPECT_TRUE(fires(run("src/core/a.cpp",
                        "double f(rng::Rng rng) { return 0; }\n"),
                    "rng-copy", 1));
  EXPECT_TRUE(fires(run("src/core/a.cpp", "void g(rng::Rng, int);\n"),
                    "rng-copy", 1));
  EXPECT_TRUE(fires(run("src/core/a.cpp",
                        "void h(int a, rng::Rng r, int b);\n"),
                    "rng-copy", 1));
}

TEST(RngCopy, FlagsCopyInitialisedLocals) {
  EXPECT_TRUE(fires(run("src/core/a.cpp",
                        "void f(rng::Rng& src) { rng::Rng fork = src; }\n"),
                    "rng-copy", 1));
}

TEST(RngCopy, AcceptsReferencesFactoriesAndMembers) {
  const auto diags = run(
      "src/core/a.cpp",
      "double a(rng::Rng& rng);\n"
      "double b(const rng::Rng& rng);\n"
      "double c(rng::Rng&& rng);\n"   // ownership transfer
      "double d(rng::Rng* rng);\n"
      "rng::Rng make_stream(std::uint64_t seed);\n"  // factory declaration
      "void e(rng::Rng& rng) { rng::Rng child = rng.split(7); }\n"
      "struct S { rng::Rng stream{11}; };\n"  // owning member
      "struct T { rng::Rng stream_; };\n");
  EXPECT_TRUE(diags.empty());
}

TEST(RngCopy, AppliesOutsideSrcToo) {
  // Stream discipline is a project-wide contract; tests and tools are not
  // exempt (they annotate deliberate copies instead).
  EXPECT_TRUE(fires(run("tests/a_test.cpp",
                        "void f(rng::Rng rng) {}\n"),
                    "rng-copy", 1));
}

// --- R3 layering -----------------------------------------------------------

TEST(Layering, FlagsUpwardIncludes) {
  EXPECT_TRUE(fires(run("src/core/a.hpp", "#include \"sim/engine.hpp\"\n"),
                    "layering", 1));
  EXPECT_TRUE(fires(run("src/stats/a.hpp", "#include \"core/estimate.hpp\"\n"),
                    "layering", 1));
  EXPECT_TRUE(fires(run("src/host/a.hpp", "#include \"runtime/cluster.hpp\"\n"),
                    "layering", 1));
  // The substrate and the recorder sit below the protocol that implements
  // host's agent contract.
  EXPECT_TRUE(fires(run("src/host/a.hpp", "#include \"core/protocol.hpp\"\n"),
                    "layering", 1));
  EXPECT_TRUE(fires(run("src/obs/a.hpp", "#include \"core/protocol.hpp\"\n"),
                    "layering", 1));
  // Observability must never reach back into the engines it records.
  EXPECT_TRUE(fires(run("src/obs/a.hpp", "#include \"sim/engine.hpp\"\n"),
                    "layering", 1));
  EXPECT_TRUE(fires(run("src/obs/a.hpp", "#include \"runtime/cluster.hpp\"\n"),
                    "layering", 1));
}

TEST(Layering, AcceptsDownSameLayerAndSystem) {
  EXPECT_TRUE(run("src/core/a.hpp",
                  "#include <vector>\n"
                  "#include \"core/instance.hpp\"\n"
                  "#include \"stats/sketch.hpp\"\n"
                  "#include \"wire/ids.hpp\"\n"
                  "#include \"rng/rng.hpp\"\n")
                  .empty());
  // data and wire share a rank; the edge is legal in both directions.
  EXPECT_TRUE(run("src/wire/a.hpp", "#include \"data/source.hpp\"\n").empty());
  // core implements host's agent contract and records into obs.
  EXPECT_TRUE(run("src/core/a.hpp",
                  "#include \"host/agent.hpp\"\n"
                  "#include \"obs/recorder.hpp\"\n")
                  .empty());
  // host and obs share a rank: the fabric hands outcome structs to the
  // recorder, and the recorder absorbs host::TrafficStats.
  EXPECT_TRUE(run("src/host/a.hpp", "#include \"obs/events.hpp\"\n").empty());
  EXPECT_TRUE(run("src/obs/a.hpp", "#include \"host/traffic.hpp\"\n").empty());
  // tools/tests/bench sit on top of everything.
  EXPECT_TRUE(run("tools/adam2_sim.cpp",
                  "#include \"sim/engine.hpp\"\n"
                  "#include \"baselines/equidepth.hpp\"\n")
                  .empty());
}

// --- R4 unordered-iter -----------------------------------------------------

TEST(UnorderedIter, FlagsRangeForAndBegin) {
  const auto diags = run(
      "src/core/a.cpp",
      "#include <unordered_map>\n"
      "struct S {\n"
      "  std::unordered_map<int, double> active;\n"
      "  double sum() const {\n"
      "    double t = 0;\n"
      "    for (const auto& [k, v] : active) t += v;\n"
      "    return t;\n"
      "  }\n"
      "  auto first() const { return active.begin(); }\n"
      "};\n");
  EXPECT_TRUE(fires(diags, "unordered-iter", 6));
  EXPECT_TRUE(fires(diags, "unordered-iter", 9));
}

TEST(UnorderedIter, IgnoresOrderedContainersAndLookups) {
  // src/stats/: in the hot path (src/core/) the declarations themselves
  // would trip R6 hot-path-container, which is not under test here.
  EXPECT_TRUE(run("src/stats/a.cpp",
                  "#include <map>\n#include <unordered_map>\n"
                  "struct S {\n"
                  "  std::map<int, double> ordered;\n"
                  "  std::unordered_map<int, double> index;\n"
                  "  double f(int k) const {\n"
                  "    double t = 0;\n"
                  "    for (const auto& [a, b] : ordered) t += b;\n"
                  "    auto it = index.find(k);\n"  // point lookup: fine
                  "    return it == index.end() ? t : it->second;\n"
                  "  }\n"
                  "};\n")
                  .empty());
}

TEST(UnorderedIter, LibraryScopedOnly) {
  // Tests/tools may iterate unordered containers (assertion order is local).
  EXPECT_TRUE(run("tests/a_test.cpp",
                  "#include <unordered_map>\n"
                  "std::unordered_map<int, int> m;\n"
                  "int f() { int t = 0; for (auto& [k, v] : m) t += v; "
                  "return t; }\n")
                  .empty());
}

// --- R5 confinement --------------------------------------------------------

TEST(Confinement, FlagsIoAndConcurrencyInLibraries) {
  const auto diags = run("src/stats/a.cpp",
                         "#include <iostream>\n"
                         "#include <mutex>\n"
                         "std::mutex m;\n"
                         "void f() { std::cout << 1; }\n"
                         "void g() { printf(\"x\"); }\n");
  EXPECT_TRUE(fires(diags, "confinement", 2));  // <mutex>
  EXPECT_TRUE(fires(diags, "confinement", 3));  // std::mutex
  EXPECT_TRUE(fires(diags, "confinement", 4));  // std::cout
  EXPECT_TRUE(fires(diags, "confinement", 5));  // printf
}

TEST(Confinement, SubstratesMayUseConcurrencyButStillNotPrint) {
  const std::string concurrency = "#include <mutex>\nstd::mutex m;\n";
  EXPECT_TRUE(run("src/host/pool.cpp", concurrency).empty());
  EXPECT_TRUE(run("src/runtime/cluster.cpp", concurrency).empty());
  // The I/O half of the rule has no whitelist inside src/: even the
  // substrates return data rather than print.
  EXPECT_TRUE(fires(run("src/host/pool.cpp",
                        "#include <iostream>\nvoid f() { std::cout << 1; }\n"),
                    "confinement", 2));
}

TEST(Confinement, ToolsAndBenchesAreExempt) {
  const std::string text =
      "#include <mutex>\n#include <iostream>\n"
      "std::mutex m;\nvoid f() { std::cout << 1; }\n";
  EXPECT_TRUE(run("tools/adam2_sim.cpp", text).empty());
  EXPECT_TRUE(run("bench/exchange_bench.cpp", text).empty());
}

// --- R6 hot-path-container --------------------------------------------------

TEST(HotPathContainer, FlagsNodeMapsInCore) {
  const auto diags = run("src/core/a.hpp",
                         "#include <map>\n"
                         "#include <unordered_map>\n"
                         "struct Agent {\n"
                         "  std::unordered_map<int, double> active;\n"
                         "  std::map<int, double> pending;\n"
                         "};\n");
  EXPECT_TRUE(fires(diags, "hot-path-container", 4));
  EXPECT_TRUE(fires(diags, "hot-path-container", 5));
}

TEST(HotPathContainer, FlagsIdKeyedMapsInHost) {
  // Per-node state in the host substrate is indexed by NodeId.
  const auto diags = run("src/host/a.hpp",
                         "#include <unordered_map>\n"
                         "struct Table {\n"
                         "  std::unordered_map<NodeId, std::size_t> index;\n"
                         "};\n");
  EXPECT_TRUE(fires(diags, "hot-path-container", 3));
  // So is the per-node state of the simulators' overlays.
  EXPECT_TRUE(fires(run("src/sim/a.hpp",
                        "#include <unordered_map>\n"
                        "struct Overlay {\n"
                        "  std::unordered_map<NodeId, View> views;\n"
                        "};\n"),
                    "hot-path-container", 3));
}

TEST(HotPathContainer, FlagsDequesInCoreHostAndSim) {
  // An idle deque member costs its chunk map and first chunk per object.
  for (const char* path :
       {"src/core/a.hpp", "src/host/a.hpp", "src/sim/a.hpp"}) {
    EXPECT_TRUE(fires(run(path,
                          "#include <deque>\n"
                          "struct Agent {\n"
                          "  std::deque<Estimate> history;\n"
                          "};\n"),
                      "hot-path-container", 3))
        << path;
  }
  // The wall-clock runtime's mailboxes and task queues are not per-node
  // state of a million-node simulation.
  EXPECT_TRUE(run("src/runtime/a.hpp",
                  "#include <deque>\n"
                  "std::deque<Envelope> queue;\n")
                  .empty());
}

TEST(HotPathContainer, AllowListedColdPathsAndOtherLayersPass) {
  // The annotation records a reviewed cold path.
  EXPECT_TRUE(run("src/core/a.hpp",
                  "#include <map>\n"
                  "// adam2-lint: allow(hot-path-container)\n"
                  "std::map<int, double> completed;\n")
                  .empty());
  // Outside the gossip hot path the rule does not apply.
  EXPECT_TRUE(run("src/obs/a.hpp",
                  "#include <map>\n"
                  "std::map<int, double> metrics;\n")
                  .empty());
  EXPECT_TRUE(run("tools/sim.cpp",
                  "#include <map>\n"
                  "std::map<int, double> flags;\n")
                  .empty());
}

TEST(HotPathContainer, RequiresStdQualifiedTemplate) {
  // Sets are membership markers, not per-instance state: not flagged.
  EXPECT_TRUE(run("src/core/a.hpp",
                  "#include <unordered_set>\n"
                  "std::unordered_set<int> finalized;\n")
                  .empty());
  // Other namespaces' types and non-template uses of the name pass.
  EXPECT_TRUE(run("src/core/a.hpp",
                  "flat::map<int, double> ok;\n"
                  "int map = 0;\n"
                  "double f() { return map + 1.0; }\n")
                  .empty());
}

// --- suppression directives ------------------------------------------------

TEST(Suppression, TrailingAllowSilencesThatLine) {
  EXPECT_TRUE(run("src/core/a.cpp",
                  "unsigned f() {\n"
                  "  std::random_device d;  // adam2-lint: allow(nondeterminism)\n"
                  "  return d();\n"
                  "}\n")
                  .empty());
}

TEST(Suppression, PrecedingCommentCoversNextLine) {
  EXPECT_TRUE(run("src/core/a.cpp",
                  "// adam2-lint: allow(nondeterminism)\n"
                  "std::random_device d;\n")
                  .empty());
}

TEST(Suppression, AllowFileCoversWholeFileForThatRuleOnly) {
  const auto diags = run("src/core/a.cpp",
                         "// adam2-lint: allow-file(confinement)\n"
                         "#include <mutex>\n"
                         "#include <random>\n"
                         "std::mutex m;\n"
                         "std::random_device d;\n");
  EXPECT_FALSE(fires(diags, "confinement", 2));
  EXPECT_FALSE(fires(diags, "confinement", 4));
  EXPECT_TRUE(fires(diags, "nondeterminism", 5));  // other rules still apply
}

TEST(Suppression, WrongRuleDoesNotSilence) {
  EXPECT_TRUE(fires(run("src/core/a.cpp",
                        "std::random_device d;  "
                        "// adam2-lint: allow(confinement)\n"),
                    "nondeterminism", 1));
}

TEST(Suppression, MultipleRulesInOneDirective) {
  EXPECT_TRUE(run("src/core/a.cpp",
                  "#include <mutex>  "
                  "// adam2-lint: allow(confinement, layering)\n")
                  .empty());
}

// --- comment/string robustness ---------------------------------------------

TEST(Lexer, CommentsAndStringsAreNotCode) {
  EXPECT_TRUE(run("src/core/a.cpp",
                  "// std::random_device in a comment is fine\n"
                  "/* so is rand() in a block comment */\n"
                  "const char* s = \"std::random_device rand() time()\";\n"
                  "const char* r = R\"(std::mutex printf)\";\n")
                  .empty());
}

// --- fixture corpus (end to end, through lint_file) -------------------------

TEST(FixtureCorpus, EachBadFixtureFiresItsRule) {
  const auto root = fixture_root();
  ASSERT_TRUE(std::filesystem::exists(root)) << root;
  const struct {
    const char* file;
    const char* rule;
    std::size_t count;
  } kExpected[] = {
      {"src/core/r1_nondeterminism.cpp", "nondeterminism", 6},
      {"src/core/r2_rng_copy.cpp", "rng-copy", 3},
      {"src/core/r3_layering.hpp", "layering", 2},
      {"src/core/r4_unordered_iter.cpp", "unordered-iter", 2},
      {"src/core/r5_confinement.cpp", "confinement", 5},
      {"src/core/r6_hot_path_container.cpp", "hot-path-container", 4},
      {"src/obs/r3_reaches_engines.hpp", "layering", 2},
  };
  for (const auto& expected : kExpected) {
    const auto diags = lint::lint_file(root / expected.file);
    EXPECT_EQ(diags.size(), expected.count) << expected.file;
    for (const auto& d : diags) {
      EXPECT_EQ(d.rule, expected.rule) << d.file << ":" << d.line;
    }
  }
}

TEST(FixtureCorpus, SuppressedAndWhitelistedFixturesBehave) {
  const auto root = fixture_root();
  // suppressed.cpp: everything annotated except the wrong-rule case.
  const auto suppressed = lint::lint_file(root / "src/core/suppressed.cpp");
  ASSERT_EQ(suppressed.size(), 1u);
  EXPECT_EQ(suppressed[0].rule, "nondeterminism");
  EXPECT_EQ(suppressed[0].line, 33);
  // Whitelist and negative control: zero diagnostics.
  EXPECT_TRUE(lint::lint_file(root / "src/runtime/clock_ok.cpp").empty());
  EXPECT_TRUE(lint::lint_file(root / "src/core/clean.cpp").empty());
  EXPECT_TRUE(lint::lint_file(root / "src/obs/clean.hpp").empty());
}

TEST(FixtureCorpus, TreeWalkSkipsFixtures) {
  // Walking tests/ must skip lint_fixtures entirely — otherwise the real-tree
  // self-check would trip over the corpus.
  const auto diags = lint::lint_tree({fixture_root().parent_path()});
  for (const auto& d : diags) {
    EXPECT_EQ(d.file.find("lint_fixtures"), std::string::npos)
        << d.file << ":" << d.line;
  }
}

TEST(FixtureCorpus, RealTreeIsClean) {
  // The acceptance criterion behind the whole PR: the shipped tree carries
  // zero unannotated violations. (Also enforced as a standalone ctest entry
  // driving the CLI, and in CI.)
  const auto repo = fixture_root().parent_path().parent_path();
  const auto diags =
      lint::lint_tree({repo / "src", repo / "tools", repo / "bench"});
  for (const auto& d : diags) {
    ADD_FAILURE() << d.file << ":" << d.line << ": [" << d.rule << "] "
                  << d.message;
  }
}

// --- Allow sites ------------------------------------------------------------

TEST(AllowSites, ListsEveryHonouredDirectiveWithItsRule) {
  const auto sites =
      lint::allow_sites({fixture_root() / "src" / "core" / "suppressed.cpp"});
  std::vector<std::pair<int, std::string>> found;
  for (const auto& site : sites) found.emplace_back(site.line, site.rule);
  const std::vector<std::pair<int, std::string>> expected = {
      {8, "confinement"},
      {15, "nondeterminism"},
      {21, "nondeterminism"},
      {33, "confinement"},
  };
  EXPECT_EQ(found, expected);
}

TEST(AllowSites, RealTreeCarriesOnlyTheReviewedExceptions) {
  // Every allow() is a reviewed exception with a reason in DESIGN.md §10.1,
  // and their number should only go down. This list mirrors that table,
  // one entry per annotated site. The linter's own doc comments name
  // placeholders (`<rule>`, `r`), which suppress nothing and are not sites.
  const std::vector<std::pair<std::string, std::string>> reviewed = {
      {"src/core/system.cpp", "layering"},
      {"src/core/system.hpp", "layering"},
      {"src/core/system.hpp", "layering"},
      {"tests/host_test.cpp", "rng-copy"},
      {"tests/host_test.cpp", "rng-copy"},
  };
  const auto repo = fixture_root().parent_path().parent_path();
  std::vector<std::pair<std::string, std::string>> found;
  for (const auto& site :
       lint::allow_sites({repo / "src", repo / "tools", repo / "bench",
                          repo / "tests", repo / "examples"})) {
    found.emplace_back(lint::logical_path(site.file), site.rule);
    if (std::count(reviewed.begin(), reviewed.end(), found.back()) <
        std::count(found.begin(), found.end(), found.back())) {
      ADD_FAILURE() << site.file << ":" << site.line << ": allow(" << site.rule
                    << ") is a new exception: add a DESIGN.md section 10.1 "
                       "row that gives the reason, then list it here";
    }
  }
  EXPECT_EQ(found, reviewed)
      << "a removed exception also leaves DESIGN.md section 10.1 and this "
         "list";
}

}  // namespace
