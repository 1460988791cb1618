// adam2_lint CLI: lints the given files/directories (default: src tools bench
// tests examples, resolved against the current directory) and prints one
// `file:line: [rule] message` diagnostic per violation. Exits 1 when any
// diagnostic is emitted, 2 on usage errors — so CI can simply run it.
#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

void usage(std::ostream& out) {
  out << "usage: adam2_lint [--rule <name>]... [--quiet] [path...]\n"
         "  Lints the adam2 tree against the DESIGN.md section 10 invariants.\n"
         "  Default paths: src tools bench tests examples (under the "
         "current directory).\n"
         "  --rule <name>  enable only the named rule(s); repeatable. Rules:\n";
  for (const std::string& rule : adam2::lint::rule_names()) {
    out << "                   " << rule << "\n";
  }
  out << "  --quiet        print only the final count\n";
}

}  // namespace

int main(int argc, char** argv) {
  adam2::lint::Options options;
  std::vector<std::filesystem::path> roots;
  std::set<std::string> selected;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    }
    if (arg == "--quiet") {
      quiet = true;
      continue;
    }
    if (arg == "--rule") {
      if (i + 1 >= argc) {
        std::cerr << "adam2_lint: --rule needs an argument\n";
        return 2;
      }
      const std::string rule = argv[++i];
      if (!options.rules.contains(rule)) {
        std::cerr << "adam2_lint: unknown rule '" << rule << "'\n";
        usage(std::cerr);
        return 2;
      }
      selected.insert(rule);
      continue;
    }
    if (arg.starts_with("-")) {
      std::cerr << "adam2_lint: unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    }
    roots.emplace_back(arg);
  }
  if (!selected.empty()) options.rules = std::move(selected);
  if (roots.empty()) {
    for (const char* dir : {"src", "tools", "bench", "tests", "examples"}) {
      if (std::filesystem::exists(dir)) roots.emplace_back(dir);
    }
    if (roots.empty()) {
      std::cerr << "adam2_lint: no default roots found here; pass paths "
                   "explicitly\n";
      return 2;
    }
  }

  const std::vector<adam2::lint::Diagnostic> diagnostics =
      adam2::lint::lint_tree(roots, options);
  if (!quiet) {
    for (const adam2::lint::Diagnostic& d : diagnostics) {
      std::cout << d.file << ":" << d.line << ": [" << d.rule << "] "
                << d.message << "\n";
    }
  }
  std::cout << "adam2_lint: " << diagnostics.size() << " violation"
            << (diagnostics.size() == 1 ? "" : "s") << "\n";
  return diagnostics.empty() ? 0 : 1;
}
