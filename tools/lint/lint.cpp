#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <functional>
#include <sstream>

namespace adam2::lint {

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kRules = {
      "nondeterminism",  // R1
      "rng-copy",        // R2
      "layering",        // R3
      "unordered-iter",      // R4
      "confinement",         // R5
      "hot-path-container",  // R6
  };
  return kRules;
}

Options::Options() {
  rules.insert(rule_names().begin(), rule_names().end());
}

std::string logical_path(std::string_view path) {
  static const std::string_view kMarkers[] = {"src/", "tools/", "bench/",
                                              "tests/", "examples/"};
  std::size_t best = std::string_view::npos;
  for (std::string_view marker : kMarkers) {
    std::size_t pos = path.rfind(marker);
    while (pos != std::string_view::npos) {
      // Component boundary only: "src/" must not match inside "mysrc/".
      if (pos == 0 || path[pos - 1] == '/') {
        if (best == std::string_view::npos || pos > best) best = pos;
        break;
      }
      pos = pos == 0 ? std::string_view::npos : path.rfind(marker, pos - 1);
    }
  }
  if (best == std::string_view::npos) return std::string(path);
  return std::string(path.substr(best));
}

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kNumber, kPunct, kString, kChar };
  Kind kind;
  std::string text;
  int line = 0;
};

struct IncludeDirective {
  std::string target;
  int line = 0;
  bool angle = false;  ///< <system> vs "project" include.
};

struct Suppressions {
  std::set<std::string> file_rules;
  std::map<int, std::set<std::string>> line_rules;
  /// Every name a directive carries, with its comment's first line.
  std::vector<std::pair<int, std::string>> names;

  [[nodiscard]] bool allows(const std::string& rule, int line) const {
    if (file_rules.contains(rule)) return true;
    auto it = line_rules.find(line);
    return it != line_rules.end() && it->second.contains(rule);
  }
};

struct Scan {
  std::vector<Token> tokens;
  std::vector<IncludeDirective> includes;
  Suppressions suppressions;
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parses `allow(...)` / `allow-file(...)` directives out of one comment and
/// applies them. A directive suppresses its rules on every line the comment
/// touches plus the following line, so both trailing annotations
/// (`code;  // adam2-lint: allow(r)`) and preceding ones (comment line above
/// the flagged statement) work.
void apply_annotations(std::string_view comment, int first_line, int last_line,
                       Suppressions& out) {
  const std::size_t tag = comment.find("adam2-lint:");
  if (tag == std::string_view::npos) return;
  std::size_t pos = tag;
  while (true) {
    const std::size_t file_at = comment.find("allow-file(", pos);
    const std::size_t line_at = comment.find("allow(", pos);
    const bool is_file = file_at != std::string_view::npos &&
                         (line_at == std::string_view::npos || file_at < line_at);
    const std::size_t at = is_file ? file_at : line_at;
    if (at == std::string_view::npos) break;
    const std::size_t open = comment.find('(', at);
    const std::size_t close = comment.find(')', open);
    if (close == std::string_view::npos) break;
    std::string name;
    auto flush = [&] {
      if (name.empty()) return;
      out.names.emplace_back(first_line, name);
      if (is_file) {
        out.file_rules.insert(name);
      } else {
        for (int l = first_line; l <= last_line + 1; ++l) {
          out.line_rules[l].insert(name);
        }
      }
      name.clear();
    };
    for (std::size_t i = open + 1; i < close; ++i) {
      const char c = comment[i];
      if (ident_char(c) || c == '-') {
        name.push_back(c);
      } else {
        flush();
      }
    }
    flush();
    pos = close;
  }
}

Scan scan_source(std::string_view text) {
  Scan scan;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = text.size();
  // Set after `#` `include` so the next `<...>` or "..." is a header name.
  bool expect_header = false;

  auto peek = [&](std::size_t k) -> char { return k < n ? text[k] : '\0'; };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      expect_header = false;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && peek(i + 1) == '/') {
      const std::size_t start = i;
      while (i < n && text[i] != '\n') ++i;
      apply_annotations(text.substr(start, i - start), line, line,
                        scan.suppressions);
      continue;
    }
    // Block comment.
    if (c == '/' && peek(i + 1) == '*') {
      const std::size_t start = i;
      const int first_line = line;
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') ++line;
        ++i;
      }
      i = std::min(i + 2, n);
      apply_annotations(text.substr(start, i - start), first_line, line,
                        scan.suppressions);
      continue;
    }
    // Header name after #include.
    if (expect_header && c == '<') {
      const std::size_t start = ++i;
      while (i < n && text[i] != '>' && text[i] != '\n') ++i;
      scan.includes.push_back(
          {std::string(text.substr(start, i - start)), line, /*angle=*/true});
      if (i < n && text[i] == '>') ++i;
      expect_header = false;
      continue;
    }
    // String literal (also the quoted form of a header name).
    if (c == '"') {
      ++i;
      const std::size_t start = i;
      while (i < n && text[i] != '"') {
        if (text[i] == '\\') ++i;
        if (i < n && text[i] == '\n') ++line;
        ++i;
      }
      std::string value(text.substr(start, i - start));
      if (i < n) ++i;
      if (expect_header) {
        scan.includes.push_back({value, line, /*angle=*/false});
        expect_header = false;
      }
      scan.tokens.push_back({Token::Kind::kString, std::move(value), line});
      continue;
    }
    // Char literal.
    if (c == '\'') {
      ++i;
      while (i < n && text[i] != '\'') {
        if (text[i] == '\\') ++i;
        ++i;
      }
      if (i < n) ++i;
      scan.tokens.push_back({Token::Kind::kChar, "", line});
      continue;
    }
    // Number (pp-number: handles 1'000, 0x1p-3, 1e+9, trailing suffixes).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(i + 1))))) {
      const std::size_t start = i;
      ++i;
      while (i < n) {
        const char d = text[i];
        if (ident_char(d) || d == '.' || d == '\'') {
          ++i;
        } else if ((d == '+' || d == '-') &&
                   (text[i - 1] == 'e' || text[i - 1] == 'E' ||
                    text[i - 1] == 'p' || text[i - 1] == 'P')) {
          ++i;
        } else {
          break;
        }
      }
      scan.tokens.push_back(
          {Token::Kind::kNumber, std::string(text.substr(start, i - start)),
           line});
      continue;
    }
    // Identifier (or raw-string prefix).
    if (ident_start(c)) {
      const std::size_t start = i;
      while (i < n && ident_char(text[i])) ++i;
      std::string word(text.substr(start, i - start));
      // Raw string literal: R"delim( ... )delim".
      if (peek(i) == '"' && (word == "R" || word == "u8R" || word == "uR" ||
                             word == "UR" || word == "LR")) {
        ++i;  // Consume the quote.
        std::string delim;
        while (i < n && text[i] != '(') delim.push_back(text[i++]);
        const std::string closer = ")" + delim + "\"";
        const std::size_t end = text.find(closer, i);
        const std::size_t stop = end == std::string_view::npos
                                     ? n
                                     : end + closer.size();
        for (std::size_t k = i; k < stop; ++k) {
          if (text[k] == '\n') ++line;
        }
        i = stop;
        scan.tokens.push_back({Token::Kind::kString, "", line});
        continue;
      }
      if (word == "include" && !scan.tokens.empty() &&
          scan.tokens.back().text == "#" &&
          scan.tokens.back().line == line) {
        expect_header = true;
      }
      scan.tokens.push_back({Token::Kind::kIdent, std::move(word), line});
      continue;
    }
    // Punctuation; multi-char only where a rule needs to see it as one unit.
    if (c == ':' && peek(i + 1) == ':') {
      scan.tokens.push_back({Token::Kind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && peek(i + 1) == '>') {
      scan.tokens.push_back({Token::Kind::kPunct, "->", line});
      i += 2;
      continue;
    }
    if (c == '&' && peek(i + 1) == '&') {
      scan.tokens.push_back({Token::Kind::kPunct, "&&", line});
      i += 2;
      continue;
    }
    scan.tokens.push_back({Token::Kind::kPunct, std::string(1, c), line});
    ++i;
  }
  return scan;
}

// ---------------------------------------------------------------------------
// Rule engine
// ---------------------------------------------------------------------------

bool has_prefix(const std::string& s, const std::vector<std::string>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](const std::string& p) { return s.starts_with(p); });
}

class Analyzer {
 public:
  Analyzer(std::string path, const Scan& scan, const Options& options)
      : path_(std::move(path)),
        logical_(logical_path(path_)),
        scan_(scan),
        options_(options) {
    depth_.resize(scan_.tokens.size() + 1, 0);
    int depth = 0;
    for (std::size_t i = 0; i < scan_.tokens.size(); ++i) {
      depth_[i] = depth;
      const Token& t = scan_.tokens[i];
      if (t.kind == Token::Kind::kPunct) {
        if (t.text == "(") ++depth;
        if (t.text == ")") depth = std::max(0, depth - 1);
      }
    }
  }

  std::vector<Diagnostic> run() {
    if (enabled("nondeterminism")) check_nondeterminism();
    if (enabled("rng-copy")) check_rng_copy();
    if (enabled("layering")) check_layering();
    if (enabled("unordered-iter")) check_unordered_iter();
    if (enabled("confinement")) check_confinement();
    if (enabled("hot-path-container")) check_hot_path_container();
    return std::move(diagnostics_);
  }

 private:
  [[nodiscard]] bool enabled(const std::string& rule) const {
    return options_.rules.contains(rule);
  }

  void emit(int line, const std::string& rule, std::string message) {
    if (scan_.suppressions.allows(rule, line)) return;
    diagnostics_.push_back({path_, line, rule, std::move(message)});
  }

  [[nodiscard]] const Token* tok(std::size_t i) const {
    return i < scan_.tokens.size() ? &scan_.tokens[i] : nullptr;
  }
  [[nodiscard]] bool is_ident(std::size_t i, std::string_view text) const {
    const Token* t = tok(i);
    return t != nullptr && t->kind == Token::Kind::kIdent && t->text == text;
  }
  [[nodiscard]] bool is_punct(std::size_t i, std::string_view text) const {
    const Token* t = tok(i);
    return t != nullptr && t->kind == Token::Kind::kPunct && t->text == text;
  }

  /// True when tokens[i] is *called* as a free function or via std:: — i.e.
  /// not a member access (`x.time(...)`), not another namespace's name
  /// (`fmt::time(...)`), and not a declaration (`long time() const` — a
  /// preceding identifier is a return type, except `return` itself).
  [[nodiscard]] bool free_or_std_call(std::size_t i) const {
    if (i == 0) return true;
    const Token& prev = scan_.tokens[i - 1];
    if (prev.kind == Token::Kind::kPunct) {
      if (prev.text == "." || prev.text == "->") return false;
      if (prev.text == "::") return i >= 2 && is_ident(i - 2, "std");
      return true;
    }
    if (prev.kind == Token::Kind::kIdent) return prev.text == "return";
    return true;
  }

  // -- R1 -------------------------------------------------------------------
  void check_nondeterminism() {
    const bool clock_ok = has_prefix(logical_, options_.clock_whitelist);
    const auto& tokens = scan_.tokens;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind != Token::Kind::kIdent) continue;
      if (t.text == "random_device") {
        emit(t.line, "nondeterminism",
             "std::random_device is an entropy source: a run can never be "
             "replayed. Seed an rng::Rng from configuration instead.");
        continue;
      }
      if ((t.text == "rand" || t.text == "srand") && is_punct(i + 1, "(") &&
          free_or_std_call(i)) {
        emit(t.line, "nondeterminism",
             t.text + "() uses hidden global state outside the rng::Rng "
                      "stream discipline; draws cannot be attributed or "
                      "replayed.");
        continue;
      }
      if ((t.text == "time" || t.text == "clock_gettime" ||
           t.text == "gettimeofday") &&
          is_punct(i + 1, "(") && free_or_std_call(i)) {
        emit(t.line, "nondeterminism",
             t.text + "() reads the wall clock; simulated components must "
                      "take time from their engine (rounds / virtual time).");
        continue;
      }
      // Any *_clock name, not only `*_clock::now()`: an alias
      // (`using Clock = std::chrono::steady_clock;`) would hide the later
      // `Clock::now()` from a token scanner.
      if (t.text.size() > 6 && t.text.ends_with("_clock") && !clock_ok) {
        emit(t.line, "nondeterminism",
             t.text + " outside the wall-clock whitelist (src/runtime/, "
                      "bench/, tests/); simulated components must not read "
                      "real time.");
      }
    }
  }

  // -- R2 -------------------------------------------------------------------
  void check_rng_copy() {
    const auto& tokens = scan_.tokens;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (!is_ident(i, "Rng")) continue;
      // Accept both `Rng` and `rng::Rng`; skip other namespaces' Rng.
      if (i >= 2 && is_punct(i - 1, "::") && !is_ident(i - 2, "rng")) continue;
      const std::size_t j = i + 1;
      const Token* next = tok(j);
      if (next == nullptr) continue;
      if (next->kind == Token::Kind::kPunct) {
        // `rng::Rng&`, `rng::Rng*`, `rng::Rng&&` are all fine; a bare
        // `rng::Rng` directly before `,` or `)` is an unnamed by-value
        // parameter.
        if ((next->text == "," || next->text == ")") && depth_[i] > 0) {
          emit(next->line, "rng-copy",
               "rng::Rng passed by value: the callee works on a fork of the "
               "stream and the caller's draw positions silently diverge. "
               "Pass rng::Rng& (or rng::Rng&& for ownership transfer).");
        }
        continue;
      }
      if (next->kind != Token::Kind::kIdent) continue;
      const Token* after = tok(j + 1);
      if (after == nullptr || after->kind != Token::Kind::kPunct) continue;
      if ((after->text == "," || after->text == ")") && depth_[i] > 0) {
        emit(next->line, "rng-copy",
             "parameter '" + next->text +
                 "' takes rng::Rng by value — a silent stream fork. Pass "
                 "rng::Rng& (or rng::Rng&& for ownership transfer).");
        continue;
      }
      if (after->text == "=") {
        // Copy-initialisation. A trailing `)` / `}` means a factory call or
        // braced seed (a fresh stream — fine); a trailing identifier means
        // the initialiser is an lvalue path (`other`, `table.at(a).rng`) and
        // the local is a stream fork.
        const Token* last = nullptr;
        for (std::size_t k = j + 2; k < tokens.size(); ++k) {
          const Token& e = tokens[k];
          if (e.kind == Token::Kind::kPunct &&
              (e.text == ";" || (e.text == "," && depth_[k] == depth_[i]))) {
            break;
          }
          last = &e;
        }
        if (last != nullptr && last->kind == Token::Kind::kIdent) {
          emit(next->line, "rng-copy",
               "local '" + next->text +
                   "' copy-initialises an rng::Rng from an existing stream — "
                   "both copies will replay the same draws. Bind a reference "
                   "or split a fresh stream instead.");
        }
      }
      // `Rng name;` (owning member), `Rng name(seed)`, `Rng name{seed}` and
      // function declarations `Rng split(...)` are all legitimate.
    }
  }

  // -- R3 -------------------------------------------------------------------
  [[nodiscard]] static std::string first_component(const std::string& path) {
    const std::size_t slash = path.find('/');
    return slash == std::string::npos ? std::string() : path.substr(0, slash);
  }

  void check_layering() {
    if (!logical_.starts_with("src/")) return;  // tools/bench/tests sit on top.
    const std::string from =
        first_component(logical_.substr(4));  // src/<dir>/...
    const auto self = options_.layers.find(from);
    if (self == options_.layers.end()) return;
    for (const IncludeDirective& inc : scan_.includes) {
      if (inc.angle) continue;
      const std::string to = first_component(inc.target);
      const auto target = options_.layers.find(to);
      if (target == options_.layers.end()) continue;
      if (target->second > self->second) {
        emit(inc.line, "layering",
             "src/" + from + "/ (layer " + std::to_string(self->second) +
                 ") must not include \"" + inc.target + "\" (layer " +
                 std::to_string(target->second) +
                 "): the DESIGN.md DAG is rng < stats < data/wire < host/obs "
                 "< core < sim/runtime < baselines.");
      }
    }
  }

  // -- R4 -------------------------------------------------------------------
  void check_unordered_iter() {
    if (!logical_.starts_with("src/")) return;  // Library TUs only.
    const auto& tokens = scan_.tokens;

    // Pass 1: names declared with an unordered container type.
    std::set<std::string> unordered;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind != Token::Kind::kIdent) continue;
      if (t.text != "unordered_map" && t.text != "unordered_set" &&
          t.text != "unordered_multimap" && t.text != "unordered_multiset") {
        continue;
      }
      std::size_t j = i + 1;
      if (!is_punct(j, "<")) continue;
      int angle = 1;
      ++j;
      while (j < tokens.size() && angle > 0) {
        if (is_punct(j, "<")) ++angle;
        if (is_punct(j, ">")) --angle;
        ++j;
      }
      const Token* name = tok(j);
      if (name != nullptr && name->kind == Token::Kind::kIdent) {
        unordered.insert(name->text);
      }
    }
    if (unordered.empty()) return;

    // Pass 2a: range-for over one of those names.
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (!is_ident(i, "for") || !is_punct(i + 1, "(")) continue;
      // depth_[] is the depth *before* each token, so every token inside the
      // for-parens (including the matching close paren) sits at base + 1.
      const int base = depth_[i + 1];
      std::size_t colon = 0;
      std::size_t close = 0;
      for (std::size_t k = i + 2; k < tokens.size(); ++k) {
        if (depth_[k] == base + 1 && is_punct(k, ")")) {
          close = k;
          break;
        }
        if (colon == 0 && depth_[k] == base + 1 && is_punct(k, ":")) {
          colon = k;
        }
      }
      if (colon == 0 || close == 0) continue;
      // Range expression: `name`, `this->name`, or `obj.name` — flag when
      // the final identifier is a known unordered container.
      const Token* last = tok(close - 1);
      if (last == nullptr || last->kind != Token::Kind::kIdent ||
          !unordered.contains(last->text)) {
        continue;
      }
      emit(last->text.empty() ? tokens[colon].line : last->line,
           "unordered-iter",
           "iteration over unordered container '" + last->text +
               "': bucket order is not deterministic across standard "
               "libraries and must not feed wire payloads, metrics, or "
               "evaluation series. Keep an insertion-order index (see "
               "core::InstanceStore's order walk) or sort first.");
    }

    // Pass 2b: ordered-access member calls on those names.
    for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind != Token::Kind::kIdent || !unordered.contains(t.text)) {
        continue;
      }
      if (!is_punct(i + 1, ".") && !is_punct(i + 1, "->")) continue;
      if ((is_ident(i + 2, "begin") || is_ident(i + 2, "cbegin")) &&
          is_punct(i + 3, "(")) {
        emit(t.line, "unordered-iter",
             "'" + t.text + "." + tok(i + 2)->text +
                 "()' exposes hash-bucket order; use an insertion-order "
                 "index or sort into a vector first.");
      }
    }
  }

  // -- R5 -------------------------------------------------------------------
  void check_confinement() {
    if (!logical_.starts_with("src/")) return;  // Library TUs only.
    const auto& tokens = scan_.tokens;

    // I/O: libraries must stay silent; printing belongs to tools and benches.
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind != Token::Kind::kIdent) continue;
      if (t.text == "cout" && i >= 2 && is_punct(i - 1, "::") &&
          is_ident(i - 2, "std")) {
        emit(t.line, "confinement",
             "std::cout in a src/ library: estimation code must not write to "
             "the process's streams — return data and let tools/bench print.");
        continue;
      }
      if ((t.text == "printf" || t.text == "puts" || t.text == "fprintf") &&
          is_punct(i + 1, "(") && free_or_std_call(i)) {
        emit(t.line, "confinement",
             t.text + "() in a src/ library: estimation code must not write "
                      "to the process's streams — return data and let "
                      "tools/bench print.");
      }
    }

    // Concurrency: only the substrates that own threads may synchronise.
    if (has_prefix(logical_, options_.concurrency_whitelist)) return;
    static const std::set<std::string> kPrimitives = {
        "mutex",          "recursive_mutex",
        "timed_mutex",    "shared_mutex",
        "atomic",         "atomic_flag",
        "atomic_ref",     "condition_variable",
        "condition_variable_any", "lock_guard",
        "unique_lock",    "scoped_lock",
        "shared_lock",    "thread",
        "jthread",        "this_thread",
        "future",         "promise",
        "async",          "counting_semaphore",
        "binary_semaphore", "barrier",
        "latch",
    };
    static const std::set<std::string> kHeaders = {
        "mutex",     "atomic",    "thread",     "condition_variable",
        "future",    "semaphore", "barrier",    "latch",
        "shared_mutex", "stop_token"};
    for (const IncludeDirective& inc : scan_.includes) {
      if (inc.angle && kHeaders.contains(inc.target)) {
        emit(inc.line, "confinement",
             "<" + inc.target + "> outside src/host/ and src/runtime/: "
             "concurrency lives in the substrates (sharded code borrows "
             "host::WorkerPool), never in protocol or statistics code.");
      }
    }
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind != Token::Kind::kIdent || !kPrimitives.contains(t.text)) {
        continue;
      }
      if (!is_punct(i - 1, "::") || !is_ident(i - 2, "std")) continue;
      emit(t.line, "confinement",
           "std::" + t.text + " outside src/host/ and src/runtime/: "
           "concurrency lives in the substrates (sharded code borrows "
           "host::WorkerPool), never in protocol or statistics code.");
    }
  }

  // -- R6 -------------------------------------------------------------------
  void check_hot_path_container() {
    if (!has_prefix(logical_, options_.hot_path_prefixes)) return;
    static const std::set<std::string> kFlagged = {
        "map", "multimap", "unordered_map", "unordered_multimap", "deque"};
    const auto& tokens = scan_.tokens;
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind != Token::Kind::kIdent || !kFlagged.contains(t.text)) {
        continue;
      }
      // `std::map<...>` / `std::deque<...>` only: a following `<` separates
      // the type from locals that merely *call* something named map, and
      // the std:: qualifier from other namespaces' types.
      if (!is_punct(i - 1, "::") || !is_ident(i - 2, "std")) continue;
      if (!is_punct(i + 1, "<")) continue;
      const std::string why =
          t.text == "deque"
              ? "an idle std::deque still holds its chunk map and first "
                "chunk (~600 B under libstdc++), paid once per object at "
                "million-node scale. Use a vector or a fixed ring that "
                "allocates on first use"
              : "node-based maps cost one cache miss per entry per "
                "traversal at scale. Keep per-instance state in "
                "core::InstanceStore's slot vector (DESIGN.md §7.5) and "
                "per-node state in vectors indexed by NodeId";
      emit(t.line, "hot-path-container",
           "std::" + t.text + " in the gossip hot path (src/core/), the "
           "host substrate (src/host/) or the simulators (src/sim/): " +
           why + "; annotate genuinely cold paths with "
           "allow(hot-path-container).");
    }
  }

  std::string path_;
  std::string logical_;
  const Scan& scan_;
  const Options& options_;
  std::vector<int> depth_;
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace

std::vector<Diagnostic> lint_source(std::string_view path,
                                    std::string_view text,
                                    const Options& options) {
  const Scan scan = scan_source(text);
  Analyzer analyzer(std::string(path), scan, options);
  return analyzer.run();
}

namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Calls `visit` on every source file under `roots` (a root may also be a
/// single file), skipping directories named "build*", ".git" and
/// "lint_fixtures".
void for_each_source(const std::vector<std::filesystem::path>& roots,
                     const std::function<void(const std::filesystem::path&)>&
                         visit) {
  namespace fs = std::filesystem;
  static const std::set<std::string> kExtensions = {".hpp", ".h",  ".hh",
                                                    ".cpp", ".cc", ".cxx"};
  auto skip_dir = [](const fs::path& p) {
    const std::string name = p.filename().string();
    return name.starts_with("build") || name == ".git" ||
           name == "lint_fixtures";
  };

  for (const fs::path& root : roots) {
    if (fs::is_regular_file(root)) {
      visit(root);
      continue;
    }
    if (!fs::is_directory(root)) continue;
    fs::recursive_directory_iterator it(root), end;
    while (it != end) {
      if (it->is_directory() && skip_dir(it->path())) {
        it.disable_recursion_pending();
        ++it;
        continue;
      }
      if (it->is_regular_file() &&
          kExtensions.contains(it->path().extension().string())) {
        visit(it->path());
      }
      ++it;
    }
  }
}

}  // namespace

std::vector<Diagnostic> lint_file(const std::filesystem::path& path,
                                  const Options& options) {
  return lint_source(path.generic_string(), read_file(path), options);
}

std::vector<Diagnostic> lint_tree(
    const std::vector<std::filesystem::path>& roots, const Options& options) {
  std::vector<Diagnostic> all;
  for_each_source(roots, [&](const std::filesystem::path& path) {
    auto diags = lint_file(path, options);
    all.insert(all.end(), diags.begin(), diags.end());
  });
  std::sort(all.begin(), all.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return all;
}

std::vector<AllowSite> allow_sites(
    const std::vector<std::filesystem::path>& roots) {
  const std::vector<std::string>& rules = rule_names();
  std::vector<AllowSite> sites;
  for_each_source(roots, [&](const std::filesystem::path& path) {
    const Scan scan = scan_source(read_file(path));
    for (const auto& [line, name] : scan.suppressions.names) {
      if (std::find(rules.begin(), rules.end(), name) == rules.end()) continue;
      sites.push_back({path.generic_string(), line, name});
    }
  });
  std::sort(sites.begin(), sites.end(), [](const AllowSite& a, const AllowSite& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return sites;
}

}  // namespace adam2::lint
