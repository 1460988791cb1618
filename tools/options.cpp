#include "options.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

extern char** environ;

namespace adam2::tools {

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string name = arg.substr(2);
    if (name.empty()) throw std::invalid_argument("bare -- is not a flag");
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      values_[name.substr(0, eq)] = name.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is another flag (then a switch).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[name] = argv[++i];
    } else {
      values_[name] = "";
    }
  }
}

Options Options::from_env(const std::string& prefix) {
  Options options;
  options.env_prefix_ = prefix;
  const std::string lead = prefix + "_";
  for (char** entry = environ; entry != nullptr && *entry != nullptr;
       ++entry) {
    const std::string var = *entry;
    if (var.rfind(lead, 0) != 0) continue;
    const auto eq = var.find('=');
    if (eq == std::string::npos || eq <= lead.size()) continue;
    // An empty variable counts as unset (`FOO= prog` disables FOO), matching
    // the benches' historical getenv handling.
    if (eq + 1 == var.size()) continue;
    std::string key = var.substr(lead.size(), eq - lead.size());
    for (char& c : key) {
      c = c == '_' ? '-'
                   : static_cast<char>(
                         std::tolower(static_cast<unsigned char>(c)));
    }
    options.values_[key] = var.substr(eq + 1);
  }
  return options;
}

std::string Options::describe(const std::string& name) const {
  if (env_prefix_.empty()) return "flag --" + name;
  std::string var = name;
  for (char& c : var) {
    c = c == '-' ? '_'
                 : static_cast<char>(
                       std::toupper(static_cast<unsigned char>(c)));
  }
  return "environment variable " + env_prefix_ + "_" + var;
}

bool Options::has(const std::string& name) const {
  seen_[name] = true;
  return values_.count(name) > 0;
}

std::string Options::get(const std::string& name,
                         const std::string& fallback) const {
  seen_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& name,
                              std::int64_t fallback) const {
  seen_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  // strtoll converts nothing from "" (a bare `--nodes`) and saturates on
  // overflow; both must fail like any other malformed value.
  char* end = nullptr;
  errno = 0;
  const auto value = std::strtoll(it->second.c_str(), &end, 10);
  if (it->second.empty() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument(describe(name) + " expects an integer, got '" +
                                it->second + "'");
  }
  return value;
}

double Options::get_double(const std::string& name, double fallback) const {
  seen_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  // As in get_int; an underflow (ERANGE with a result near 0) is still a
  // number, only an overflow to ±HUGE_VAL fails.
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(it->second.c_str(), &end);
  if (it->second.empty() || *end != '\0' ||
      (errno == ERANGE && std::isinf(value))) {
    throw std::invalid_argument(describe(name) + " expects a number, got '" +
                                it->second + "'");
  }
  return value;
}

void Options::reject_unknown() const {
  for (const auto& [name, value] : values_) {
    if (!seen_.count(name)) {
      throw std::invalid_argument("unknown " + describe(name));
    }
  }
}

host::FaultPlan parse_fault_plan(const Options& options) {
  host::FaultPlan plan;
  plan.drop_rate = options.get_double("fault-drop", 0.0);
  plan.duplicate_rate = options.get_double("fault-duplicate", 0.0);
  plan.corrupt_rate = options.get_double("fault-corrupt", 0.0);
  plan.crash_rate = options.get_double("fault-crash", 0.0);
  plan.delay_rate = options.get_double("fault-delay", 0.0);
  plan.max_delay = options.get_double("fault-max-delay", 0.5);
  plan.partition_count =
      static_cast<std::size_t>(options.get_int("fault-partitions", 0));
  plan.partition_start =
      static_cast<host::Round>(options.get_int("fault-start", 0));
  plan.partition_heal_after =
      static_cast<host::Round>(options.get_int("fault-heal", 0));
  plan.seed = static_cast<std::uint64_t>(
      options.get_int("fault-seed", static_cast<std::int64_t>(plan.seed)));
  for (double rate : {plan.drop_rate, plan.duplicate_rate, plan.corrupt_rate,
                      plan.crash_rate, plan.delay_rate}) {
    if (rate < 0.0 || rate > 1.0) {
      throw std::invalid_argument("fault rates must be in [0, 1]");
    }
  }
  return plan;
}

}  // namespace adam2::tools
