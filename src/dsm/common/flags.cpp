#include "dsm/common/flags.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "dsm/common/contracts.h"

namespace dsm {
namespace {

const FlagSpec* find(std::span<const FlagSpec> table, std::string_view name) {
  for (const FlagSpec& s : table) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// The items of a '|'-separated list.
std::vector<std::string_view> items(std::string_view list) {
  std::vector<std::string_view> out;
  while (!list.empty()) {
    const auto bar = list.find('|');
    out.push_back(list.substr(0, bar));
    if (bar == std::string_view::npos) break;
    list.remove_prefix(bar + 1);
  }
  return out;
}

/// "--a", "--a or --b", ... for messages: the flags of `list` that apply to
/// `command`.
std::string flag_list(std::span<const FlagSpec> table, std::string_view list,
                      unsigned command) {
  std::string out;
  for (const std::string_view name : items(list)) {
    if ((find(table, name)->commands & command) == 0) continue;
    out += (out.empty() ? "--" : " or --") + std::string(name);
  }
  return out;
}

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

std::string number_str(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Why `value` is not a valid value of `spec` ("" when it is).
std::string flag_value_error(const FlagSpec& spec, std::string_view value) {
  const std::string flag = std::string("--") + spec.name;
  const std::string shown = flag + "='" + std::string(value) + "'";
  double v = 0.0;
  switch (spec.type) {
    case FlagType::kSwitch:
      return value.empty() ? "" : flag + " takes no value";
    case FlagType::kText:
      return value.empty() ? flag + " needs a value" : "";
    case FlagType::kChoice:
      for (const std::string_view choice : items(spec.value)) {
        if (value == choice) return "";
      }
      return "unknown " + shown + " (want " + spec.value + ")";
    case FlagType::kInt: {
      std::int64_t i = 0;
      if (!parse_number(value, i)) return shown + " is not an integer";
      v = static_cast<double>(i);
      break;
    }
    case FlagType::kReal:
      if (!parse_number(value, v) || !std::isfinite(v)) {
        return shown + " is not a number";
      }
      break;
  }
  if (v >= spec.min && v <= spec.max) return "";
  return shown + " is out of range [" + number_str(spec.min) + ", " +
         number_str(spec.max) + "]";
}

}  // namespace

std::optional<FlagValues> parse_flags(std::span<const FlagSpec> table,
                                      std::span<const char* const> args,
                                      unsigned command, std::string& error) {
  FlagValues out;
  out.table_ = table;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string_view arg = args[i];
    if (!arg.starts_with("--")) {
      out.positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    const std::string flag = "--" + std::string(arg.substr(0, eq));
    const FlagSpec* spec = find(table, arg.substr(0, eq));
    if (spec == nullptr) {
      error = "unknown flag " + flag;
      return std::nullopt;
    }
    if ((spec->commands & command) == 0) {
      error = flag + " does not apply to this command";
      return std::nullopt;
    }
    std::string value;
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (spec->type != FlagType::kSwitch) {
      if (i + 1 == args.size() ||
          std::string_view(args[i + 1]).starts_with("--")) {
        error = flag + " needs a value";
        return std::nullopt;
      }
      value = args[++i];
    }
    out.given_[spec->name] = std::move(value);
  }
  // Values (the last of duplicates) and partners, in table order so the
  // reported error is deterministic.
  for (const FlagSpec& s : table) {
    const auto it = out.given_.find(s.name);
    if (it == out.given_.end()) {
      DSM_REQUIRE(*s.fallback == '\0' ||
                  flag_value_error(s, s.fallback).empty());
      continue;
    }
    if (std::string bad = flag_value_error(s, it->second); !bad.empty()) {
      error = std::move(bad);
      return std::nullopt;
    }
    bool satisfied = *s.needs == '\0' || (s.needs_in & command) == 0;
    for (const std::string_view partner : items(s.needs)) {
      satisfied = satisfied || out.has(partner);
    }
    if (!satisfied) {
      error = std::string("--") + s.name + " needs " +
              flag_list(table, s.needs, command);
      return std::nullopt;
    }
    for (const std::string_view other : items(s.excludes)) {
      if (out.has(other)) {
        error = std::string("--") + s.name + " and --" + std::string(other) +
                " exclude each other";
        return std::nullopt;
      }
    }
  }
  return out;
}

bool FlagValues::has(std::string_view name) const {
  DSM_REQUIRE(find(table_, name) != nullptr);
  return given_.find(name) != given_.end();
}

std::string FlagValues::value(std::string_view name, FlagType a,
                              FlagType b) const {
  const FlagSpec* s = find(table_, name);
  DSM_REQUIRE(s != nullptr && (s->type == a || s->type == b));
  const auto it = given_.find(name);
  return it != given_.end() ? it->second : s->fallback;
}

std::string flag_usage(std::span<const FlagSpec> table, unsigned commands,
                       std::span<const char* const> command_names) {
  constexpr std::size_t kColumn = 28;
  std::string out;
  for (const FlagSpec& s : table) {
    if ((s.commands & commands) == 0) continue;
    std::string line = std::string("  --") + s.name;
    if (s.type != FlagType::kSwitch) line += std::string("=") + s.value;
    line += line.size() < kColumn ? std::string(kColumn - line.size(), ' ')
                                  : "\n" + std::string(kColumn, ' ');
    line += s.help;
    if (*s.fallback != '\0') {
      line += std::string(" (default ") + s.fallback + ")";
    }
    if (s.commands != kAnyCommand && !command_names.empty()) {
      std::string scope;
      for (std::size_t bit = 0; bit < command_names.size(); ++bit) {
        if ((s.commands >> bit & 1u) != 0) {
          scope += (scope.empty() ? "" : " ") + std::string(command_names[bit]);
        }
      }
      line += " [" + scope + "]";
    }
    out += line + "\n";
  }
  return out;
}

}  // namespace dsm
