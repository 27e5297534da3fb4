// optcm — declarative command-line flags.
//
// A program lists every flag it accepts in one table of FlagSpec rows: name,
// type, the subcommands it applies to, default, range or choices, the
// partners it needs or excludes, and a one-line help.  parse_flags reads the
// command line against that table in one strict pass and returns typed
// values, or the first error naming the flag: unknown flag, flag not valid
// for the subcommand, missing or malformed value, value out of range, unknown
// choice, missing partner, conflicting partner.  Values take "--key=value" or
// "--key value"; switches take no value, so "--history run.log" keeps the
// positional.  A repeated flag keeps its last value.  flag_usage renders the
// same table as help text.

#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace dsm {

/// A decimal u64 and nothing else: no sign, no space, no trailing text, no
/// overflow.  Every number inside a structured flag value (--crash,
/// --partition, --nemesis) is read with it.
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(
    std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t out = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return out;
}

enum class FlagType { kSwitch, kInt, kReal, kText, kChoice };

/// FlagSpec::commands value: the flag applies to every subcommand.
inline constexpr unsigned kAnyCommand = ~0u;

struct FlagSpec {
  const char* name;
  FlagType type = FlagType::kSwitch;
  unsigned commands = kAnyCommand;  ///< bitmask of subcommands accepting it
  /// Usage placeholder ("N", "FILE"); for kChoice the '|'-separated choices.
  const char* value = "";
  const char* fallback = "";  ///< default when absent ("" = none)
  double min = -std::numeric_limits<double>::infinity();  ///< kInt/kReal,
  double max = std::numeric_limits<double>::infinity();   ///< inclusive
  /// '|'-separated flags of which at least one must also be given ...
  const char* needs = "";
  unsigned needs_in = kAnyCommand;  ///< ... on these subcommands
  const char* excludes = "";  ///< '|'-separated flags that must be absent
  const char* help = "";
};

/// The validated command line.  Accessors take a flag name from the table
/// and return its value, or its default when the flag was not given.
class FlagValues {
 public:
  /// Given on the command line (switches: set).
  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] std::string text(std::string_view name) const {
    return value(name, FlagType::kText, FlagType::kChoice);
  }
  /// kInt flags as any integral T, kReal flags as any floating-point T.
  template <typename T>
  [[nodiscard]] T num(std::string_view name) const {
    const FlagType type =
        std::is_floating_point_v<T> ? FlagType::kReal : FlagType::kInt;
    const std::string v = value(name, type, type);
    T out{};
    std::from_chars(v.data(), v.data() + v.size(), out);
    return out;
  }
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  friend std::optional<FlagValues> parse_flags(std::span<const FlagSpec>,
                                               std::span<const char* const>,
                                               unsigned, std::string&);
  /// The given value, else the default, of a flag of type `a` or `b`.
  [[nodiscard]] std::string value(std::string_view name, FlagType a,
                                  FlagType b) const;

  std::span<const FlagSpec> table_;
  std::map<std::string, std::string, std::less<>> given_;
  std::vector<std::string> positional_;
};

/// Parse `args` (the tokens after the program name and subcommand) for the
/// subcommand bit `command`.  On failure `error` names the offending flag.
/// Every default in `table` must be a valid value of its flag.
[[nodiscard]] std::optional<FlagValues> parse_flags(
    std::span<const FlagSpec> table, std::span<const char* const> args,
    unsigned command, std::string& error);

/// One help line per flag of `table` that applies to any bit of `commands`.
/// With `command_names` (name of bit i at index i), a flag that does not
/// apply to every subcommand lists the ones it does.
[[nodiscard]] std::string flag_usage(
    std::span<const FlagSpec> table, unsigned commands,
    std::span<const char* const> command_names = {});

}  // namespace dsm
