// optcm — stats field tables: each layer's plain counter struct lists its
// fields once, as {metric name, member pointer} rows.
//
// A stats struct (TcpStats, ReliableStats, WalStats, …) is the one place its
// layer counts.  Its table `S::kFields`, defined right after the struct and
// followed by `static_assert(covers_every_field<S>())`, is the only list of
// those counters: the kFetchStats codec, every sum across nodes and the
// per-field tests walk it, and the build fails while a field has no row.

#pragma once

#include <cstdint>
#include <iterator>
#include <type_traits>

namespace dsm {

/// One counter of stats struct S.
template <class S>
struct StatField {
  const char* name;          ///< its dsm::metric name
  std::uint64_t S::*member;  ///< where S keeps it
};

/// A struct of u64 counters with a field table `S::kFields`.
template <class S>
concept StatsStruct = requires { std::size(S::kFields); };

/// True when S's table names all of S: every member is a u64 counter, so
/// the rows cover S exactly when they account for each of its bytes.
template <StatsStruct S>
[[nodiscard]] constexpr bool covers_every_field() {
  return std::size(S::kFields) * sizeof(std::uint64_t) == sizeof(S);
}

/// f(name, value) for each counter of `s` in table order; `value` is a
/// reference, mutable when `s` is.
template <class S, class F>
  requires StatsStruct<std::remove_const_t<S>>
void for_each_stat(S& s, F&& f) {
  for (const auto& field : std::remove_const_t<S>::kFields) {
    f(field.name, s.*field.member);
  }
}

/// Field-wise sum.
template <StatsStruct S>
S& operator+=(S& into, const S& from) noexcept {
  for (const auto& field : S::kFields) into.*field.member += from.*field.member;
  return into;
}

}  // namespace dsm
