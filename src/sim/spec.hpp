// One grammar for every value a command-line spec or flag carries.
//
// A spec is a list of items separated by one character (';' between fault
// events, ',' between key=value clauses).  Empty items are skipped.  Every
// value parses in full or not at all:
//   number    std::from_chars over the whole text: no blanks, no '+', no
//             trailing bytes, no sign on an unsigned type, finite, inside
//             the type and the caller's [min, max];
//   duration  an unsigned number and a required unit ns|us|ms|s ("250ms",
//             "0.5s"); a bare number is an error, never a guessed unit;
//   size      an unsigned number of bytes with an optional K|M|G suffix
//             (binary, either case): "32K", "1.5M";
//   rate      MB/s, at least kMinRateMbs (or 0 for "off" where allowed);
//   choice    one word of a fixed list ("poisson|burst").
// Every error throws std::invalid_argument "<where>: <why>", where `where`
// cites the flag and the clause verbatim ("--open-loop clause 'zipf=abc'"),
// so a long spec with one typo points straight at it.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace raidx::sim {

/// The slowest rate a spec may give, in MB/s (1 KB/s).  At it the largest
/// block (4 GiB) moves in 50 days and a 1 TB disk rebuilds or scrubs in 32
/// years: every wait a rate paces, and the run it paces, stay inside
/// kMaxSpanSeconds and the simulated clock.
inline constexpr double kMinRateMbs = 1e-3;

/// Throws std::invalid_argument("<where>: <why>").
[[noreturn]] void spec_error(std::string_view where, std::string_view why);

/// The non-empty items of `spec` between `sep` characters, verbatim.
std::vector<std::string_view> split_items(std::string_view spec, char sep);

template <typename T>
T parse_number(std::string_view text, std::string_view where,
               T min = std::numeric_limits<T>::lowest(),
               T max = std::numeric_limits<T>::max());

/// Nanoseconds, computed as sim::seconds/milliseconds/microseconds do.
Time parse_duration(std::string_view text, std::string_view where,
                    Time min = 0);

/// A rate in MB/s of at least kMinRateMbs, or 0 when `zero_is_off` (a
/// throttle or gate that 0 switches off).
double parse_rate(std::string_view text, std::string_view where,
                  bool zero_is_off);

std::uint64_t parse_size(
    std::string_view text, std::string_view where, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

template <typename T>
T parse_choice(std::string_view text, std::string_view where,
               std::initializer_list<std::pair<std::string_view, T>> options) {
  std::string names;
  for (const auto& [name, value] : options) {
    if (name == text) return value;
    if (!names.empty()) names += '|';
    names += name;
  }
  spec_error(where, std::string(1, '\'').append(text).append(
                        "' is not one of " + names));
}

/// One `key=value` clause of `flag`'s spec.  The views point into the
/// spec, which must outlive the clause.
struct Clause {
  std::string_view flag, key, value;
  std::string where;  // "<flag> clause '<key>=<value>'"

  [[noreturn]] void fail(std::string_view why) const {
    spec_error(where, why);
  }
  /// "<flag> has no key '<key>'".
  [[noreturn]] void unknown_key() const;
  template <typename T>
  T number(T min = std::numeric_limits<T>::lowest(),
           T max = std::numeric_limits<T>::max()) const {
    return parse_number<T>(value, where, min, max);
  }
  Time duration(Time min = 0) const {
    return parse_duration(value, where, min);
  }
  double rate(bool zero_is_off) const {
    return parse_rate(value, where, zero_is_off);
  }
  template <typename T>
  T choice(std::initializer_list<std::pair<std::string_view, T>> options)
      const {
    return parse_choice<T>(value, where, options);
  }
};

/// The key=value clauses of `spec` between `sep` characters.  An item with
/// no '=' or an empty key or value throws, citing the item.
std::vector<Clause> parse_clauses(std::string_view spec, char sep,
                                  std::string_view flag);

}  // namespace raidx::sim
