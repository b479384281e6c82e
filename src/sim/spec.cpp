#include "sim/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <type_traits>

namespace raidx::sim {

namespace {

constexpr double kMaxNs = kMaxSpanSeconds * 1e9;
/// 2^64: the first byte count a std::uint64_t cannot hold.
constexpr double kMaxBytes = 18446744073709551616.0;

std::string quoted(std::string_view text) {
  std::string out = "'";
  out += text;
  out += '\'';
  return out;
}

template <typename T>
std::string show(T v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

template <typename T>
[[noreturn]] void out_of_range(std::string_view text, std::string_view where,
                               T min, T max, std::string_view unit = "") {
  const bool low = min != std::numeric_limits<T>::lowest();
  const bool high = max != std::numeric_limits<T>::max();
  std::string bound;
  if (low && high) {
    bound = "in [" + show(min) + ", " + show(max) + "]";
  } else if (low) {
    bound = ">= " + show(min);
  } else {
    bound = "<= " + show(max);
  }
  spec_error(where, quoted(text) + " is out of range: must be " + bound +
                        std::string(unit));
}

void reject_sign(std::string_view text, std::string_view where) {
  if (!text.empty() && (text[0] == '-' || text[0] == '+')) {
    spec_error(where, quoted(text) + " has a sign, but the value is unsigned");
  }
}

/// The unsigned number at the front of `text`; `rest` gets what follows.
double leading_unsigned(std::string_view text, std::string_view where,
                        std::string_view& rest) {
  reject_sign(text, where);
  double v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec == std::errc::result_out_of_range) {
    spec_error(where, quoted(text) + " is out of range");
  }
  if (ec != std::errc{}) spec_error(where, quoted(text) + " is not a number");
  if (!std::isfinite(v)) spec_error(where, quoted(text) + " is not finite");
  rest = text.substr(static_cast<std::size_t>(ptr - text.data()));
  return v;
}

}  // namespace

void spec_error(std::string_view where, std::string_view why) {
  throw std::invalid_argument(std::string(where) + ": " + std::string(why));
}

std::vector<std::string_view> split_items(std::string_view spec, char sep) {
  std::vector<std::string_view> out;
  while (!spec.empty()) {
    const std::size_t end = std::min(spec.find(sep), spec.size());
    if (end > 0) out.push_back(spec.substr(0, end));
    spec.remove_prefix(std::min(end + 1, spec.size()));
  }
  return out;
}

template <typename T>
T parse_number(std::string_view text, std::string_view where, T min, T max) {
  if constexpr (std::is_unsigned_v<T>) reject_sign(text, where);
  T v{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec == std::errc::result_out_of_range) {
    spec_error(where, quoted(text) + " is out of range");
  }
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    spec_error(where, quoted(text) + " is not a number");
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) spec_error(where, quoted(text) + " is not finite");
  }
  if (v < min || v > max) out_of_range(text, where, min, max);
  return v;
}

template int parse_number<int>(std::string_view, std::string_view, int, int);
template std::uint32_t parse_number<std::uint32_t>(std::string_view,
                                                   std::string_view,
                                                   std::uint32_t,
                                                   std::uint32_t);
template std::uint64_t parse_number<std::uint64_t>(std::string_view,
                                                   std::string_view,
                                                   std::uint64_t,
                                                   std::uint64_t);
template double parse_number<double>(std::string_view, std::string_view,
                                     double, double);

Time parse_duration(std::string_view text, std::string_view where,
                    Time min) {
  std::string_view unit;
  const double v = leading_unsigned(text, where, unit);
  if (unit.empty()) {
    spec_error(where, quoted(text) + " needs a unit (ns|us|ms|s)");
  }
  double scale = 0;
  if (unit == "ns") scale = 1;
  else if (unit == "us") scale = 1e3;
  else if (unit == "ms") scale = 1e6;
  else if (unit == "s") scale = 1e9;
  else {
    spec_error(where, quoted(text) + " has unknown unit " + quoted(unit) +
                          " (ns|us|ms|s)");
  }
  // The same products sim::seconds, milliseconds and microseconds form.
  const double ns = v * scale;
  if (ns > kMaxNs) spec_error(where, quoted(text) + " is out of range");
  const auto t = static_cast<Time>(ns);
  if (t < min) {
    out_of_range(text, where, min, std::numeric_limits<Time>::max(), "ns");
  }
  return t;
}

double parse_rate(std::string_view text, std::string_view where,
                  bool zero_is_off) {
  const double v = parse_number<double>(text, where);
  if (zero_is_off && v == 0.0) return v;
  if (v < kMinRateMbs) {
    spec_error(where, quoted(text) + " is out of range: must be " +
                          (zero_is_off ? "0 (off) or " : "") +
                          ">= " + show(kMinRateMbs) + " MB/s");
  }
  return v;
}

std::uint64_t parse_size(std::string_view text, std::string_view where,
                         std::uint64_t min, std::uint64_t max) {
  std::string_view unit;
  const double v = leading_unsigned(text, where, unit);
  std::uint64_t mult = 1;
  if (unit == "K" || unit == "k") mult = std::uint64_t{1} << 10;
  else if (unit == "M" || unit == "m") mult = std::uint64_t{1} << 20;
  else if (unit == "G" || unit == "g") mult = std::uint64_t{1} << 30;
  else if (!unit.empty()) {
    spec_error(where,
               quoted(text) + " has unknown unit " + quoted(unit) + " (K|M|G)");
  }
  const double bytes = v * static_cast<double>(mult);
  if (bytes >= kMaxBytes) spec_error(where, quoted(text) + " is out of range");
  const auto n = static_cast<std::uint64_t>(bytes);
  if (n < min || n > max) out_of_range(text, where, min, max, " bytes");
  return n;
}

void Clause::unknown_key() const {
  throw std::invalid_argument(std::string(flag) + " has no key " +
                              quoted(key));
}

std::vector<Clause> parse_clauses(std::string_view spec, char sep,
                                  std::string_view flag) {
  std::vector<Clause> out;
  for (std::string_view item : split_items(spec, sep)) {
    std::string where = std::string(flag) + " clause " + quoted(item);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument(where + " is not key=value");
    }
    if (eq + 1 == item.size()) spec_error(where, "empty value");
    out.push_back(Clause{flag, item.substr(0, eq), item.substr(eq + 1),
                         std::move(where)});
  }
  return out;
}

}  // namespace raidx::sim
