// Unit tests for the spec grammar (src/sim/spec): every value raidxsim and
// the fault plan read goes through these parsers, so each row pins either
// an accepted text and its exact value or a rejection and what it cites.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/spec.hpp"
#include "sim/time.hpp"

using namespace raidx;

namespace {

/// The message of the std::invalid_argument `fn` throws ("" if none).
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

struct Reject {
  std::string_view text;
  std::string_view why;  // substring of the message after "<where>: "
};

TEST(Spec, NumbersParseInFullOrNotAtAll) {
  EXPECT_EQ(sim::parse_number<int>("42", "--n"), 42);
  EXPECT_EQ(sim::parse_number<int>("-7", "--n"), -7);
  EXPECT_EQ(sim::parse_number<std::uint64_t>("18446744073709551615", "--n"),
            18446744073709551615ull);
  EXPECT_EQ(sim::parse_number<std::uint32_t>("4294967295", "--n"),
            4294967295u);
  EXPECT_EQ(sim::parse_number<double>("0.5", "--x"), 0.5);
  EXPECT_EQ(sim::parse_number<double>("1e3", "--x"), 1000.0);
  EXPECT_EQ(sim::parse_number<double>("-2.5", "--x"), -2.5);

  const std::vector<Reject> ints = {
      {"", "'' is not a number"},
      {"abc", "'abc' is not a number"},
      {"5x", "'5x' is not a number"},          // trailing bytes
      {"1e3", "'1e3' is not a number"},        // no exponent on an integer
      {"2.0", "'2.0' is not a number"},
      {" 5", "' 5' is not a number"},          // no leading blank
      {"5 ", "'5 ' is not a number"},
      {"+5", "'+5' is not a number"},          // no '+'
      {"0x10", "'0x10' is not a number"},
      {"99999999999", "'99999999999' is out of range"},  // overflows int
      {"-99999999999", "'-99999999999' is out of range"},
  };
  for (const Reject& r : ints) {
    const std::string msg =
        error_of([&] { sim::parse_number<int>(r.text, "--n"); });
    EXPECT_EQ(msg, "--n: " + std::string(r.why)) << "'" << r.text << "'";
  }

  const std::vector<Reject> unsigned_ = {
      {"-1", "'-1' has a sign, but the value is unsigned"},
      {"+1", "'+1' has a sign, but the value is unsigned"},
      {"-0", "'-0' has a sign, but the value is unsigned"},
      {"18446744073709551616", "'18446744073709551616' is out of range"},
  };
  for (const Reject& r : unsigned_) {
    const std::string msg =
        error_of([&] { sim::parse_number<std::uint64_t>(r.text, "--n"); });
    EXPECT_EQ(msg, "--n: " + std::string(r.why)) << "'" << r.text << "'";
  }
  EXPECT_EQ(error_of([] {
              sim::parse_number<std::uint32_t>("4294967296", "--n");
            }),
            "--n: '4294967296' is out of range");

  const std::vector<Reject> doubles = {
      {"inf", "'inf' is not finite"},
      {"-inf", "'-inf' is not finite"},
      {"infinity", "'infinity' is not finite"},
      {"nan", "'nan' is not finite"},
      {"1e999", "'1e999' is out of range"},
      {"0.5s", "'0.5s' is not a number"},
      {".", "'.' is not a number"},
  };
  for (const Reject& r : doubles) {
    const std::string msg =
        error_of([&] { sim::parse_number<double>(r.text, "--x"); });
    EXPECT_EQ(msg, "--x: " + std::string(r.why)) << "'" << r.text << "'";
  }
}

TEST(Spec, NumbersHonourTheCallersBounds) {
  EXPECT_EQ(sim::parse_number<int>("1", "--w", 1), 1);
  EXPECT_EQ(error_of([] { sim::parse_number<int>("0", "--w", 1); }),
            "--w: '0' is out of range: must be >= 1");
  EXPECT_EQ(error_of([] { sim::parse_number<double>("1.5", "--f", 0.0, 1.0); }),
            "--f: '1.5' is out of range: must be in [0, 1]");
  EXPECT_EQ(error_of([] { sim::parse_number<int>("9", "--m", -5, 5); }),
            "--m: '9' is out of range: must be in [-5, 5]");
  EXPECT_EQ(sim::parse_number<double>("1", "--f", 0.0, 1.0), 1.0);
}

TEST(Spec, DurationsNeedAUnitAndMatchTheTimeHelpers) {
  // Each unit converts exactly as sim::seconds/milliseconds/microseconds
  // do, so a fault plan parses to the same nanoseconds it always has.
  for (const double v : {0.0, 0.2, 0.3, 1.0, 2.5, 4.1, 1001.0, 16.9}) {
    const std::string s = std::to_string(v);
    EXPECT_EQ(sim::parse_duration(s + "s", "d"), sim::seconds(v)) << s;
    EXPECT_EQ(sim::parse_duration(s + "ms", "d"), sim::milliseconds(v)) << s;
    EXPECT_EQ(sim::parse_duration(s + "us", "d"), sim::microseconds(v)) << s;
    EXPECT_EQ(sim::parse_duration(s + "ns", "d"), static_cast<sim::Time>(v))
        << s;
  }
  EXPECT_EQ(sim::parse_duration("250ms", "d"), sim::milliseconds(250));
  EXPECT_EQ(sim::parse_duration("1e3us", "d"), sim::milliseconds(1));

  const std::vector<Reject> bad = {
      {"250", "'250' needs a unit (ns|us|ms|s)"},  // bare number
      {"", "'' is not a number"},
      {"ms", "'ms' is not a number"},
      {"250fortnights", "'250fortnights' has unknown unit 'fortnights'"},
      {"250 ms", "'250 ms' has unknown unit ' ms'"},
      {"2sx", "'2sx' has unknown unit 'sx'"},
      {"2S", "'2S' has unknown unit 'S'"},
      {"-1s", "'-1s' has a sign, but the value is unsigned"},
      {"+1s", "'+1s' has a sign, but the value is unsigned"},
      {"infs", "'infs' is not finite"},
      {"nanms", "'nanms' is not finite"},
      {"1e999s", "'1e999s' is out of range"},
      {"1e10s", "'1e10s' is out of range"},  // past what a Time holds
  };
  for (const Reject& r : bad) {
    const std::string msg =
        error_of([&] { sim::parse_duration(r.text, "--slo clause 'x'"); });
    EXPECT_EQ(msg.rfind("--slo clause 'x': " + std::string(r.why), 0), 0u)
        << "'" << r.text << "' -> " << msg;
  }
  EXPECT_EQ(error_of([] { sim::parse_duration("0ms", "d", 1); }),
            "d: '0ms' is out of range: must be >= 1ns");
}

TEST(Spec, SizesTakeAnOptionalBinarySuffix) {
  EXPECT_EQ(sim::parse_size("512", "--b"), 512u);
  EXPECT_EQ(sim::parse_size("32K", "--b"), 32u << 10);
  EXPECT_EQ(sim::parse_size("32k", "--b"), 32u << 10);
  EXPECT_EQ(sim::parse_size("64M", "--b"), 64ull << 20);
  EXPECT_EQ(sim::parse_size("64m", "--b"), 64ull << 20);
  EXPECT_EQ(sim::parse_size("2G", "--b"), 2ull << 30);
  EXPECT_EQ(sim::parse_size("1.5M", "--b"), 1572864u);
  EXPECT_EQ(sim::parse_size("1e3", "--b"), 1000u);

  const std::vector<Reject> bad = {
      {"", "'' is not a number"},
      {"K", "'K' is not a number"},
      {"1KB", "'1KB' has unknown unit 'KB' (K|M|G)"},
      {"32X", "'32X' has unknown unit 'X' (K|M|G)"},
      {"-1K", "'-1K' has a sign, but the value is unsigned"},
      {"infK", "'infK' is not finite"},
      {"nan", "'nan' is not finite"},
      {"99999999999G", "'99999999999G' is out of range"},
      {"1e999", "'1e999' is out of range"},
  };
  for (const Reject& r : bad) {
    const std::string msg =
        error_of([&] { sim::parse_size(r.text, "--b"); });
    EXPECT_EQ(msg, "--b: " + std::string(r.why)) << "'" << r.text << "'";
  }
  EXPECT_EQ(error_of([] { sim::parse_size("0", "--block", 1, 4096); }),
            "--block: '0' is out of range: must be in [1, 4096] bytes");
  EXPECT_EQ(error_of([] { sim::parse_size("8K", "--block", 1, 4096); }),
            "--block: '8K' is out of range: must be in [1, 4096] bytes");
}

TEST(Spec, RatesHaveAFloorAndZeroOnlyWhereItMeansOff) {
  EXPECT_EQ(sim::parse_rate("20", "--r", false), 20.0);
  EXPECT_EQ(sim::parse_rate("0.001", "--r", false), sim::kMinRateMbs);
  EXPECT_EQ(sim::parse_rate("0", "--r", true), 0.0);

  const std::vector<Reject> bad = {
      {"0", "'0' is out of range: must be >= 0.001 MB/s"},
      {"0.0009", "'0.0009' is out of range: must be >= 0.001 MB/s"},
      {"1e-300", "'1e-300' is out of range: must be >= 0.001 MB/s"},
      {"-5", "'-5' is out of range: must be >= 0.001 MB/s"},
      {"inf", "'inf' is not finite"},
      {"5x", "'5x' is not a number"},
  };
  for (const Reject& r : bad) {
    EXPECT_EQ(error_of([&] { sim::parse_rate(r.text, "--r", false); }),
              "--r: " + std::string(r.why))
        << "'" << r.text << "'";
  }
  EXPECT_EQ(error_of([] { sim::parse_rate("1e-9", "--r", true); }),
            "--r: '1e-9' is out of range: must be 0 (off) or >= 0.001 MB/s");
}

TEST(Spec, TimeHelpersSaturateInsteadOfOverflowing) {
  // A wait paced by a rate converts through these helpers; past
  // kMaxSpanSeconds it saturates rather than leave the conversion
  // undefined.
  constexpr auto kTop = static_cast<sim::Time>(sim::kMaxSpanSeconds * 1e9);
  EXPECT_EQ(sim::seconds(sim::kMaxSpanSeconds), kTop);
  EXPECT_EQ(sim::seconds(1e300), kTop);
  EXPECT_EQ(sim::seconds(-1e300), -kTop);
  EXPECT_EQ(sim::seconds(std::numeric_limits<double>::infinity()), kTop);
  EXPECT_EQ(sim::seconds(std::numeric_limits<double>::quiet_NaN()), kTop);
  EXPECT_EQ(sim::milliseconds(1e300), kTop);
  EXPECT_EQ(sim::microseconds(1e300), kTop);
  EXPECT_EQ(sim::transfer_time(1 << 20, 1e-300), kTop);
  EXPECT_EQ(sim::seconds(2.5), 2'500'000'000);
  EXPECT_EQ(sim::transfer_time(1'000'000, 1.0), sim::seconds(1));
}

TEST(Spec, ChoicesNameTheirOptions) {
  enum class Op { kRead, kWrite };
  const auto op = [](std::string_view text) {
    return sim::parse_choice<Op>(text, "--op",
                                 {{"read", Op::kRead}, {"write", Op::kWrite}});
  };
  EXPECT_EQ(op("read"), Op::kRead);
  EXPECT_EQ(op("write"), Op::kWrite);
  EXPECT_EQ(error_of([&] { op("wirte"); }),
            "--op: 'wirte' is not one of read|write");
  EXPECT_EQ(error_of([&] { op(""); }), "--op: '' is not one of read|write");
  EXPECT_EQ(error_of([&] { op("Read"); }),
            "--op: 'Read' is not one of read|write");
}

TEST(Spec, ItemsSplitOnOneSeparatorAndSkipEmptyOnes) {
  using V = std::vector<std::string_view>;
  EXPECT_EQ(sim::split_items("", ';'), V{});
  EXPECT_EQ(sim::split_items(";;", ';'), V{});
  EXPECT_EQ(sim::split_items("a", ';'), V{"a"});
  EXPECT_EQ(sim::split_items(";a;;b;", ';'), (V{"a", "b"}));
  EXPECT_EQ(sim::split_items("a=1,b=2;c", ','), (V{"a=1", "b=2;c"}));
}

TEST(Spec, ClausesCiteThemselves) {
  const std::vector<sim::Clause> cs =
      sim::parse_clauses(",rate=100,,zipf=0.9,", ',', "--open-loop");
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0].key, "rate");
  EXPECT_EQ(cs[0].value, "100");
  EXPECT_EQ(cs[0].where, "--open-loop clause 'rate=100'");
  EXPECT_EQ(cs[1].number<double>(), 0.9);
  // A value may itself hold '='; only the first one splits.
  EXPECT_EQ(sim::parse_clauses("out=a=b", ',', "--watch")[0].value, "a=b");

  EXPECT_EQ(error_of([] { sim::parse_clauses("oops", ',', "--watch"); }),
            "--watch clause 'oops' is not key=value");
  EXPECT_EQ(error_of([] { sim::parse_clauses("=5", ',', "--watch"); }),
            "--watch clause '=5' is not key=value");
  EXPECT_EQ(error_of([] { sim::parse_clauses("zipf=", ',', "--open-loop"); }),
            "--open-loop clause 'zipf=': empty value");
  EXPECT_EQ(error_of([&] { cs[0].unknown_key(); }),
            "--open-loop has no key 'rate'");
  EXPECT_EQ(error_of([] {
              sim::parse_clauses("samples=-5", ',', "--watch")[0]
                  .number<std::size_t>(2);
            }),
            "--watch clause 'samples=-5': '-5' has a sign, but the value is "
            "unsigned");
  EXPECT_EQ(error_of([] {
              sim::parse_clauses("interval=50", ',', "--watch")[0].duration(1);
            }),
            "--watch clause 'interval=50': '50' needs a unit (ns|us|ms|s)");
}

}  // namespace
