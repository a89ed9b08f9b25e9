// Checked numeric option parsing shared by aectool, aecc and aecd: the
// malformed and out-of-range inputs that used to slip through as wrapped,
// truncated or silently clipped values must all be rejected.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/check.h"
#include "common/parse_number.h"

namespace aec {
namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

TEST(ParseUintOption, AcceptsPlainDecimalsInRange) {
  EXPECT_EQ(parse_uint_option("--block-size", "4096", 1, 1u << 30), 4096u);
  EXPECT_EQ(parse_uint_option("--seed", "0", 0, kU64Max), 0u);
  EXPECT_EQ(parse_uint_option("--port", "65535", 1, 65535), 65535u);
  EXPECT_EQ(parse_uint_option("--seed", "18446744073709551615", 0, kU64Max),
            kU64Max);
}

TEST(ParseUintOption, RejectsNegativeInsteadOfWrapping) {
  EXPECT_THROW(parse_uint_option("--block-size", "-1", 1, 1u << 30),
               CheckError);
  EXPECT_THROW(parse_uint_option("--seed", "-5", 0, kU64Max), CheckError);
}

TEST(ParseUintOption, RejectsTrailingCharacters) {
  EXPECT_THROW(parse_uint_option("--block-size", "12abc", 1, 1u << 30),
               CheckError);
  EXPECT_THROW(parse_uint_option("--threads", "4 ", 1, 1024), CheckError);
  EXPECT_THROW(parse_uint_option("--threads", "0x10", 1, 1024), CheckError);
}

TEST(ParseUintOption, RejectsEmptyAndNonNumeric) {
  EXPECT_THROW(parse_uint_option("--seed", "", 0, kU64Max), CheckError);
  EXPECT_THROW(parse_uint_option("--seed", " 7", 0, kU64Max), CheckError);
  EXPECT_THROW(parse_uint_option("--seed", "+7", 0, kU64Max), CheckError);
  EXPECT_THROW(parse_uint_option("--node", "two", 0, 9), CheckError);
}

TEST(ParseUintOption, RejectsOverflowPast64Bits) {
  EXPECT_THROW(parse_uint_option("--seed", "18446744073709551616", 0, kU64Max),
               CheckError);
  EXPECT_THROW(
      parse_uint_option("--request-id", "99999999999999999999999", 0, kU64Max),
      CheckError);
}

TEST(ParseUintOption, RejectsOutOfRangeValues) {
  EXPECT_THROW(parse_uint_option("--port", "99999", 1, 65535), CheckError);
  EXPECT_THROW(parse_uint_option("--threads", "0", 1, 1024), CheckError);
  EXPECT_THROW(parse_uint_option("--threads", "1025", 1, 1024), CheckError);
}

TEST(ParseUintOption, ErrorNamesTheOptionBoundsAndText) {
  try {
    parse_uint_option("--port", "99999", 1, 65535);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_EQ(std::string(e.what()),
              "--port wants an integer in [1, 65535], got '99999'");
  }
}

TEST(ParseDoubleOption, AcceptsDecimalsInRange) {
  EXPECT_DOUBLE_EQ(parse_double_option("--fraction", "0.15", 0, 1), 0.15);
  EXPECT_DOUBLE_EQ(parse_double_option("--fraction", "1", 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(parse_double_option("--fraction", "0", 0, 1), 0.0);
}

TEST(ParseDoubleOption, RejectsTrailingJunkOutOfRangeAndNan) {
  EXPECT_THROW(parse_double_option("--fraction", "0.1x", 0, 1), CheckError);
  EXPECT_THROW(parse_double_option("--fraction", "", 0, 1), CheckError);
  EXPECT_THROW(parse_double_option("--fraction", "1.5", 0, 1), CheckError);
  EXPECT_THROW(parse_double_option("--fraction", "-0.1", 0, 1), CheckError);
  EXPECT_THROW(parse_double_option("--fraction", "nan", 0, 1), CheckError);
  EXPECT_THROW(parse_double_option("--fraction", "inf", 0, 1), CheckError);
}

}  // namespace
}  // namespace aec
