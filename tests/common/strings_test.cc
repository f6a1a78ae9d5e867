#include "common/strings.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace saffire {
namespace {

TEST(JoinTest, BasicAndEdgeCases) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"", ""}, "|"), "|");
}

TEST(SplitTest, BasicAndEdgeCases) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(SplitTest, RoundTripsWithJoin) {
  const std::vector<std::string> parts{"alpha", "beta", "", "delta"};
  EXPECT_EQ(Split(Join(parts, ";"), ';'), parts);
}

TEST(TrimTest, StripsWhitespace) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\nhi\r "), "hi");
  EXPECT_EQ(Trim("nothing"), "nothing");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(FormatDoubleTest, FixedDecimals) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.14159, 0), "3");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatDouble(2.0, 3), "2.000");
  EXPECT_THROW(FormatDouble(1.0, -1), std::invalid_argument);
}

TEST(PadTest, LeftAndRight) {
  EXPECT_EQ(PadLeft("7", 3), "  7");
  EXPECT_EQ(PadRight("7", 3), "7  ");
  EXPECT_EQ(PadLeft("long", 2), "long");
  EXPECT_EQ(PadRight("long", 2), "long");
  EXPECT_EQ(PadLeft("", 2), "  ");
}

TEST(ParseIntTest, ValidInputs) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-17"), -17);
  EXPECT_EQ(ParseInt("  8  "), 8);
  EXPECT_EQ(ParseInt("0"), 0);
}

TEST(ParseIntTest, RejectsJunk) {
  EXPECT_THROW(ParseInt("4x"), std::invalid_argument);
  EXPECT_THROW(ParseInt(""), std::invalid_argument);
  EXPECT_THROW(ParseInt("3.5"), std::invalid_argument);
  EXPECT_THROW(ParseInt("abc"), std::invalid_argument);
}

TEST(NarrowIntTest, RejectsValuesTheTypeCannotHold) {
  EXPECT_EQ(NarrowInt<int>(-2147483648LL), -2147483647 - 1);
  EXPECT_EQ(NarrowInt<std::int32_t>(2147483647), 2147483647);
  EXPECT_EQ(NarrowInt<std::uint64_t>(0), 0u);
  EXPECT_THROW(NarrowInt<int>(4294967296LL), std::invalid_argument);
  EXPECT_THROW(NarrowInt<int>(-2147483649LL), std::invalid_argument);
  EXPECT_THROW(NarrowInt<std::uint64_t>(-1), std::invalid_argument);
  try {
    NarrowInt<std::int32_t>(4294967304LL);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("4294967304"),
              std::string::npos)
        << error.what();
  }
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("saffire", "saf"));
  EXPECT_TRUE(StartsWith("saffire", ""));
  EXPECT_FALSE(StartsWith("saf", "saffire"));
  EXPECT_FALSE(StartsWith("saffire", "ire"));
}

}  // namespace
}  // namespace saffire
