#include "common/check.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace saffire {
namespace {

TEST(CheckTest, PassingCheckIsSilent) {
  EXPECT_NO_THROW(SAFFIRE_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(SAFFIRE_CHECK_MSG(true, "never shown"));
  EXPECT_NO_THROW(SAFFIRE_ASSERT(true));
}

TEST(CheckTest, FailingCheckThrowsInvalidArgument) {
  EXPECT_THROW(SAFFIRE_CHECK(1 == 2), std::invalid_argument);
}

TEST(CheckTest, FailingAssertThrowsInternalError) {
  EXPECT_THROW(SAFFIRE_ASSERT(false), InternalError);
  // InternalError is a logic_error, not an invalid_argument.
  EXPECT_THROW(SAFFIRE_ASSERT_MSG(false, "boom"), std::logic_error);
}

TEST(CheckTest, MessageCarriesExpressionLocationAndStream) {
  try {
    const int rows = -3;
    SAFFIRE_CHECK_MSG(rows > 0, "rows=" << rows);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("rows > 0"), std::string::npos);
    EXPECT_NE(what.find("check_test.cc"), std::string::npos);
    EXPECT_NE(what.find("rows=-3"), std::string::npos);
  }
}

// The text after " at " in a failure message, up to the next space.
std::string FailureLocation(const std::string& what) {
  const std::size_t at = what.find(" at ");
  if (at == std::string::npos) return "";
  const std::size_t begin = at + 4;
  return what.substr(begin, what.find(' ', begin) - begin);
}

// Quarantine seals failure messages into checkpoint lines, so they name
// the source file the way log lines do, without the directories of the
// tree it was built from.
TEST(CheckTest, LocationIsTheFileNameAndLine) {
  int line = 0;
  try {
    line = __LINE__ + 1;
    SAFFIRE_CHECK_MSG(1 == 2, "rows=" << -3);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(FailureLocation(error.what()),
              "check_test.cc:" + std::to_string(line))
        << error.what();
  }
  try {
    line = __LINE__ + 1;
    SAFFIRE_ASSERT(2 < 1);
    FAIL() << "expected throw";
  } catch (const InternalError& error) {
    EXPECT_EQ(FailureLocation(error.what()),
              "check_test.cc:" + std::to_string(line))
        << error.what();
  }
}

TEST(CheckTest, AssertMessageMarksInternalInvariant) {
  try {
    SAFFIRE_ASSERT_MSG(2 < 1, "value=" << 42);
    FAIL() << "expected throw";
  } catch (const InternalError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("internal invariant"), std::string::npos);
    EXPECT_NE(what.find("value=42"), std::string::npos);
  }
}

TEST(CheckTest, ExpressionEvaluatedExactlyOnce) {
  int evaluations = 0;
  const auto probe = [&evaluations]() {
    ++evaluations;
    return true;
  };
  SAFFIRE_CHECK(probe());
  EXPECT_EQ(evaluations, 1);
}

}  // namespace
}  // namespace saffire
