// Precondition / invariant checking for the saffire library.
//
// All public entry points validate their arguments with SAFFIRE_CHECK and
// throw std::invalid_argument on violation; internal invariants use
// SAFFIRE_ASSERT and throw saffire::InternalError. Both carry the failing
// expression and source location so campaign drivers can report precisely
// which configuration was rejected.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace saffire {

// Thrown when an internal invariant of the library is violated. Seeing this
// exception always indicates a bug in saffire itself, never a bad input.
class InternalError : public std::logic_error {
 public:
  explicit InternalError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

// The file name of a __FILE__ path without its directories, as check
// failures and log lines print it: the text stays the same whichever
// directory the sources were built from.
constexpr const char* SourceBasename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

[[noreturn]] inline void ThrowCheckFailure(const char* expr, const char* file,
                                           int line, const std::string& msg) {
  std::ostringstream os;
  os << "check failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw std::invalid_argument(os.str());
}

[[noreturn]] inline void ThrowAssertFailure(const char* expr, const char* file,
                                            int line, const std::string& msg) {
  std::ostringstream os;
  os << "internal invariant violated: (" << expr << ") at " << file << ":"
     << line;
  if (!msg.empty()) os << " — " << msg;
  throw InternalError(os.str());
}

}  // namespace detail
}  // namespace saffire

// The macros pass __FILE__ through detail::SourceBasename in a constant
// expression, so the failure path costs no more than with the full path.

// Validates a caller-supplied argument; throws std::invalid_argument.
#define SAFFIRE_CHECK(expr)                                                  \
  do {                                                                       \
    if (!(expr)) {                                                           \
      constexpr const char* saffire_check_file_ =                            \
          ::saffire::detail::SourceBasename(__FILE__);                       \
      ::saffire::detail::ThrowCheckFailure(#expr, saffire_check_file_,       \
                                           __LINE__, "");                    \
    }                                                                        \
  } while (false)

// Same as SAFFIRE_CHECK but with a streamed message, e.g.
//   SAFFIRE_CHECK_MSG(rows > 0, "rows=" << rows);
#define SAFFIRE_CHECK_MSG(expr, stream_expr)                                 \
  do {                                                                       \
    if (!(expr)) {                                                           \
      constexpr const char* saffire_check_file_ =                            \
          ::saffire::detail::SourceBasename(__FILE__);                       \
      std::ostringstream saffire_check_os_;                                  \
      saffire_check_os_ << stream_expr;                                      \
      ::saffire::detail::ThrowCheckFailure(#expr, saffire_check_file_,       \
                                           __LINE__,                         \
                                           saffire_check_os_.str());         \
    }                                                                        \
  } while (false)

// Internal invariant; throws saffire::InternalError.
#define SAFFIRE_ASSERT(expr)                                                 \
  do {                                                                       \
    if (!(expr)) {                                                           \
      constexpr const char* saffire_assert_file_ =                           \
          ::saffire::detail::SourceBasename(__FILE__);                       \
      ::saffire::detail::ThrowAssertFailure(#expr, saffire_assert_file_,     \
                                            __LINE__, "");                   \
    }                                                                        \
  } while (false)

#define SAFFIRE_ASSERT_MSG(expr, stream_expr)                                \
  do {                                                                       \
    if (!(expr)) {                                                           \
      constexpr const char* saffire_assert_file_ =                           \
          ::saffire::detail::SourceBasename(__FILE__);                       \
      std::ostringstream saffire_assert_os_;                                 \
      saffire_assert_os_ << stream_expr;                                     \
      ::saffire::detail::ThrowAssertFailure(#expr, saffire_assert_file_,     \
                                            __LINE__,                        \
                                            saffire_assert_os_.str());       \
    }                                                                        \
  } while (false)
