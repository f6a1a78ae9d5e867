#include "common/log.h"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>

#include "common/check.h"

namespace saffire {
namespace {

LogLevel LevelFromEnv() {
  const char* env = std::getenv("SAFFIRE_LOG_LEVEL");
  if (env == nullptr) return LogLevel::kWarn;
  const std::string value(env);
  if (value == "trace") return LogLevel::kTrace;
  if (value == "debug") return LogLevel::kDebug;
  if (value == "info") return LogLevel::kInfo;
  if (value == "warn") return LogLevel::kWarn;
  if (value == "error") return LogLevel::kError;
  return LogLevel::kWarn;
}

std::atomic<int>& LevelStore() {
  static std::atomic<int> level{static_cast<int>(LevelFromEnv())};
  return level;
}

std::mutex& SinkMutex() {
  static std::mutex mutex;
  return mutex;
}

}  // namespace

std::string ToString(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "UNKNOWN";
}

void SetLogLevel(LogLevel level) {
  LevelStore().store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(LevelStore().load(std::memory_order_relaxed));
}

bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(GetLogLevel());
}

namespace detail {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << ToString(level_) << " " << SourceBasename(file) << ":"
          << line << "] ";
}

LogMessage::~LogMessage() {
  const std::lock_guard<std::mutex> lock(SinkMutex());
  std::cerr << stream_.str() << '\n';
}

}  // namespace detail
}  // namespace saffire
