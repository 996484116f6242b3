#include "util/logging.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <iostream>
#include <thread>

namespace ruru {

std::string_view to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

std::optional<LogLevel> parse_log_level(std::string_view text) {
  std::string lower;
  lower.reserve(text.size());
  for (const char c : text) {
    lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c);
  }
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off" || lower == "none") return LogLevel::kOff;
  return std::nullopt;
}

namespace {

/// "[2017-08-21T14:03:07.123Z]" — UTC wall clock, millisecond precision.
void append_iso8601_now(std::string& out) {
  const auto since_epoch = std::chrono::system_clock::now().time_since_epoch();
  const auto whole = std::chrono::floor<std::chrono::seconds>(since_epoch);
  // Milliseconds into the second: in [0, 999] on either side of the epoch.
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(since_epoch - whole);
  const std::time_t secs = whole.count();
  std::tm tm_utc{};
  gmtime_r(&secs, &tm_utc);
  char buf[40];
  const std::size_t n = std::strftime(buf, sizeof buf, "[%Y-%m-%dT%H:%M:%S", &tm_utc);
  std::snprintf(buf + n, sizeof buf - n, ".%03dZ]", static_cast<int>(ms.count()));
  out += buf;
}

std::uint64_t thread_tag() {
  // Stable per-thread tag; hashed because std::thread::id is opaque.
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 1'000'000;
}

}  // namespace

Logger::Logger() : sink_(&std::cerr) {
  if (const char* env = std::getenv("RURU_LOG_LEVEL")) {
    if (const auto level = parse_log_level(env)) level_ = *level;
  }
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_sink(std::ostream* sink) {
  std::lock_guard lock(mu_);
  sink_ = sink != nullptr ? sink : &std::cerr;
}

void Logger::write(LogLevel level, std::string_view module, std::string_view message) {
  if (!enabled(level)) return;
  std::string line;
  line.reserve(64 + module.size() + message.size());
  if (timestamps_) {
    append_iso8601_now(line);
    line += " ";
  }
  line += '[';
  line += to_string(level);
  line += "] ";
  if (timestamps_) {
    line += "[tid ";
    line += std::to_string(thread_tag());
    line += "] ";
  }
  line += '[';
  line += module;
  line += "] ";
  line += message;
  line += '\n';
  std::lock_guard lock(mu_);
  (*sink_) << line;
}

}  // namespace ruru
