#include "common/log.hpp"

#include <cstdio>

namespace aa {

namespace {
LogLevel g_level = LogLevel::kOff;
std::function<std::int64_t()> g_clock;
std::function<void(const std::string&)> g_sink;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel Logger::level() { return g_level; }
void Logger::set_level(LogLevel level) { g_level = level; }
void Logger::set_clock(std::function<std::int64_t()> clock) { g_clock = std::move(clock); }
void Logger::set_sink(std::function<void(const std::string&)> sink) { g_sink = std::move(sink); }

void Logger::write(LogLevel level, const std::string& component, const std::string& message) {
  if (level < g_level) return;
  std::string line;
  if (g_clock) {
    line += "[t=" + std::to_string(g_clock()) + "us] ";
  }
  line += "[";
  line += level_name(level);
  line += "] ";
  line += component;
  line += ": ";
  line += message;
  if (g_sink) {
    g_sink(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

}  // namespace aa
