#include "obs/log.hpp"

#include <set>

#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace terrors::obs {

namespace {

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

bool needs_quoting(std::string_view s) {
  if (s.empty()) return true;
  for (const char c : s) {
    if (c == ' ' || c == '"' || c == '=' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
      return true;
  }
  return false;
}

void write_value(std::ostream& os, std::string_view s, bool quote) {
  if (!quote || !needs_quoting(s)) {
    // Quoted-but-simple values print bare for readability.
    os << s;
    return;
  }
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    if (c == '\n') {
      os << "\\n";
      continue;
    }
    os << c;
  }
  os << '"';
}

}  // namespace

std::optional<LogLevel> parse_log_level(std::string_view name) {
  if (name == "off" || name == "none") return LogLevel::kOff;
  if (name == "error") return LogLevel::kError;
  if (name == "warn" || name == "warning") return LogLevel::kWarn;
  if (name == "info") return LogLevel::kInfo;
  if (name == "debug") return LogLevel::kDebug;
  if (name == "trace") return LogLevel::kTrace;
  return std::nullopt;
}

std::string_view log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kOff:
      return "off";
    case LogLevel::kError:
      return "error";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kTrace:
      return "trace";
  }
  return "?";
}

LogField::LogField(std::string_view k, double v) : key(k), value(format_double(v)) {}
LogField::LogField(std::string_view k, std::uint64_t v) : key(k), value(std::to_string(v)) {}
LogField::LogField(std::string_view k, std::int64_t v) : key(k), value(std::to_string(v)) {}

Logger::Logger() {
  if (const char* env = std::getenv("TERRORS_LOG_LEVEL")) {
    if (const auto lvl = parse_log_level(env)) level_ = *lvl;
  }
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::log(LogLevel level, std::string_view component, std::string_view message,
                 std::initializer_list<LogField> fields) {
  log_impl(level, component, message, fields.begin(), fields.end());
}

void Logger::log(LogLevel level, std::string_view component, std::string_view message,
                 const std::vector<LogField>& fields) {
  log_impl(level, component, message, fields.data(), fields.data() + fields.size());
}

void Logger::log_impl(LogLevel level, std::string_view component, std::string_view message,
                      const LogField* begin, const LogField* end) {
  if (!enabled(level)) return;
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostream& os = sink_ != nullptr ? *sink_ : std::cerr;
  os << "level=" << log_level_name(level) << " comp=";
  write_value(os, component, true);
  os << " msg=";
  write_value(os, message, true);
  for (const LogField* f = begin; f != end; ++f) {
    os << ' ' << f->key << '=';
    write_value(os, f->value, f->quote);
  }
  os << '\n';
}

void log_error(std::string_view comp, std::string_view msg,
               std::initializer_list<LogField> fields) {
  Logger::instance().log(LogLevel::kError, comp, msg, fields);
}
void log_warn(std::string_view comp, std::string_view msg,
              std::initializer_list<LogField> fields) {
  Logger::instance().log(LogLevel::kWarn, comp, msg, fields);
}
void log_warn(std::string_view comp, std::string_view msg,
              const std::vector<LogField>& fields) {
  Logger::instance().log(LogLevel::kWarn, comp, msg, fields);
}
void log_info(std::string_view comp, std::string_view msg,
              std::initializer_list<LogField> fields) {
  Logger::instance().log(LogLevel::kInfo, comp, msg, fields);
}
void log_debug(std::string_view comp, std::string_view msg,
               std::initializer_list<LogField> fields) {
  Logger::instance().log(LogLevel::kDebug, comp, msg, fields);
}

bool log_warn_once(std::string_view once_key, std::string_view comp, std::string_view msg,
                   std::initializer_list<LogField> fields) {
  static std::mutex mutex;
  static std::set<std::string, std::less<>> seen;
  {
    std::lock_guard<std::mutex> lock(mutex);
    if (!seen.emplace(once_key).second) return false;
  }
  Logger::instance().log(LogLevel::kWarn, comp, msg, fields);
  return true;
}

}  // namespace terrors::obs
