// Leveled, structured key=value logging for the estimation pipeline.
//
// Library code logs through the process-wide Logger; output is OFF by
// default so stdout/stderr of the CLI, benches, and tests stay exactly as
// before.  Enable with the TERRORS_LOG_LEVEL environment variable
// (error|warn|info|debug|trace) or programmatically (the CLI's
// --log-level flag).  Records go to stderr (configurable sink) as one
// line of `key=value` pairs:
//
//   level=info comp=core msg="training phase done" seconds=1.82 blocks=14
//
// The format is grep- and logfmt-friendly; values containing spaces or
// quotes are quoted with minimal escaping.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace terrors::obs {

enum class LogLevel : int {
  kOff = 0,
  kError = 1,
  kWarn = 2,
  kInfo = 3,
  kDebug = 4,
  kTrace = 5,
};

/// Parse a level name ("off", "error", "warn", "info", "debug", "trace");
/// nullopt on anything else.
std::optional<LogLevel> parse_log_level(std::string_view name);
std::string_view log_level_name(LogLevel level);

/// One structured field.  Implicit constructors let call sites write
/// `{"seconds", 1.82}` or `{"name", bench.name}` directly.
struct LogField {
  std::string key;
  std::string value;
  bool quote = false;  ///< string values are quoted, numbers are not

  LogField(std::string_view k, std::string_view v) : key(k), value(v), quote(true) {}
  LogField(std::string_view k, const char* v) : key(k), value(v), quote(true) {}
  LogField(std::string_view k, const std::string& v) : key(k), value(v), quote(true) {}
  LogField(std::string_view k, double v);
  LogField(std::string_view k, std::uint64_t v);
  LogField(std::string_view k, std::int64_t v);
  LogField(std::string_view k, int v) : LogField(k, static_cast<std::int64_t>(v)) {}
  LogField(std::string_view k, bool v) : key(k), value(v ? "true" : "false") {}
};

class Logger {
 public:
  /// Process-wide logger; level is initialised once from TERRORS_LOG_LEVEL.
  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  [[nodiscard]] LogLevel level() const { return level_; }
  [[nodiscard]] bool enabled(LogLevel level) const {
    return static_cast<int>(level) <= static_cast<int>(level_) && level != LogLevel::kOff;
  }

  /// Redirect output (tests); nullptr restores the default (stderr).
  void set_sink(std::ostream* sink) { sink_ = sink; }

  void log(LogLevel level, std::string_view component, std::string_view message,
           std::initializer_list<LogField> fields = {});
  /// Overload for call sites that compose their field list at runtime
  /// (e.g. an optional run= tag).
  void log(LogLevel level, std::string_view component, std::string_view message,
           const std::vector<LogField>& fields);

 private:
  void log_impl(LogLevel level, std::string_view component, std::string_view message,
                const LogField* begin, const LogField* end);
  Logger();
  LogLevel level_ = LogLevel::kOff;
  std::ostream* sink_ = nullptr;  ///< nullptr = stderr
  std::mutex mutex_;              ///< records from pool workers stay whole lines
};

/// Convenience wrappers: log_info("core", "phase done", {{"seconds", s}}).
void log_error(std::string_view comp, std::string_view msg,
               std::initializer_list<LogField> fields = {});
void log_warn(std::string_view comp, std::string_view msg,
              std::initializer_list<LogField> fields = {});
void log_warn(std::string_view comp, std::string_view msg,
              const std::vector<LogField>& fields);
void log_info(std::string_view comp, std::string_view msg,
              std::initializer_list<LogField> fields = {});
void log_debug(std::string_view comp, std::string_view msg,
               std::initializer_list<LogField> fields = {});

/// log_warn that fires only the first time `once_key` is seen in this
/// process: repeated failures (e.g. every store against a read-only cache
/// dir, or a prob=1 chaos plan) produce one line instead of thousands.
/// Returns true when the line was emitted.
bool log_warn_once(std::string_view once_key, std::string_view comp, std::string_view msg,
                   std::initializer_list<LogField> fields = {});

}  // namespace terrors::obs
