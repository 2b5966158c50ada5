// A tiny JSON document model and recursive-descent parser.
//
// The obs layer deliberately only *writes* JSON; the report subsystem is
// the first consumer that must read it back (`terrors report` renders a
// run-report file, `terrors diff` compares two).  This parser covers the
// JSON our own exporters emit — RFC 8259 syntax, \uXXXX escapes decoded
// as Latin-1/ASCII (our writers never emit multi-byte escapes), numbers
// via strtod — and throws std::runtime_error with a byte offset on
// malformed input.  Object member order is preserved so a parse →
// serialise round trip is byte-stable.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace terrors::report {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parse a complete document; trailing non-whitespace is an error.
  static JsonValue parse(std::string_view text);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }

  /// Typed accessors; throw std::runtime_error on kind mismatch.
  [[nodiscard]] double as_number() const;
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object member lookup: at() throws on a missing key, find() returns
  /// nullptr.  get_number/get_uint return the member or a fallback when
  /// the key is absent (for schema-tolerant reads).
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  [[nodiscard]] double get_number(std::string_view key, double fallback = 0.0) const;
  [[nodiscard]] std::uint64_t get_uint(std::string_view key, std::uint64_t fallback = 0) const;

  JsonValue() = default;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace terrors::report
