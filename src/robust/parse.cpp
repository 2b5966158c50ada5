#include "robust/parse.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <system_error>

#include "robust/error.hpp"

namespace terrors::robust {

namespace {

[[noreturn]] void reject(std::string_view what, std::string_view value, std::string_view why) {
  raise(Category::kInput,
        std::string(what) + ": " + std::string(why) + " '" + std::string(value) + "'");
}

}  // namespace

double parse_double_arg(std::string_view what, std::string_view value) {
  if (value.empty()) reject(what, value, "expected a number, got");
  double out = 0.0;
  const char* first = value.data();
  const char* last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec == std::errc::result_out_of_range) reject(what, value, "number out of range:");
  if (ec != std::errc() || ptr != last) reject(what, value, "expected a number, got");
  if (!std::isfinite(out)) reject(what, value, "expected a finite number, got");
  return out;
}

std::uint64_t parse_uint_arg(std::string_view what, std::string_view value) {
  if (value.empty()) reject(what, value, "expected a non-negative integer, got");
  if (value.front() == '-') reject(what, value, "expected a non-negative integer, got");
  std::uint64_t out = 0;
  const char* first = value.data();
  const char* last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec == std::errc::result_out_of_range) reject(what, value, "integer out of range:");
  if (ec != std::errc() || ptr != last) reject(what, value, "expected a non-negative integer, got");
  return out;
}

bool parse_flags(int argc, char** argv, int start, const std::vector<FlagSpec>& specs,
                 std::map<std::string, std::string>& out) {
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return false;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const FlagSpec* spec = nullptr;
    for (const auto& s : specs) {
      if (name == s.name) spec = &s;
    }
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown flag '%s'\n", name.c_str());
      return false;
    }
    if (!spec->takes_value) {
      if (eq != std::string::npos) {
        std::fprintf(stderr, "flag '%s' takes no value\n", name.c_str());
        return false;
      }
      out[name] = "";
      continue;
    }
    if (eq != std::string::npos) {
      out[name] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      out[name] = argv[++i];
    } else {
      std::fprintf(stderr, "flag '%s' needs a value\n", name.c_str());
      return false;
    }
  }
  return true;
}

double num_flag(const std::map<std::string, std::string>& flags, const char* name,
                double fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : parse_double_arg(name, it->second);
}

std::uint64_t uint_flag(const std::map<std::string, std::string>& flags, const char* name,
                        std::uint64_t fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : parse_uint_arg(name, it->second);
}

}  // namespace terrors::robust
