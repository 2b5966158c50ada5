// Strict flag parsing and checked numeric parsing for user-facing input
// surfaces (the CLI's and the benches' flags).
//
// parse_flags() accepts exactly the flags it is given: an unknown flag,
// a stray positional, a value on a bare flag or a missing value is
// reported on stderr and fails the parse, so a typo exits 1 instead of
// being silently ignored.
//
// The standard std::sto* family is the wrong tool at a trust boundary:
// it throws untyped std::invalid_argument / std::out_of_range on garbage,
// silently accepts trailing junk ("--runs=4x" parses as 4), and stoul
// wraps negatives into huge unsigned values ("--threads=-1" becomes
// 2^64-1 workers).  These helpers parse the *entire* value with
// std::from_chars — locale-independent by construction — and turn every
// failure mode into a robust::Error of category kInput that names the
// flag and the offending value, so a bad flag exits 3 with a typed error
// instead of an untyped crash.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace terrors::robust {

/// Parse `value` as a finite double.  `what` names the input in error
/// messages (e.g. "--period" or "field 'scale'").  Throws Error(kInput)
/// on empty input, trailing garbage, non-finite results ("inf", "nan"),
/// or out-of-range magnitudes.
[[nodiscard]] double parse_double_arg(std::string_view what, std::string_view value);

/// Parse `value` as an unsigned 64-bit integer.  Rejects (with
/// Error(kInput)) everything parse_double_arg rejects plus any sign —
/// "-1" is an error naming the negative value, never a silent wrap to
/// 18446744073709551615.
[[nodiscard]] std::uint64_t parse_uint_arg(std::string_view what, std::string_view value);

struct FlagSpec {
  const char* name;  ///< including the leading "--"
  bool takes_value;
};

/// Parse argv[start..argc) against `specs` into `out` (name -> value, ""
/// for a bare flag).  Both `--flag=V` and `--flag V` are accepted.
/// Returns false after printing the reason to stderr on the first
/// argument that is not a known flag used as its spec says.
[[nodiscard]] bool parse_flags(int argc, char** argv, int start,
                               const std::vector<FlagSpec>& specs,
                               std::map<std::string, std::string>& out);

/// The value of flag `name` in `flags` through parse_double_arg /
/// parse_uint_arg, or `fallback` when the flag is absent.
[[nodiscard]] double num_flag(const std::map<std::string, std::string>& flags, const char* name,
                              double fallback);
[[nodiscard]] std::uint64_t uint_flag(const std::map<std::string, std::string>& flags,
                                      const char* name, std::uint64_t fallback);

}  // namespace terrors::robust
