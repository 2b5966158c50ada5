// Checked numeric parsing for user-facing input surfaces (CLI flags).
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
#include <string_view>

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

}  // namespace terrors::robust
