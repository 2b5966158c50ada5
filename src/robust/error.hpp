// Typed error taxonomy for the terrors library (DESIGN §5f).
//
// Every failure the library can surface falls into one of five
// machine-readable categories, so callers (the CLI, the framework's
// degradation policies, tests) can dispatch on *kind* instead of
// string-matching what():
//
//   kInput      — the caller handed us something malformed (bad assembly,
//                 unparsable JSON, unknown flag value).
//   kArtifact   — a persisted artifact (cache entry, run report) is
//                 corrupt, truncated, or from an incompatible version.
//   kNumerical  — a solve failed or degenerated (singular SCC system,
//                 non-finite intermediate).
//   kResource   — the environment failed us (unwritable directory, full
//                 disk, I/O error).
//   kInternal   — an invariant of this library broke; always a bug here.
//
// Errors chain: wrap(cause) preserves the inner message so the CLI can
// print `error: [artifact] decode control tables: caused by: checksum
// mismatch` and exit with a category-specific code.  robust::Error
// derives from std::runtime_error, so legacy catch sites keep working.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace terrors::robust {

enum class Category : int {
  kInput = 0,
  kArtifact = 1,
  kNumerical = 2,
  kResource = 3,
  kInternal = 4,
};

/// Stable lowercase name ("input", "artifact", ...), used in error
/// rendering and doctor findings.
[[nodiscard]] std::string_view category_name(Category c);

/// Process exit code for a failure of this category.  0..2 are taken by
/// success / generic failure / `terrors diff` regression, so categories
/// map to 3..7 (README "Troubleshooting").
[[nodiscard]] int exit_code_for(Category c);

class Error : public std::runtime_error {
 public:
  Error(Category category, std::string message);

  [[nodiscard]] Category category() const { return category_; }
  /// The outermost message, without category tag or cause chain.
  [[nodiscard]] const std::string& message() const { return chain_.front(); }
  /// Outermost-first context chain (message, then each cause).
  [[nodiscard]] const std::vector<std::string>& chain() const { return chain_; }

  /// Wrap a caught exception with added context.  A robust::Error cause
  /// keeps its category (context never changes *kind*, only location);
  /// any other exception gets `fallback`.
  [[nodiscard]] static Error wrap(std::string context, const std::exception& cause,
                                  Category fallback = Category::kInternal);

  /// `[category] message: caused by: inner: caused by: ...` — what()
  /// returns exactly this, so untyped catch sites still print the chain.
  [[nodiscard]] std::string render() const { return what(); }

 private:
  Error(Category category, std::vector<std::string> chain);
  static std::string render_chain(Category category, const std::vector<std::string>& chain);

  Category category_;
  std::vector<std::string> chain_;
};

/// Best-effort category for an arbitrary exception: robust::Error reports
/// its own; TE_REQUIRE's std::invalid_argument maps to kInput; TE_CHECK's
/// std::logic_error and everything unknown map to kInternal;
/// std::bad_alloc maps to kResource.
[[nodiscard]] Category classify(const std::exception& e);

/// Shorthand: throw Error{category, message}.
[[noreturn]] void raise(Category category, std::string message);

}  // namespace terrors::robust
