// Deterministic, seeded fault injection (DESIGN §5f).
//
// A FaultPlan is a whitespace/comma-separated list of entries
//
//   SITE[:nth=N][:prob=P][:seed=S][:scc=K|:key=K][:count=C]
//
// e.g. `cache.read:nth=3`, `io.write:prob=0.01:seed=7`,
// `solver.pivot:scc=0`, or `pool.task:key=5`.  The plan comes from the
// CLI's `--inject-faults` flag or the TERRORS_FAULTS environment
// variable and is armed process-wide on the FaultInjector singleton;
// tests arm plans programmatically.
//
// Sites are *registered by name* at the library's failure boundaries
// (see fault_sites()); arming a plan that names an unknown site is a
// typed kInput error, so chaos configurations cannot silently rot.
//
// Determinism contract: a given plan fires at the same logical
// occurrences at any thread count.
//  * Serial sites (cache.read, cache.write, io.write, report.read) count
//    occurrences with an atomic per-entry counter; they are only reached
//    from the (deterministically ordered) main thread, so `nth=N` means
//    the Nth occurrence, 1-based.
//  * Keyed sites (solver.pivot keyed by SCC id, pool.task keyed by loop
//    index) derive the occurrence from the caller-supplied key instead
//    of arrival order, so worker scheduling cannot reorder decisions:
//    `key=K` / `scc=K` fires exactly at key K, and `nth=N` fires at
//    key N-1 (the ordinal of key K is K+1).
//  * `prob=P` hashes (seed, site, occurrence) through splitmix64 —
//    reproducible coin flips, independent across occurrences; P>=1
//    fires every time.
//  * `count=C` caps the total number of fires of one entry (default
//    unlimited); the cap is applied per-entry with an atomic budget.
//
// A firing site throws robust::Error with the site's registered
// category and the message `injected fault at SITE`.  With no plan
// armed, maybe_fault() is one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "robust/error.hpp"

namespace terrors::robust {

struct FaultSite {
  const char* name;
  Category category;  ///< category of the injected Error
  bool keyed;         ///< occurrences derive from a caller key
  const char* description;
};

/// The registry of injectable sites, in documentation order.
[[nodiscard]] const std::vector<FaultSite>& fault_sites();
/// Lookup by name; nullptr when unknown.
[[nodiscard]] const FaultSite* find_fault_site(std::string_view name);

struct FaultSpec {
  std::string site;
  /// Fire on this 1-based occurrence (0 = not set).
  std::uint64_t nth = 0;
  /// Fire with this per-occurrence probability (< 0 = not set).
  double prob = -1.0;
  std::uint64_t seed = 0;
  /// Fire exactly at this key (keyed sites; scc= is an alias).
  std::optional<std::uint64_t> key;
  /// Maximum number of fires for this entry.
  std::uint64_t max_fires = UINT64_MAX;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parse the SPEC grammar above.  Unknown sites, unknown options, and
  /// malformed numbers raise kInput errors naming the offending entry.
  [[nodiscard]] static FaultPlan parse(std::string_view spec);

  [[nodiscard]] bool empty() const { return specs_.empty(); }
  [[nodiscard]] const std::vector<FaultSpec>& specs() const { return specs_; }

 private:
  std::vector<FaultSpec> specs_;
};

class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Install (replace) the process-wide plan; resets occurrence counters.
  void arm(FaultPlan plan);
  /// Remove the plan entirely (tests; also `arm({})`).
  void disarm() { arm(FaultPlan{}); }

  [[nodiscard]] bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Decide whether a fault fires at this site occurrence.  `key` must be
  /// supplied at keyed sites and omitted at serial sites.
  [[nodiscard]] bool should_fire(std::string_view site,
                                 std::optional<std::uint64_t> key = std::nullopt);

  /// Total fires since the plan was armed.
  [[nodiscard]] std::uint64_t fires() const { return fires_.load(std::memory_order_relaxed); }

 private:
  FaultInjector() = default;

  struct ArmedSpec {
    FaultSpec spec;
    std::atomic<std::uint64_t> occurrences{0};
    std::atomic<std::uint64_t> fired{0};
  };

  using SpecList = std::vector<std::unique_ptr<ArmedSpec>>;
  [[nodiscard]] std::shared_ptr<SpecList> snapshot() const;

  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> fires_{0};
  // Replaced wholesale by arm(); the mutex only guards the pointer swap,
  // so concurrent should_fire() calls racing an arm() keep a consistent
  // snapshot while counters stay lock-free.
  mutable std::mutex mutex_;
  std::shared_ptr<SpecList> specs_;
};

/// The injection point: throws the site's typed Error when the armed
/// plan says this occurrence fails.  Near-zero cost when no plan is
/// armed (one relaxed atomic load).
inline void maybe_fault(const char* site) {
  FaultInjector& fi = FaultInjector::instance();
  if (!fi.armed()) return;
  if (fi.should_fire(site))
    raise(find_fault_site(site)->category, std::string("injected fault at ") + site);
}

inline void maybe_fault(const char* site, std::uint64_t key) {
  FaultInjector& fi = FaultInjector::instance();
  if (!fi.armed()) return;
  if (fi.should_fire(site, key))
    raise(find_fault_site(site)->category,
          std::string("injected fault at ") + site + " (key " + std::to_string(key) + ")");
}

}  // namespace terrors::robust
