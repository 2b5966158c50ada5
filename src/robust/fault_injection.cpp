#include "robust/fault_injection.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "obs/metrics.hpp"
#include "robust/hooks.hpp"
#include "support/hash.hpp"

namespace terrors::robust {

const std::vector<FaultSite>& fault_sites() {
  static const std::vector<FaultSite> sites = {
      {"cache.read", Category::kArtifact, false, "artifact cache load (warm-start read)"},
      {"cache.write", Category::kResource, false, "artifact cache store (publish)"},
      {"io.write", Category::kResource, false, "run-report / metrics file write"},
      {"report.read", Category::kInput, false, "run-report file read + parse"},
      {"solver.pivot", Category::kNumerical, true, "SCC linear-solve pivot (key = SCC id)"},
      {"pool.task", Category::kInternal, true, "thread-pool task entry (key = loop index)"},
  };
  return sites;
}

const FaultSite* find_fault_site(std::string_view name) {
  for (const auto& s : fault_sites()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t i = 0;
  const auto is_sep = [](char c) { return c == ' ' || c == '\t' || c == '\n' || c == ','; };
  while (i < spec.size()) {
    while (i < spec.size() && is_sep(spec[i])) ++i;
    std::size_t j = i;
    while (j < spec.size() && !is_sep(spec[j])) ++j;
    if (j == i) break;
    const std::string_view entry = spec.substr(i, j - i);
    i = j;

    FaultSpec fs;
    std::size_t p = 0;
    std::size_t colon = entry.find(':');
    fs.site = std::string(entry.substr(0, colon));
    if (find_fault_site(fs.site) == nullptr)
      raise(Category::kInput, "fault plan: unknown site '" + fs.site + "' in '" +
                                  std::string(entry) + "'");
    p = colon == std::string_view::npos ? entry.size() : colon + 1;
    bool any_trigger = false;
    while (p < entry.size()) {
      colon = entry.find(':', p);
      const std::string_view opt =
          entry.substr(p, colon == std::string_view::npos ? entry.size() - p : colon - p);
      p = colon == std::string_view::npos ? entry.size() : colon + 1;
      const std::size_t eq = opt.find('=');
      if (eq == std::string_view::npos)
        raise(Category::kInput,
              "fault plan: option '" + std::string(opt) + "' needs a value in '" +
                  std::string(entry) + "'");
      const std::string_view k = opt.substr(0, eq);
      const std::string value(opt.substr(eq + 1));
      char* end = nullptr;
      const auto fail_value = [&]() {
        raise(Category::kInput, "fault plan: bad value for '" + std::string(k) + "' in '" +
                                    std::string(entry) + "'");
      };
      if (k == "nth") {
        fs.nth = std::strtoull(value.c_str(), &end, 10);
        if (end != value.c_str() + value.size() || value.empty() || fs.nth == 0) fail_value();
        any_trigger = true;
      } else if (k == "prob") {
        fs.prob = std::strtod(value.c_str(), &end);
        if (end != value.c_str() + value.size() || value.empty() || fs.prob < 0.0) fail_value();
        any_trigger = true;
      } else if (k == "seed") {
        fs.seed = std::strtoull(value.c_str(), &end, 10);
        if (end != value.c_str() + value.size() || value.empty()) fail_value();
      } else if (k == "key" || k == "scc") {
        fs.key = std::strtoull(value.c_str(), &end, 10);
        if (end != value.c_str() + value.size() || value.empty()) fail_value();
        any_trigger = true;
      } else if (k == "count") {
        fs.max_fires = std::strtoull(value.c_str(), &end, 10);
        if (end != value.c_str() + value.size() || value.empty()) fail_value();
      } else {
        raise(Category::kInput, "fault plan: unknown option '" + std::string(k) + "' in '" +
                                    std::string(entry) + "'");
      }
    }
    if (!any_trigger)
      raise(Category::kInput,
            "fault plan: '" + std::string(entry) + "' needs nth=, prob=, key=, or scc=");
    if (fs.key.has_value() && !find_fault_site(fs.site)->keyed)
      raise(Category::kInput,
            "fault plan: site '" + fs.site + "' is not keyed (key=/scc= not applicable)");
    plan.specs_.push_back(std::move(fs));
  }
  return plan;
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector fi;
  return fi;
}

std::shared_ptr<FaultInjector::SpecList> FaultInjector::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return specs_;
}

void FaultInjector::arm(FaultPlan plan) {
  auto specs = std::make_shared<SpecList>();
  for (const auto& s : plan.specs()) {
    auto armed = std::make_unique<ArmedSpec>();
    armed->spec = s;
    specs->push_back(std::move(armed));
  }
  const bool have = !specs->empty();
  // The pool.task site lives behind a runtime hook; make sure it is wired
  // before any plan can name it.
  if (have) install_pool_hooks();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    specs_ = std::move(specs);
  }
  fires_.store(0, std::memory_order_relaxed);
  armed_.store(have, std::memory_order_release);
}

bool FaultInjector::should_fire(std::string_view site, std::optional<std::uint64_t> key) {
  const auto specs = snapshot();
  if (!specs) return false;
  bool fire = false;
  for (const auto& armed : *specs) {
    const FaultSpec& s = armed->spec;
    if (site != s.site) continue;
    // The occurrence ordinal: arrival order at serial sites, key order at
    // keyed sites (thread-count independent).
    const std::uint64_t occurrence =
        key.has_value() ? *key + 1
                        : armed->occurrences.fetch_add(1, std::memory_order_relaxed) + 1;
    bool hit = false;
    if (s.key.has_value()) {
      hit = key.has_value() && *key == *s.key;
    } else if (s.nth != 0) {
      hit = occurrence == s.nth;
    } else if (s.prob >= 0.0) {
      if (s.prob >= 1.0) {
        hit = true;
      } else {
        std::uint64_t x = support::fnv1a(site.data(), site.size()) ^ occurrence;
        x = s.seed ^ support::splitmix64(x);
        const std::uint64_t h = support::splitmix64(x);
        hit = static_cast<double>(h) < s.prob * 18446744073709551616.0;  // 2^64
      }
    }
    if (!hit) continue;
    // Per-entry fire budget (count=C).
    if (armed->fired.fetch_add(1, std::memory_order_relaxed) >= s.max_fires) continue;
    fire = true;
  }
  if (fire) {
    fires_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& injected =
        obs::MetricsRegistry::instance().counter("robust.faults_injected");
    injected.increment();
  }
  return fire;
}

}  // namespace terrors::robust
