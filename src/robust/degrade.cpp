#include "robust/degrade.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace terrors::robust {

void note_degraded(std::vector<Degradation>& entries, std::string_view site,
                   std::string_view detail, std::uint64_t events) {
  static obs::Counter& total = obs::MetricsRegistry::instance().counter("robust.degraded");
  total.increment(events);
  obs::MetricsRegistry::instance()
      .counter("robust.degraded." + std::string(site))
      .increment(events);

  const auto it = std::lower_bound(
      entries.begin(), entries.end(), site,
      [](const Degradation& e, std::string_view s) { return e.site < s; });
  if (it == entries.end() || it->site != site)
    entries.insert(it, {std::string(site), std::string(detail)});
}

}  // namespace terrors::robust
