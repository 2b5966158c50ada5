#include "timing/paths.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace terrors::timing {

using netlist::Gate;
using netlist::GateId;
using netlist::GateKind;

double PathStat::variance() const {
  double v = g_loading * g_loading + indep_var;
  for (double s : s_loading) v += s * s;
  return v;
}

stat::Gaussian PathStat::slack(const TimingSpec& spec) const {
  return {spec.period_ps - spec.setup_ps - mean, std::sqrt(variance())};
}

PathStat path_stat(const TimingPath& path, const VariationModel& vm) {
  PathStat st;
  st.s_loading.assign(vm.anchor_count(), 0.0);
  const bool spatial = vm.config().spatial_enabled;
  for (GateId g : path.gates) {
    // Primary inputs / constants contribute no delay; everything else does
    // (the launch DFF contributes its clk-to-q).
    st.mean += vm.mean(g);
    st.g_loading += vm.global_loading(g);
    if (spatial) {
      const auto& w = vm.spatial_loadings(g);
      const double s = vm.sigma(g);
      // spatial loading of gate g on anchor k = ws * sigma_g * w_k; the
      // VariationModel folds ws into covariance(), so recompute here from
      // the identity sigma_g^2 = gl^2 + sum_k sl_k^2 + iv.
      const double gl = vm.global_loading(g);
      const double iv = vm.indep_sigma(g);
      const double spatial_var = std::max(0.0, s * s - gl * gl - iv * iv);
      const double scale = std::sqrt(spatial_var);
      for (std::size_t k = 0; k < w.size(); ++k) st.s_loading[k] += scale * w[k];
    }
    const double is = vm.indep_sigma(g);
    st.indep_var += is * is;
  }
  st.sorted_gates = path.gates;
  std::sort(st.sorted_gates.begin(), st.sorted_gates.end());
  return st;
}

double path_cov(const PathStat& a, const PathStat& b, const VariationModel& vm) {
  double cov = a.g_loading * b.g_loading;
  const std::size_t nk = std::min(a.s_loading.size(), b.s_loading.size());
  for (std::size_t k = 0; k < nk; ++k) cov += a.s_loading[k] * b.s_loading[k];
  // Independent components are shared only through common gates.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.sorted_gates.size() && j < b.sorted_gates.size()) {
    if (a.sorted_gates[i] < b.sorted_gates[j]) {
      ++i;
    } else if (a.sorted_gates[i] > b.sorted_gates[j]) {
      ++j;
    } else {
      const double is = vm.indep_sigma(a.sorted_gates[i]);
      cov += is * is;
      ++i;
      ++j;
    }
  }
  return cov;
}

// ---------------------------------------------------------------------------

struct PathEnumerator::Search {
  struct Node {
    GateId gate;
    float suffix;  ///< delay from this gate's output to the endpoint D pin
    std::int32_t parent;
  };
  GateId endpoint = netlist::kNoGate;
  std::vector<Node> arena;
  // max-heap of (bound, node index)
  std::priority_queue<std::pair<double, std::int32_t>> heap;
  std::vector<TimingPath> paths;
  std::size_t expansions = 0;
  bool done = false;
  bool guard_tripped = false;
};

PathEnumerator::PathEnumerator(const netlist::Netlist& nl, PathConfig config)
    : nl_(nl), config_(config), sta_(nl) {
  TE_REQUIRE(config.max_paths > 0, "max_paths must be positive");
}

PathEnumerator::~PathEnumerator() = default;

PathEnumerator::Search& PathEnumerator::search_for(GateId endpoint) {
  auto it = searches_.find(endpoint);
  if (it != searches_.end()) return *it->second;
  TE_REQUIRE(nl_.gate(endpoint).is_capture_endpoint(), "paths end at capture endpoints");
  auto s = std::make_unique<Search>();
  s->endpoint = endpoint;
  const GateId d = nl_.gate(endpoint).fanin[0];
  s->arena.push_back({d, 0.0f, -1});
  s->heap.emplace(sta_.arrival(d), 0);
  auto [pos, inserted] = searches_.emplace(endpoint, std::move(s));
  TE_CHECK(inserted, "duplicate search insertion");
  return *pos->second;
}

void PathEnumerator::extend(Search& s, std::size_t k) {
  const std::size_t expansions_before = s.expansions;
  const std::size_t paths_before = s.paths.size();
  while (s.paths.size() < k && !s.done) {
    if (s.heap.empty()) {
      s.done = true;
      break;
    }
    if (s.expansions >= config_.max_expansions || s.paths.size() >= config_.max_paths) {
      s.done = true;
      s.guard_tripped = true;
      break;
    }
    const auto [bound, idx] = s.heap.top();
    s.heap.pop();
    ++s.expansions;
    const Search::Node node = s.arena[static_cast<std::size_t>(idx)];
    const Gate& g = nl_.gate(node.gate);
    if (!netlist::info(g.kind).combinational) {
      // Reached a launch point.  Constants never toggle, so paths from
      // them are not timing paths; skip them.
      if (g.kind == GateKind::kConst0 || g.kind == GateKind::kConst1) continue;
      TimingPath p;
      p.endpoint = s.endpoint;
      p.delay_ps = bound;
      std::int32_t cur = idx;
      while (cur >= 0) {
        p.gates.push_back(s.arena[static_cast<std::size_t>(cur)].gate);
        cur = s.arena[static_cast<std::size_t>(cur)].parent;
      }
      // Parent chain runs source -> ... -> endpoint-D already.
      s.paths.push_back(std::move(p));
      continue;
    }
    // Expand into the gate's fanins.
    const float suffix = node.suffix + static_cast<float>(
                             nl_.gate(node.gate).delay_ps);
    for (int slot = 0; slot < g.arity(); ++slot) {
      const GateId f = g.fanin[static_cast<std::size_t>(slot)];
      const auto child = static_cast<std::int32_t>(s.arena.size());
      s.arena.push_back({f, suffix, idx});
      s.heap.emplace(sta_.arrival(f) + suffix, child);
    }
  }
  // Flush once per extension burst rather than per search node.
  static obs::Counter& expansions_metric =
      obs::MetricsRegistry::instance().counter("timing.path_expansions");
  static obs::Counter& paths_metric =
      obs::MetricsRegistry::instance().counter("timing.paths_enumerated");
  expansions_metric.increment(s.expansions - expansions_before);
  paths_metric.increment(s.paths.size() - paths_before);
}

const std::vector<TimingPath>& PathEnumerator::top_paths(GateId endpoint, std::size_t k) {
  if (frozen_) {
    // Read-only lookup: concurrent callers share the warmed lists.
    const auto it = searches_.find(endpoint);
    TE_CHECK(it != searches_.end(), "frozen PathEnumerator queried for an unwarmed endpoint");
    const Search& s = *it->second;
    TE_CHECK(s.paths.size() >= k || s.done,
             "frozen PathEnumerator queried beyond its warmed depth");
    return s.paths;
  }
  Search& s = search_for(endpoint);
  if (s.paths.size() < k && !s.done) extend(s, k);
  return s.paths;
}

void PathEnumerator::warm(const std::vector<GateId>& endpoints, std::size_t k) {
  TE_REQUIRE(!frozen_, "cannot warm a frozen PathEnumerator");
  for (GateId e : endpoints) top_paths(e, k);
}

bool PathEnumerator::exhausted(GateId endpoint) const {
  auto it = searches_.find(endpoint);
  if (it == searches_.end()) return false;
  return it->second->done && !it->second->guard_tripped;
}

}  // namespace terrors::timing
