#include "dta/dts_analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stat/clark.hpp"
#include "support/check.hpp"
#include "support/hash.hpp"
#include "support/math.hpp"

namespace terrors::dta {

using netlist::EndpointClass;
using netlist::GateId;
using stat::Gaussian;
using timing::PathStat;
using timing::TimingPath;

namespace {

/// Algorithm 1 orders candidates at the 1st and 99th percentile (Section
/// 3): the z of kPercentileHigh, and its negation.
constexpr double kPercentileHigh = 0.99;
constexpr double kPruneSigmas = 6.0;  ///< see statistical_path_min

}  // namespace

double DtsGaussian::global_corr(const DtsGaussian& other) const {
  const double denom = slack.sd * other.slack.sd;
  if (denom == 0.0) return 0.0;
  return support::clamp(global_loading * other.global_loading / denom, -1.0, 1.0);
}

DtsGaussian dts_min(const DtsGaussian& a, const DtsGaussian& b) {
  const stat::ClarkResult r = stat::clark_min(a.slack, b.slack, a.global_corr(b));
  DtsGaussian out;
  out.slack = r.value;
  // Clark's linear covariance propagation applies to factor loadings too.
  out.global_loading = r.tightness * a.global_loading + (1.0 - r.tightness) * b.global_loading;
  out.global_loading = std::min(out.global_loading, out.slack.sd);
  return out;
}

DtsGaussian statistical_path_min(std::span<const PathStat* const> paths,
                                 const timing::VariationModel& vm,
                                 const timing::TimingSpec& spec) {
  TE_REQUIRE(!paths.empty(), "statistical_path_min over an empty AP set");

  // Prune paths that cannot win the minimum slack: path i is irrelevant
  // when its mean slack exceeds the best one by more than kPruneSigmas
  // combined standard deviations.
  double best_mean = std::numeric_limits<double>::infinity();
  std::size_t dominant = 0;
  std::vector<Gaussian> slacks(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    slacks[i] = paths[i]->slack(spec);
    if (slacks[i].mean < best_mean) {
      best_mean = slacks[i].mean;
      dominant = i;
    }
  }
  const double sd_best = slacks[dominant].sd;
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (slacks[i].mean - best_mean <= kPruneSigmas * (slacks[i].sd + sd_best) + 1e-9)
      keep.push_back(i);
  }
  TE_CHECK(!keep.empty(), "pruning removed all paths");

  std::vector<Gaussian> vars;
  vars.reserve(keep.size());
  for (std::size_t i : keep) vars.push_back(slacks[i]);
  std::vector<double> cov(keep.size() * keep.size());
  for (std::size_t u = 0; u < keep.size(); ++u) {
    for (std::size_t v = u; v < keep.size(); ++v) {
      const double c = u == v ? paths[keep[u]]->variance()
                              : timing::path_cov(*paths[keep[u]], *paths[keep[v]], vm);
      cov[u * keep.size() + v] = c;
      cov[v * keep.size() + u] = c;
    }
  }
  DtsGaussian out;
  out.slack = stat::statistical_min(vars, cov, stat::MinOrdering::kGreedyTightness);
  // Global loading of the result: approximate with the dominant (minimum
  // mean slack) path's loading, clipped to the result spread.
  out.global_loading = std::min(paths[dominant]->g_loading, out.slack.sd);
  return out;
}

// ---------------------------------------------------------------------------

CycleActivation::CycleActivation(const netlist::Netlist& nl, std::vector<std::uint8_t> flags)
    : nl_(nl), flags_(std::move(flags)), arrivals_once_(std::make_unique<std::once_flag>()) {
  TE_REQUIRE(flags_.size() == nl.size(), "activation flag size mismatch");
}

const std::vector<double>& CycleActivation::arrivals() const {
  std::call_once(*arrivals_once_, [this] {
    obs::ScopedSpan span("timing.arrivals");
    arrivals_ = timing::activated_arrivals(nl_, flags_);
  });
  return arrivals_;
}

// ---------------------------------------------------------------------------

DtsAnalyzer::DtsAnalyzer(const netlist::Netlist& nl, const timing::VariationModel& vm,
                         timing::TimingSpec spec, DtsConfig config)
    : nl_(nl),
      vm_(vm),
      spec_(spec),
      config_(config),
      owned_paths_(std::make_unique<timing::PathEnumerator>(nl)),
      paths_(owned_paths_.get()),
      cache_(nl.size()),
      arrivals_(nl.size() + 1, -std::numeric_limits<double>::infinity()) {
  TE_REQUIRE(config.top_k > 0, "top_k must be positive");
}

DtsAnalyzer::DtsAnalyzer(const netlist::Netlist& nl, const timing::VariationModel& vm,
                         timing::TimingSpec spec, DtsConfig config,
                         timing::PathEnumerator& shared_paths)
    : nl_(nl),
      vm_(vm),
      spec_(spec),
      config_(config),
      paths_(&shared_paths),
      cache_(nl.size()),
      arrivals_(nl.size() + 1, -std::numeric_limits<double>::infinity()) {
  TE_REQUIRE(config.top_k > 0, "top_k must be positive");
}

DtsAnalyzer::EndpointCache& DtsAnalyzer::endpoint_cache(GateId endpoint) {
  TE_REQUIRE(endpoint < cache_.size(), "gate id out of range");
  std::unique_ptr<EndpointCache>& slot = cache_[endpoint];
  if (!slot) {
    // The list object stays put for the enumerator's lifetime; only a
    // caller asking for more paths can lengthen it, which the size check
    // below picks up.
    const auto& candidates = paths_->top_paths(endpoint, config_.top_k);
    slot = std::make_unique<EndpointCache>();
    slot->candidates = &candidates;
  }
  EndpointCache& c = *slot;
  const auto& candidates = *c.candidates;
  const std::size_t built = candidates.size();
  if (c.stats.size() == built) return c;
  for (std::size_t i = c.stats.size(); i < built; ++i)
    c.stats.push_back(timing::path_stat(candidates[i], vm_));
  // Two fixed orderings (Section 3): by worst-case (1st pct) slack — i.e.
  // largest 99th-percentile delay — and by best-case (99th pct) slack.
  const double z = support::normal_quantile(kPercentileHigh);
  c.order_low.resize(built);
  c.order_high.resize(built);
  for (std::size_t i = 0; i < built; ++i) c.order_low[i] = c.order_high[i] = i;
  std::sort(c.order_low.begin(), c.order_low.end(), [&](std::size_t a, std::size_t b) {
    return c.stats[a].mean + z * std::sqrt(c.stats[a].variance()) >
           c.stats[b].mean + z * std::sqrt(c.stats[b].variance());
  });
  std::sort(c.order_high.begin(), c.order_high.end(), [&](std::size_t a, std::size_t b) {
    return c.stats[a].mean - z * std::sqrt(c.stats[a].variance()) >
           c.stats[b].mean - z * std::sqrt(c.stats[b].variance());
  });
  c.rank_low.resize(built);
  for (std::size_t r = 0; r < built; ++r) c.rank_low[c.order_low[r]] = r;
  return c;
}

std::vector<DtsAnalyzer::EndpointPath> DtsAnalyzer::endpoint_path_stats(GateId endpoint,
                                                                        std::size_t k) {
  const EndpointCache& c = endpoint_cache(endpoint);
  const auto& candidates = *c.candidates;
  const std::size_t n = std::min(k, c.stats.size());
  std::vector<EndpointPath> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back({&candidates[i], &c.stats[i]});
  return out;
}

const std::vector<double>& DtsAnalyzer::cone_arrivals(const netlist::Cone& cone,
                                                      const std::vector<std::uint8_t>& flags) {
  if (!arrivals_ready_) {
    obs::ScopedSpan span("timing.arrivals");
    timing::activated_arrivals(nl_, cone.gates, cone.launches, flags, arrivals_);
    arrivals_ready_ = true;
  }
  return arrivals_;
}

DtsAnalyzer::EndpointAp DtsAnalyzer::endpoint_critical_activated(
    GateId endpoint, const netlist::Cone& cone, const std::vector<std::uint8_t>& flags) {
  const GateId d = nl_.gate(endpoint).fanin[0];
  // Fast reject: if the endpoint's data input did not toggle, no activated
  // path ends here and the endpoint cannot capture a wrong value.
  if (flags[d] == 0) return {};

  const EndpointCache& cache = endpoint_cache(endpoint);
  const auto& candidates = *cache.candidates;

  auto is_activated = [&](std::size_t i) {
    const auto& gates = candidates[i].gates;
    return std::all_of(gates.begin(), gates.end(), [&](GateId g) { return flags[g] != 0; });
  };
  // The first activated candidate in each ordering.  The low scan settles
  // every candidate it passes, so the high scan only re-checks candidates
  // ranked after the low hit.
  std::ptrdiff_t found_low = -1;
  std::size_t low_rank = cache.order_low.size();
  for (std::size_t r = 0; r < cache.order_low.size(); ++r) {
    if (is_activated(cache.order_low[r])) {
      found_low = static_cast<std::ptrdiff_t>(cache.order_low[r]);
      low_rank = r;
      break;
    }
  }
  std::ptrdiff_t found_high = -1;
  for (std::size_t i : cache.order_high) {
    const std::size_t r = cache.rank_low[i];
    if (r < low_rank) continue;  // checked by the low scan: not activated
    if (r == low_rank || is_activated(i)) {
      found_high = static_cast<std::ptrdiff_t>(i);
      break;
    }
  }

  // Exact DP over the activated subgraph: needed as fallback when the
  // capped candidate list contains no activated path, and as insurance
  // when the list's guard tripped before the true activated critical path.
  const std::vector<double>& arrivals = cone_arrivals(cone, flags);
  const double dp_arrival = arrivals[d];
  TE_CHECK(dp_arrival > -std::numeric_limits<double>::infinity(),
           "D input activated but no activated path found by DP");

  EndpointAp ap;
  double best_found_delay = -std::numeric_limits<double>::infinity();
  if (found_low >= 0) {
    ap.paths[ap.count++] = &cache.stats[static_cast<std::size_t>(found_low)];
    best_found_delay = ap.paths[0]->mean;
  }
  if (found_high >= 0 && found_high != found_low)
    ap.paths[ap.count++] = &cache.stats[static_cast<std::size_t>(found_high)];
  if (ap.count == 0 || dp_arrival > best_found_delay + 1e-6)
    ap.paths[ap.count++] = &dp_path_stat(endpoint, arrivals);

  // The nominal-worst path represents the endpoint; the caller appends the
  // others after every endpoint's representative.
  const auto worst = std::max_element(ap.paths.begin(), ap.paths.begin() + ap.count,
                                      [](const PathStat* a, const PathStat* b) {
                                        return a->mean < b->mean;
                                      });
  std::rotate(ap.paths.begin(), worst, worst + 1);
  return ap;
}

const PathStat& DtsAnalyzer::dp_path_stat(GateId endpoint, const std::vector<double>& arrivals) {
  // Walk the DP's maximising activated path back from the endpoint's D
  // input over the compiled program, hashing it for the memo.  The
  // endpoint is multiplied in before the first gate so that endpoints
  // with equal endpoint ^ D input do not share keys.
  const std::vector<netlist::ProgramGate>& program = nl_.program();
  const GateId d = nl_.gate(endpoint).fanin[0];
  backtrack_.clear();
  std::uint64_t h = (support::kFnvOffsetBasis ^ endpoint) * support::kFnvPrime;
  for (GateId g = d;;) {
    backtrack_.push_back(g);
    h = (h ^ g) * support::kFnvPrime;
    const GateId at = nl_.program_index(g);
    if (at == netlist::kNoGate) break;  // reached the launching endpoint
    const netlist::ProgramGate& pg = program[at];
    GateId best = netlist::kNoGate;
    double best_arr = -std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < pg.arity; ++s) {
      const GateId f = pg.fanin[s];
      if (arrivals[f] > best_arr) {
        best_arr = arrivals[f];
        best = f;
      }
    }
    TE_CHECK(best != netlist::kNoGate, "activated DP chain broke during backtrack");
    g = best;
  }
  static obs::Counter& dp_fallbacks = obs::MetricsRegistry::instance().counter("dta.dp_fallbacks");
  dp_fallbacks.increment();
  const auto [first, last] = dp_cache_.equal_range(h);
  for (auto it = first; it != last; ++it) {
    if (it->second.gates == backtrack_) return it->second.stat;
  }
  TimingPath p;
  p.endpoint = endpoint;
  p.gates.assign(backtrack_.rbegin(), backtrack_.rend());
  p.delay_ps = arrivals[d];
  return dp_cache_.emplace(h, DpEntry{backtrack_, timing::path_stat(p, vm_)})->second.stat;
}

std::optional<DtsGaussian> DtsAnalyzer::stage_dts(std::uint8_t stage, CycleActivation& cycle,
                                                  EndpointClass cls) {
  TE_REQUIRE(stage < nl_.stage_count(), "stage out of range");
  static obs::Counter& queries = obs::MetricsRegistry::instance().counter("dta.stage_dts_queries");
  queries.increment();
  arrivals_ready_ = false;
  const netlist::Cone& cone = nl_.stage_cone(stage, cls);
  // AP order: each endpoint's representative in endpoint order, then every
  // alternate.  statistical_path_min breaks ties by position, so the order
  // is part of the result.
  std::vector<const PathStat*> ap;
  std::vector<const PathStat*> alternates;
  for (GateId e : cone.endpoints) {
    const EndpointAp found = endpoint_critical_activated(e, cone, cycle.flags());
    if (found.count == 0) continue;
    ap.push_back(found.paths[0]);
    alternates.insert(alternates.end(), found.paths.begin() + 1,
                      found.paths.begin() + found.count);
  }
  ap.insert(ap.end(), alternates.begin(), alternates.end());
  if (ap.empty()) return std::nullopt;
  return statistical_path_min(ap, vm_, spec_);
}

std::optional<double> DtsAnalyzer::stage_dts_deterministic(std::uint8_t stage,
                                                           const std::vector<std::uint8_t>& activated,
                                                           EndpointClass cls,
                                                           const timing::ChipSample* chip) const {
  TE_REQUIRE(stage < nl_.stage_count(), "stage out of range");
  const std::vector<double> arr = timing::activated_arrivals(nl_, activated, chip);
  double worst = -std::numeric_limits<double>::infinity();
  bool any = false;
  for (GateId e : nl_.stage_endpoints(stage)) {
    if (cls != EndpointClass::kNone && nl_.gate(e).endpoint_class != cls) continue;
    const double a = arr[nl_.gate(e).fanin[0]];
    if (a == -std::numeric_limits<double>::infinity()) continue;
    worst = std::max(worst, a);
    any = true;
  }
  if (!any) return std::nullopt;
  return spec_.period_ps - spec_.setup_ps - worst;
}

}  // namespace terrors::dta
