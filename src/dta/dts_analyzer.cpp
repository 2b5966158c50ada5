#include "dta/dts_analyzer.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stat/clark.hpp"
#include "support/check.hpp"
#include "support/hash.hpp"
#include "support/math.hpp"

namespace terrors::dta {

using netlist::EndpointClass;
using netlist::GateId;
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

DtsGaussian DtsAnalyzer::statistical_path_min(std::span<const PathStat* const> paths) {
  TE_REQUIRE(!paths.empty(), "statistical_path_min over an empty AP set");

  // Prune paths that cannot win the minimum slack: path i is irrelevant
  // when its mean slack exceeds the best one by more than kPruneSigmas
  // combined standard deviations.
  double best_mean = std::numeric_limits<double>::infinity();
  std::size_t dominant = 0;
  slacks_.resize(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    slacks_[i] = paths[i]->slack(spec_);
    if (slacks_[i].mean < best_mean) {
      best_mean = slacks_[i].mean;
      dominant = i;
    }
  }
  const double sd_best = slacks_[dominant].sd;
  keep_.clear();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (slacks_[i].mean - best_mean <= kPruneSigmas * (slacks_[i].sd + sd_best) + 1e-9)
      keep_.push_back(i);
  }
  TE_CHECK(!keep_.empty(), "pruning removed all paths");

  const std::size_t n = keep_.size();
  min_.vars.clear();
  for (std::size_t i : keep_) min_.vars.push_back(slacks_[i]);
  min_.cov.resize(n * n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u; v < n; ++v) {
      const double c = u == v ? paths[keep_[u]]->variance()
                              : timing::path_cov(*paths[keep_[u]], *paths[keep_[v]], vm_);
      min_.cov[u * n + v] = c;
      min_.cov[v * n + u] = c;
    }
  }
  DtsGaussian out;
  out.slack = stat::statistical_min(min_, stat::MinOrdering::kGreedyTightness);
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
  c.min_mean = std::numeric_limits<double>::infinity();
  for (const PathStat& st : c.stats) c.min_mean = std::min(c.min_mean, st.mean);
  // Two fixed orderings (Section 3), kept as each candidate's rank: by
  // worst-case (1st pct) slack — i.e. largest 99th-percentile delay — and
  // by best-case (99th pct) slack.
  const double z = support::normal_quantile(kPercentileHigh);
  std::vector<std::size_t> order(built);
  auto rank = [&](auto before, std::vector<std::size_t>& ranks) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), before);
    ranks.resize(built);
    for (std::size_t r = 0; r < built; ++r) ranks[order[r]] = r;
  };
  rank(
      [&](std::size_t a, std::size_t b) {
        return c.stats[a].mean + z * c.stats[a].sd > c.stats[b].mean + z * c.stats[b].sd;
      },
      c.rank_low);
  rank(
      [&](std::size_t a, std::size_t b) {
        return c.stats[a].mean - z * c.stats[a].sd > c.stats[b].mean - z * c.stats[b].sd;
      },
      c.rank_high);
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
    timing::activated_arrivals(nl_, cone.gates, cone.launches, flags, arrivals_, live_);
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

  // Exact DP over the activated subgraph: it bounds the candidate scan
  // below, and supplies the fallback path when the capped candidate list
  // contains no activated path, or none as critical as the DP's.
  const std::vector<double>& arrivals = cone_arrivals(cone, flags);
  const double dp_arrival = arrivals[d];
  TE_CHECK(dp_arrival > -std::numeric_limits<double>::infinity(),
           "D input activated but no activated path found by DP");

  const EndpointCache& cache = endpoint_cache(endpoint);
  const auto& candidates = *cache.candidates;
  auto is_activated = [&](std::size_t i) {
    const auto& gates = candidates[i].gates;
    return std::all_of(gates.begin(), gates.end(), [&](GateId g) { return flags[g] != 0; });
  };
  // The first activated candidate in each percentile ordering is the
  // activated candidate of smallest rank in it.
  //
  // The DP bounds which candidates can be activated.  Gate::delay_ps is a
  // float that ProgramGate copies, and a candidate's PathStat::mean and the
  // DP both add those same per-gate values, in the same order from the
  // launch point (a launching DFF's clk-to-q, or 0 for a primary input,
  // whose delay is 0).  IEEE addition is monotone, and the DP takes the
  // maximum over fanins before each addition, so an activated candidate's
  // mean never exceeds the DP's arrival at D: every candidate above it is
  // skipped unchecked.  TimingPath::delay_ps cannot serve as the bound: the
  // enumerator accumulates its suffix in float.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::size_t found_low = kNone;
  std::size_t found_high = kNone;
  std::size_t low_rank = kNone;
  std::size_t high_rank = kNone;
  if (cache.min_mean <= dp_arrival) {
    for (std::size_t i = 0; i < cache.stats.size(); ++i) {
      if (cache.stats[i].mean > dp_arrival) continue;
      if (cache.rank_low[i] >= low_rank && cache.rank_high[i] >= high_rank) continue;
      if (!is_activated(i)) continue;
      if (cache.rank_low[i] < low_rank) {
        low_rank = cache.rank_low[i];
        found_low = i;
      }
      if (cache.rank_high[i] < high_rank) {
        high_rank = cache.rank_high[i];
        found_high = i;
      }
    }
  }

  EndpointAp ap;
  double best_found_delay = -std::numeric_limits<double>::infinity();
  if (found_low != kNone) {
    ap.paths[ap.count++] = &cache.stats[found_low];
    best_found_delay = ap.paths[0]->mean;
  }
  if (found_high != kNone && found_high != found_low) ap.paths[ap.count++] = &cache.stats[found_high];
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

std::optional<DtsGaussian> DtsAnalyzer::stage_dts(std::uint8_t stage,
                                                  const std::vector<std::uint8_t>& flags,
                                                  EndpointClass cls) {
  TE_REQUIRE(stage < nl_.stage_count(), "stage out of range");
  TE_REQUIRE(flags.size() == nl_.size(), "activation flag size mismatch");
  static obs::Counter& queries = obs::MetricsRegistry::instance().counter("dta.stage_dts_queries");
  queries.increment();
  arrivals_ready_ = false;
  const netlist::Cone& cone = nl_.stage_cone(stage, cls);
  // AP order: each endpoint's representative in endpoint order, then every
  // alternate.  statistical_path_min breaks ties by position, so the order
  // is part of the result.
  ap_.clear();
  alternates_.clear();
  for (GateId e : cone.endpoints) {
    const EndpointAp found = endpoint_critical_activated(e, cone, flags);
    if (found.count == 0) continue;
    ap_.push_back(found.paths[0]);
    alternates_.insert(alternates_.end(), found.paths.begin() + 1,
                       found.paths.begin() + found.count);
  }
  ap_.insert(ap_.end(), alternates_.begin(), alternates_.end());
  if (ap_.empty()) return std::nullopt;
  return statistical_path_min(ap_);
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
