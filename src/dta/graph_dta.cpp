#include "dta/graph_dta.hpp"

#include <algorithm>
#include <limits>

#include "support/check.hpp"

namespace terrors::dta {

using netlist::GateId;

namespace {
constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
}

GraphDta::GraphDta(const netlist::Netlist& nl) : nl_(nl) {
  TE_REQUIRE(nl.finalized(), "graph DTA needs a finalized netlist");
  slot_of_.assign(nl.size(), kNoSlot);
  std::uint32_t next = 0;
  for (std::uint8_t s = 0; s < nl.stage_count(); ++s) {
    for (GateId e : nl.stage_endpoints(s)) slot_of_[e] = next++;
  }
  n_worst_.resize(next);
}

void GraphDta::observe(CycleActivation& cycle) {
  const auto& arr = cycle.arrivals();
  for (std::uint8_t s = 0; s < nl_.stage_count(); ++s) {
    for (GateId e : nl_.stage_endpoints(s)) {
      const double a = arr[nl_.gate(e).fanin[0]];
      if (a == -std::numeric_limits<double>::infinity()) continue;
      const std::uint32_t slot = slot_of_[e];
      worst_ = std::max(worst_, a);
      auto& worst_list = n_worst_[slot];
      // Insert in descending order, keeping at most kNWorst entries.
      auto pos = std::lower_bound(worst_list.begin(), worst_list.end(), a,
                                  std::greater<double>());
      if (pos != worst_list.end() || worst_list.size() < kNWorst) {
        worst_list.insert(pos, a);
        if (worst_list.size() > kNWorst) worst_list.pop_back();
      }
    }
  }
  ++cycles_;
}

const std::vector<double>& GraphDta::worst_arrivals(GateId endpoint) const {
  TE_REQUIRE(endpoint < slot_of_.size() && slot_of_[endpoint] != kNoSlot,
             "not a capture endpoint");
  return n_worst_[slot_of_[endpoint]];
}

double GraphDta::error_free_frequency_mhz(double setup_ps, double margin) const {
  TE_REQUIRE(cycles_ > 0, "no cycles observed");
  TE_REQUIRE(margin >= 1.0, "margin derates delay and must be >= 1");
  TE_CHECK(worst_ > 0.0, "observed no activated arrivals");
  return 1.0e6 / (worst_ * margin + setup_ps);
}

}  // namespace terrors::dta
