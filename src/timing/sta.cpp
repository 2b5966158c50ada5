#include "timing/sta.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace terrors::timing {

using netlist::Gate;
using netlist::GateId;
using netlist::GateKind;

namespace {

double gate_delay(const netlist::Netlist& nl, GateId g, const ChipSample* chip) {
  return chip != nullptr ? static_cast<double>((*chip)[g]) : nl.gate(g).delay_ps;
}

double source_arrival(const netlist::Netlist& nl, GateId g, const ChipSample* chip) {
  // DFF outputs launch at clk-to-q; inputs and constants at t = 0.
  return nl.gate(g).kind == GateKind::kDff ? gate_delay(nl, g, chip) : 0.0;
}

}  // namespace

Sta::Sta(const netlist::Netlist& nl, const ChipSample* chip) : nl_(nl) {
  TE_REQUIRE(nl.finalized(), "STA needs a finalized netlist");
  TE_REQUIRE(chip == nullptr || chip->size() == nl.size(), "chip sample size mismatch");
  arrival_.assign(nl.size(), 0.0);
  for (GateId g = 0; g < nl.size(); ++g) {
    if (!netlist::info(nl.gate(g).kind).combinational) arrival_[g] = source_arrival(nl, g, chip);
  }
  for (GateId g : nl.topo_order()) {
    const Gate& gate = nl.gate(g);
    double worst = 0.0;
    for (int s = 0; s < gate.arity(); ++s)
      worst = std::max(worst, arrival_[gate.fanin[static_cast<std::size_t>(s)]]);
    arrival_[g] = worst + gate_delay(nl, g, chip);
  }
}

double Sta::endpoint_arrival(GateId e) const {
  TE_REQUIRE(nl_.gate(e).is_capture_endpoint(), "not a capture endpoint");
  return arrival_[nl_.gate(e).fanin[0]];
}

double Sta::endpoint_slack(GateId e, const TimingSpec& spec) const {
  return spec.period_ps - spec.setup_ps - endpoint_arrival(e);
}

double Sta::worst_slack(const TimingSpec& spec) const {
  double worst = std::numeric_limits<double>::infinity();
  for (std::uint8_t s = 0; s < nl_.stage_count(); ++s)
    worst = std::min(worst, worst_stage_slack(s, spec));
  return worst;
}

double Sta::worst_stage_slack(std::uint8_t stage, const TimingSpec& spec) const {
  double worst = std::numeric_limits<double>::infinity();
  for (GateId e : nl_.stage_endpoints(stage)) worst = std::min(worst, endpoint_slack(e, spec));
  return worst;
}

double Sta::max_frequency_mhz(double setup_ps) const {
  double worst_arrival = 0.0;
  for (std::uint8_t s = 0; s < nl_.stage_count(); ++s)
    for (GateId e : nl_.stage_endpoints(s)) worst_arrival = std::max(worst_arrival, endpoint_arrival(e));
  TE_CHECK(worst_arrival > 0.0, "netlist with no timing paths");
  return 1.0e6 / (worst_arrival + setup_ps);
}

std::vector<double> activated_arrivals(const netlist::Netlist& nl,
                                       const std::vector<std::uint8_t>& activated,
                                       const ChipSample* chip) {
  // The extra entry is the zero slot that unused program fanins read.
  std::vector<double> arr(nl.size() + 1, -std::numeric_limits<double>::infinity());
  std::vector<const netlist::ProgramGate*> live;
  activated_arrivals(nl, nl.program(), nl.launch_points(), activated, arr, live, chip);
  arr.pop_back();
  return arr;
}

void activated_arrivals(const netlist::Netlist& nl, std::span<const netlist::ProgramGate> gates,
                        std::span<const GateId> launches,
                        const std::vector<std::uint8_t>& activated, std::span<double> arr,
                        std::vector<const netlist::ProgramGate*>& live, const ChipSample* chip) {
  TE_REQUIRE(activated.size() == nl.size(), "activation flag size mismatch");
  TE_REQUIRE(arr.size() == nl.size() + 1, "arrival buffer size mismatch");
  TE_REQUIRE(chip == nullptr || chip->size() == nl.size(), "chip sample size mismatch");
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  for (GateId g : launches) arr[g] = activated[g] != 0 ? source_arrival(nl, g, chip) : kNegInf;
  // Gather the activated gates without branching on the flags, which are
  // unpredictable; then relax only those.  A gate no activated path
  // reaches keeps -inf, since -inf + delay == -inf.
  if (live.size() < gates.size()) live.resize(gates.size());
  std::size_t count = 0;
  for (const netlist::ProgramGate& pg : gates) {
    arr[pg.out] = kNegInf;
    live[count] = &pg;
    count += activated[pg.out] != 0 ? 1 : 0;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const netlist::ProgramGate& pg = *live[i];
    const double delay = chip != nullptr ? static_cast<double>((*chip)[pg.out]) : pg.delay_ps;
    arr[pg.out] = std::max({arr[pg.fanin[0]], arr[pg.fanin[1]], arr[pg.fanin[2]]}) + delay;
  }
}

std::optional<double> activated_endpoint_arrival(const netlist::Netlist& nl,
                                                 const std::vector<std::uint8_t>& activated,
                                                 GateId e, const ChipSample* chip) {
  TE_REQUIRE(nl.gate(e).is_capture_endpoint(), "not a capture endpoint");
  const std::vector<double> arr = activated_arrivals(nl, activated, chip);
  const double a = arr[nl.gate(e).fanin[0]];
  if (a == -std::numeric_limits<double>::infinity()) return std::nullopt;
  return a;
}

}  // namespace terrors::timing
