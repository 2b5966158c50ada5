#include "sim/logic_sim.hpp"

#include <algorithm>
#include <cstring>

#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace terrors::sim {

using netlist::GateId;
using netlist::GateKind;

namespace {

using Lanes = LogicSimulator::Lanes;
constexpr unsigned kLanes = LogicSimulator::kLanes;

/// Set bits of x.  Spelled out: without a popcount instruction in the
/// target, std::popcount is a library call.
std::uint64_t count_lanes(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return (x * 0x0101010101010101ull) >> 56;
}

/// Transpose a 64x64 bit matrix in place: bit j of word i moves to bit i
/// of word j.  Six rounds swap ever smaller off-diagonal blocks.
void transpose(Lanes* a) {
  Lanes m = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < kLanes; k = ((k | j) + 1) & ~j) {
      const Lanes t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

/// Byte i of kExpand[x] is bit i of x: eight flags at a time.
constexpr std::array<std::uint64_t, 256> kExpand = [] {
  std::array<std::uint64_t, 256> table{};
  for (unsigned x = 0; x < 256; ++x)
    for (unsigned i = 0; i < 8; ++i) table[x] |= std::uint64_t{(x >> i) & 1u} << (8 * i);
  return table;
}();

Lanes mask(std::int8_t m) { return static_cast<Lanes>(std::int64_t{m}); }

/// kForms[arity][truth]: the LaneGate form (bits k, mx, my, ma) that agrees
/// with the truth table on every row a gate of that arity can see (fanins
/// past its arity read the zero slot), or -1.  Truth tables are masked to
/// those rows.
constexpr auto kForms = [] {
  std::array<std::array<int, 256>, 4> forms{};
  for (unsigned arity = 0; arity < 4; ++arity) {
    for (auto& f : forms[arity]) f = -1;
    const unsigned rows = 1u << arity;
    for (unsigned form = 16; form-- > 0;) {
      unsigned truth = 0;
      for (unsigned row = 0; row < rows; ++row) {
        const unsigned a = row & 1u;
        const unsigned b = (row >> 1) & 1u;
        const unsigned c = (row >> 2) & 1u;
        const unsigned y = a ^ b;
        const unsigned out = (form & 1u) ^ (a & b & (form >> 1)) ^ (y & (form >> 2)) ^
                             (a & (form >> 3)) ^ (y & c);
        truth |= (out & 1u) << row;
      }
      forms[arity][truth] = static_cast<int>(form);  // the smallest form wins
    }
  }
  return forms;
}();

}  // namespace

LogicSimulator::LogicSimulator(const netlist::Netlist& nl) : nl_(nl) {
  TE_REQUIRE(nl.finalized(), "simulator needs a finalized netlist");
  compile(nl.program());
  dffs_ = nl.dffs();
  inputs_ = nl.inputs();
  outputs_ = nl.outputs();
  allocate();
}

LogicSimulator::LogicSimulator(const netlist::Netlist& nl, const netlist::Cone& closure)
    : nl_(nl) {
  TE_REQUIRE(nl.finalized(), "simulator needs a finalized netlist");
  compile(closure.gates);
  for (GateId id : closure.launches) {
    TE_REQUIRE(id < nl.size(), "closure does not belong to this netlist");
    switch (nl.gate(id).kind) {
      case GateKind::kDff:
        dffs_.push_back(id);
        break;
      case GateKind::kInput:
        inputs_.push_back(id);
        break;
      case GateKind::kOutput:
        outputs_.push_back(id);
        break;
      default:
        break;  // constants are set by reset()
    }
  }
  allocate();
}

void LogicSimulator::compile(std::span<const netlist::ProgramGate> program) {
  program_.reserve(program.size());
  for (const netlist::ProgramGate& pg : program) {
    TE_CHECK(pg.arity <= 3, "gate arity out of range");
    const int form = kForms[pg.arity][pg.truth & ((1u << (1u << pg.arity)) - 1u)];
    TE_CHECK(form >= 0, "gate function has no word form in the lane simulator");
    auto m = [form](unsigned bit) {
      return static_cast<std::int8_t>(-static_cast<int>((static_cast<unsigned>(form) >> bit) & 1u));
    };
    program_.push_back({pg.out, pg.fanin, m(0), m(1), m(2), m(3)});
  }
}

void LogicSimulator::allocate() {
  for (GateId id : dffs_) dff_inputs_.push_back(nl_.gate(id).fanin[0]);
  captured_.assign(dffs_.size(), 0);
  // One extra value backs the netlist's zero slot, which stays 0.
  values_.assign(nl_.size() + 1, 0);
  pending_.assign(nl_.size(), 0);
  const std::size_t padded = (nl_.size() + kLanes - 1) / kLanes * kLanes;
  activated_.assign(padded, 0);
  transposed_.assign(padded, 0);
  // The 64-gate blocks holding a gate that step() writes; every other
  // block's flags stay 0.
  std::vector<bool> written(padded / kLanes, false);
  for (const LaneGate& g : program_) written[g.out / kLanes] = true;
  for (const auto* ids : {&dffs_, &inputs_, &outputs_})
    for (GateId id : *ids) written[id / kLanes] = true;
  for (std::size_t b = 0; b < written.size(); ++b)
    if (written[b]) written_blocks_.push_back(b);
  reset();
}

void LogicSimulator::reset() {
  std::fill(values_.begin(), values_.end(), 0);
  std::fill(pending_.begin(), pending_.end(), 0);
  cycle_ = 0;
  live_ = 1;
  (void)settle();
  // Constants are written once, after the reset cycle settled with them at
  // 0: gates they feed first see their value in cycle 1, and toggle then.
  for (GateId id : nl_.constants()) values_[id] = nl_.gate(id).kind == GateKind::kConst1 ? ~Lanes{0} : 0;
  std::fill(activated_.begin(), activated_.end(), 0);
  transposed_ready_ = false;
}

void LogicSimulator::set_input(GateId input, bool v) {
  TE_REQUIRE(nl_.gate(input).kind == GateKind::kInput, "set_input on a non-input gate");
  // Staged: the value takes effect in the cycle started by the next step(),
  // so driving inputs never contaminates the previous cycle's settled state.
  drive(input, v);
}

void LogicSimulator::set_input_word(const std::vector<GateId>& word, std::uint64_t v) {
  TE_REQUIRE(word.size() <= 64, "input word too wide");
  for (std::size_t i = 0; i < word.size(); ++i) set_input(word[i], ((v >> i) & 1ull) != 0);
}

void LogicSimulator::drive_word_lanes(const std::vector<GateId>& word, const LaneValues& values) {
  // Transposed, word i holds bit i of every lane's value.
  LaneValues bits = values;
  transpose(bits.data());
  for (std::size_t i = 0; i < word.size(); ++i) pending_[word[i]] = bits[i];
}

std::uint64_t LogicSimulator::value_word(const std::vector<GateId>& word) const {
  TE_REQUIRE(word.size() <= 64, "word too wide");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < word.size(); ++i)
    if (value(word[i])) v |= (1ull << i);
  return v;
}

std::vector<std::uint8_t> LogicSimulator::activation_flags() const {
  std::vector<std::uint8_t> flags(nl_.size());
  // Raw pointers: a byte store may alias a vector's own pointers, which
  // would reload them on every iteration.
  const Lanes* act = activated_.data();
  std::uint8_t* out = flags.data();
  for (std::size_t id = 0; id < flags.size(); ++id) out[id] = static_cast<std::uint8_t>(act[id] & 1u);
  return flags;
}

void LogicSimulator::lane_flags(unsigned lane, std::span<std::uint8_t> out) const {
  TE_REQUIRE(lane < kLanes && out.size() == nl_.size(), "lane or flag buffer out of range");
  if (!transposed_ready_) {
    for (std::size_t b : written_blocks_) {
      Lanes* block = transposed_.data() + b * kLanes;
      std::copy_n(activated_.data() + b * kLanes, kLanes, block);
      transpose(block);
    }
    transposed_ready_ = true;
  }
  const Lanes* rows = transposed_.data() + lane;
  std::uint8_t* bytes = out.data();
  const std::size_t whole = out.size() / kLanes * kLanes;
  auto expand = [](Lanes bits, std::uint8_t* to) {
    for (unsigned i = 0; i < 8; ++i) std::memcpy(to + 8 * i, &kExpand[(bits >> (8 * i)) & 0xFFu], 8);
  };
  for (std::size_t base = 0; base < whole; base += kLanes) expand(rows[base], bytes + base);
  if (whole < out.size()) {
    std::array<std::uint8_t, kLanes> tail;
    expand(rows[whole], tail.data());
    std::memcpy(bytes + whole, tail.data(), out.size() - whole);
  }
}

LogicSimulator::State LogicSimulator::save() const { return {values_, pending_, activated_, cycle_}; }

void LogicSimulator::restore(const State& state) {
  TE_REQUIRE(state.values.size() == values_.size() && state.activated.size() == activated_.size(),
             "simulator state of another netlist");
  values_ = state.values;
  pending_ = state.pending_inputs;
  activated_ = state.activated;
  cycle_ = state.cycle;
  live_ = 1;
  transposed_ready_ = false;
}

std::uint64_t LogicSimulator::settle() {
  Lanes* v = values_.data();
  Lanes* act = activated_.data();
  const Lanes live = live_;
  std::uint64_t toggles = 0;
  for (const LaneGate& g : program_) {
    const Lanes a = v[g.fanin[0]];
    const Lanes b = v[g.fanin[1]];
    const Lanes c = v[g.fanin[2]];
    const Lanes y = a ^ b;
    const Lanes out = mask(g.k) ^ (a & b & mask(g.mx)) ^ (y & mask(g.my)) ^ (a & mask(g.ma)) ^ (y & c);
    // Activation per Def. 3.2: the settled value differs from the last
    // cycle's, which this gate's slot still holds.
    const Lanes flip = v[g.out] ^ out;
    v[g.out] = out;
    act[g.out] = flip;
    toggles += count_lanes(flip & live);
  }
  // Primary outputs mirror their driver.
  for (GateId id : outputs_) {
    const Lanes out = v[nl_.gate(id).fanin[0]];
    act[id] = v[id] ^ out;
    toggles += count_lanes(act[id] & live);
    v[id] = out;
  }
  return toggles;
}

void LogicSimulator::step() {
  Lanes* v = values_.data();
  Lanes* act = activated_.data();
  const Lanes live = live_;
  std::uint64_t toggles = 0;
  // 1. Flip-flops capture their data input's previous settled value.  All
  // read before any writes, since a flip-flop may feed another directly.
  for (std::size_t i = 0; i < dffs_.size(); ++i) captured_[i] = v[dff_inputs_[i]];
  for (std::size_t i = 0; i < dffs_.size(); ++i) {
    const GateId id = dffs_[i];
    act[id] = v[id] ^ captured_[i];
    toggles += count_lanes(act[id] & live);
    v[id] = captured_[i];
  }
  // 2. Primary inputs take their newly driven values.
  for (GateId id : inputs_) {
    act[id] = v[id] ^ pending_[id];
    toggles += count_lanes(act[id] & live);
    v[id] = pending_[id];
  }
  // 3. Combinational logic settles.
  toggles += settle();
  ++cycle_;
  transposed_ready_ = false;

  static obs::Counter& cycles_metric = obs::MetricsRegistry::instance().counter("sim.cycles");
  static obs::Counter& toggles_metric =
      obs::MetricsRegistry::instance().counter("sim.gate_toggles");
  cycles_metric.increment(count_lanes(live));
  toggles_metric.increment(toggles);
}

}  // namespace terrors::sim
