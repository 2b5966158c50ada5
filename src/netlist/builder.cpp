#include "netlist/builder.hpp"

#include <cmath>

#include "support/check.hpp"

namespace terrors::netlist {

NetlistBuilder::NetlistBuilder(support::Rng rng) : rng_(rng) {}

void NetlistBuilder::set_delay_jitter(double frac) {
  TE_REQUIRE(frac >= 0.0 && frac < 1.0, "jitter fraction out of range");
  jitter_ = frac;
}

void NetlistBuilder::begin_component(std::uint8_t stage, float x, float y, float spread) {
  stage_ = stage;
  cx_ = x;
  cy_ = y;
  spread_ = spread;
}

GateId NetlistBuilder::add_placed(GateKind kind, std::array<GateId, 3> fanin) {
  const GateId id = nl_.add(kind, fanin, stage_);
  const float dx = static_cast<float>(rng_.uniform(-spread_, spread_));
  const float dy = static_cast<float>(rng_.uniform(-spread_, spread_));
  nl_.set_placement(id, cx_ + dx, cy_ + dy);
  if (jitter_ > 0.0 && info(kind).combinational) {
    Gate& g = nl_.gate(id);
    g.delay_ps *= static_cast<float>(1.0 + rng_.uniform(-jitter_, jitter_));
  }
  return id;
}

GateId NetlistBuilder::input(const std::string& name) {
  const GateId id = add_placed(GateKind::kInput, {kNoGate, kNoGate, kNoGate});
  nl_.set_name(id, name);
  return id;
}

Word NetlistBuilder::input_word(const std::string& name, int width) {
  TE_REQUIRE(width > 0, "word width must be positive");
  Word w;
  w.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) w.push_back(input(name + "[" + std::to_string(i) + "]"));
  return w;
}

GateId NetlistBuilder::constant(bool value) {
  return add_placed(value ? GateKind::kConst1 : GateKind::kConst0, {kNoGate, kNoGate, kNoGate});
}

Word NetlistBuilder::constant_word(std::uint64_t value, int width) {
  TE_REQUIRE(width > 0 && width <= 64, "constant width out of range");
  Word w;
  w.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) w.push_back(constant(((value >> i) & 1ull) != 0));
  return w;
}

GateId NetlistBuilder::dff(const std::string& name, EndpointClass cls) {
  const GateId id = add_placed(GateKind::kDff, {kNoGate, kNoGate, kNoGate});
  nl_.set_name(id, name);
  nl_.set_endpoint_class(id, cls);
  return id;
}

Word NetlistBuilder::dff_word(const std::string& name, int width, EndpointClass cls) {
  TE_REQUIRE(width > 0, "word width must be positive");
  Word w;
  w.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) w.push_back(dff(name + "[" + std::to_string(i) + "]", cls));
  return w;
}

GateId NetlistBuilder::output(const std::string& name, GateId driver, EndpointClass cls) {
  const GateId id = add_placed(GateKind::kOutput, {driver, kNoGate, kNoGate});
  nl_.set_name(id, name);
  nl_.set_endpoint_class(id, cls);
  return id;
}

void NetlistBuilder::connect(GateId dff_gate, GateId driver) {
  TE_REQUIRE(nl_.gate(dff_gate).kind == GateKind::kDff, "connect() targets flip-flops");
  nl_.set_fanin(dff_gate, 0, driver);
}

void NetlistBuilder::connect_word(const Word& dffs, const Word& drivers) {
  TE_REQUIRE(dffs.size() == drivers.size(), "word width mismatch in connect_word");
  for (std::size_t i = 0; i < dffs.size(); ++i) connect(dffs[i], drivers[i]);
}

GateId NetlistBuilder::gate(GateKind kind, GateId a, GateId b, GateId c) {
  return add_placed(kind, {a, b, c});
}

Word NetlistBuilder::not_word(const Word& a) {
  Word out;
  out.reserve(a.size());
  for (GateId g : a) out.push_back(gate(GateKind::kInv, g));
  return out;
}

namespace {
void require_same_width(const Word& a, const Word& b) {
  TE_REQUIRE(a.size() == b.size(), "word width mismatch");
}
}  // namespace

Word NetlistBuilder::and_word(const Word& a, const Word& b) {
  require_same_width(a, b);
  Word out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(gate(GateKind::kAnd2, a[i], b[i]));
  return out;
}

Word NetlistBuilder::or_word(const Word& a, const Word& b) {
  require_same_width(a, b);
  Word out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(gate(GateKind::kOr2, a[i], b[i]));
  return out;
}

Word NetlistBuilder::xor_word(const Word& a, const Word& b) {
  require_same_width(a, b);
  Word out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(gate(GateKind::kXor2, a[i], b[i]));
  return out;
}

Word NetlistBuilder::mux_word(const Word& a, const Word& b, GateId sel) {
  require_same_width(a, b);
  Word out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(gate(GateKind::kMux2, a[i], b[i], sel));
  return out;
}

NetlistBuilder::AdderResult NetlistBuilder::ripple_adder(const Word& a, const Word& b,
                                                         GateId carry_in) {
  require_same_width(a, b);
  TE_REQUIRE(!a.empty(), "adder width must be positive");
  GateId carry = carry_in == kNoGate ? constant(false) : carry_in;
  Word sum;
  sum.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Full adder: s = a ^ b ^ c;  cout = (a & b) | (c & (a ^ b)).
    const GateId axb = gate(GateKind::kXor2, a[i], b[i]);
    sum.push_back(gate(GateKind::kXor2, axb, carry));
    const GateId g1 = gate(GateKind::kAnd2, a[i], b[i]);
    const GateId g2 = gate(GateKind::kAnd2, carry, axb);
    carry = gate(GateKind::kOr2, g1, g2);
  }
  return {std::move(sum), carry};
}

NetlistBuilder::AdderResult NetlistBuilder::carry_select_adder(const Word& a, const Word& b,
                                                               int block, GateId carry_in) {
  require_same_width(a, b);
  TE_REQUIRE(!a.empty(), "adder width must be positive");
  TE_REQUIRE(block >= 1, "block size must be positive");
  GateId carry = carry_in == kNoGate ? constant(false) : carry_in;
  Word sum;
  sum.reserve(a.size());
  for (std::size_t base = 0; base < a.size(); base += static_cast<std::size_t>(block)) {
    const std::size_t end = std::min(a.size(), base + static_cast<std::size_t>(block));
    const Word asec(a.begin() + static_cast<std::ptrdiff_t>(base),
                    a.begin() + static_cast<std::ptrdiff_t>(end));
    const Word bsec(b.begin() + static_cast<std::ptrdiff_t>(base),
                    b.begin() + static_cast<std::ptrdiff_t>(end));
    const AdderResult zero = ripple_adder(asec, bsec, constant(false));
    const AdderResult one = ripple_adder(asec, bsec, constant(true));
    Word ssec = mux_word(zero.sum, one.sum, carry);
    sum.insert(sum.end(), ssec.begin(), ssec.end());
    carry = gate(GateKind::kMux2, zero.carry_out, one.carry_out, carry);
  }
  return {std::move(sum), carry};
}

Word NetlistBuilder::shift_left(const Word& a, const Word& amount) {
  TE_REQUIRE(!a.empty(), "shifter width must be positive");
  Word cur = a;
  const std::size_t levels =
      std::min<std::size_t>(amount.size(), static_cast<std::size_t>(std::ceil(
                                               std::log2(static_cast<double>(a.size())) + 0.5)));
  for (std::size_t lvl = 0; lvl < levels; ++lvl) {
    const std::size_t dist = std::size_t{1} << lvl;
    Word next;
    next.reserve(cur.size());
    for (std::size_t i = 0; i < cur.size(); ++i) {
      const GateId shifted = i >= dist ? cur[i - dist] : constant(false);
      next.push_back(gate(GateKind::kMux2, cur[i], shifted, amount[lvl]));
    }
    cur = std::move(next);
  }
  return cur;
}

Word NetlistBuilder::shift_right(const Word& a, const Word& amount) {
  TE_REQUIRE(!a.empty(), "shifter width must be positive");
  Word cur = a;
  const std::size_t levels =
      std::min<std::size_t>(amount.size(), static_cast<std::size_t>(std::ceil(
                                               std::log2(static_cast<double>(a.size())) + 0.5)));
  for (std::size_t lvl = 0; lvl < levels; ++lvl) {
    const std::size_t dist = std::size_t{1} << lvl;
    Word next;
    next.reserve(cur.size());
    for (std::size_t i = 0; i < cur.size(); ++i) {
      const GateId shifted = i + dist < cur.size() ? cur[i + dist] : constant(false);
      next.push_back(gate(GateKind::kMux2, cur[i], shifted, amount[lvl]));
    }
    cur = std::move(next);
  }
  return cur;
}

GateId NetlistBuilder::reduce(GateKind kind, const Word& a) {
  TE_REQUIRE(!a.empty(), "reduction of empty word");
  Word level = a;
  while (level.size() > 1) {
    Word next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2)
      next.push_back(gate(kind, level[i], level[i + 1]));
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return level[0];
}

GateId NetlistBuilder::or_reduce(const Word& a) { return reduce(GateKind::kOr2, a); }

GateId NetlistBuilder::and_reduce(const Word& a) { return reduce(GateKind::kAnd2, a); }

GateId NetlistBuilder::equals(const Word& a, const Word& b) {
  require_same_width(a, b);
  Word diff = xor_word(a, b);
  return gate(GateKind::kInv, or_reduce(diff));
}

Word NetlistBuilder::mux_tree(const std::vector<Word>& options, const Word& select) {
  TE_REQUIRE(!options.empty(), "mux tree needs options");
  TE_REQUIRE(options.size() == (std::size_t{1} << select.size()),
             "mux tree needs 2^select options");
  std::vector<Word> level = options;
  for (std::size_t s = 0; s < select.size(); ++s) {
    std::vector<Word> next;
    next.reserve(level.size() / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2)
      next.push_back(mux_word(level[i], level[i + 1], select[s]));
    level = std::move(next);
  }
  TE_CHECK(level.size() == 1, "mux tree did not reduce to one word");
  return level[0];
}

Word NetlistBuilder::decoder(const Word& select) {
  TE_REQUIRE(!select.empty() && select.size() <= 8, "decoder select width out of range");
  const std::size_t n = std::size_t{1} << select.size();
  Word inverted = not_word(select);
  Word out;
  out.reserve(n);
  for (std::size_t code = 0; code < n; ++code) {
    Word terms;
    terms.reserve(select.size());
    for (std::size_t b = 0; b < select.size(); ++b)
      terms.push_back(((code >> b) & 1u) != 0 ? select[b] : inverted[b]);
    out.push_back(and_reduce(terms));
  }
  return out;
}

Word NetlistBuilder::random_cloud(const Word& inputs, int width, int depth) {
  TE_REQUIRE(!inputs.empty(), "random cloud needs inputs");
  TE_REQUIRE(width > 0 && depth > 0, "cloud dimensions must be positive");
  static constexpr GateKind kinds[] = {GateKind::kAnd2, GateKind::kNand2, GateKind::kOr2,
                                       GateKind::kNor2, GateKind::kXor2,  GateKind::kXnor2,
                                       GateKind::kInv};
  Word prev = inputs;
  for (int d = 0; d < depth; ++d) {
    Word layer;
    layer.reserve(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
      const GateKind kind = kinds[rng_.uniform_index(std::size(kinds))];
      // Mostly consume the previous layer (to build depth), occasionally
      // reach back to the primary inputs (to create reconvergence).
      auto pick = [&]() -> GateId {
        if (d > 0 && rng_.uniform() < 0.15) return inputs[rng_.uniform_index(inputs.size())];
        return prev[rng_.uniform_index(prev.size())];
      };
      const GateId a = pick();
      if (info(kind).arity == 1) {
        layer.push_back(gate(kind, a));
      } else {
        layer.push_back(gate(kind, a, pick()));
      }
    }
    prev = std::move(layer);
  }
  return prev;
}

}  // namespace terrors::netlist
