#include "isa/executor.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "support/check.hpp"

namespace terrors::isa {

double ProgramProfile::edge_activation(BlockId b, std::size_t j) const {
  TE_REQUIRE(b < blocks.size(), "block out of range");
  const BlockProfile& bp = blocks[b];
  TE_REQUIRE(j < bp.edge_counts.size(), "edge index out of range");
  std::uint64_t total = 0;
  for (std::uint64_t c : bp.edge_counts) total += c;
  if (total == 0) return 0.0;
  return static_cast<double>(bp.edge_counts[j]) / static_cast<double>(total);
}

Executor::Executor(const Program& program, const Cfg& cfg, ExecutorConfig config)
    : program_(program), cfg_(cfg), config_(config), sample_rng_(config.sampling_seed) {
  program.validate();
  TE_REQUIRE(cfg.block_count() == program.block_count(), "CFG does not match program");
  TE_REQUIRE(config.memory_words > 0, "empty memory");
  profile_.blocks.resize(program.block_count());
  for (BlockId b = 0; b < program.block_count(); ++b) {
    profile_.blocks[b].edge_counts.assign(cfg.indegree(b), 0);
    profile_.blocks[b].edge_samples.resize(cfg.indegree(b));
  }
  // Virtual code layout: blocks placed consecutively, 4 bytes/instruction.
  block_pc_.resize(program.block_count());
  std::uint32_t pc = 0x1000;
  for (BlockId b = 0; b < program.block_count(); ++b) {
    block_pc_[b] = pc;
    pc += static_cast<std::uint32_t>(program.block(b).size()) * 4u;
  }
  // Locate every traversable edge among its successor's predecessors once,
  // so block transitions at run time are a table lookup.
  auto edge_index = [&](BlockId from, BlockId to, bool via_taken) -> std::int32_t {
    if (to == kNoBlock) return -1;
    const auto& preds = cfg.predecessors(to);
    for (std::size_t j = 0; j < preds.size(); ++j) {
      if (preds[j].from == from && preds[j].via_taken == via_taken)
        return static_cast<std::int32_t>(j);
    }
    TE_CHECK(false, "edge missing from CFG");
    return -1;
  };
  out_edges_.resize(program.block_count());
  for (BlockId b = 0; b < program.block_count(); ++b) {
    const BasicBlock& blk = program.block(b);
    out_edges_[b] = {edge_index(b, blk.taken, true), edge_index(b, blk.fallthrough, false)};
  }
}

namespace {

/// The ISA predicates the interpreter needs per instruction, tabulated
/// once per opcode from isa.cpp.
struct OpcodeDecode {
  ExUnit unit = ExUnit::kNone;
  bool immediate = false;
  bool writes = false;
};

const std::array<OpcodeDecode, kOpcodeCount>& opcode_decode() {
  static const std::array<OpcodeDecode, kOpcodeCount> table = [] {
    std::array<OpcodeDecode, kOpcodeCount> t{};
    for (int i = 0; i < kOpcodeCount; ++i) {
      const auto op = static_cast<Opcode>(i);
      t[static_cast<std::size_t>(i)] = {ex_unit(op), uses_immediate(op), writes_register(op)};
    }
    return t;
  }();
  return table;
}

std::uint32_t memory_init(std::uint64_t seed, std::uint32_t addr) {
  // Word `addr` of the initial memory image: a stateless splitmix64-style
  // hash of (seed, addr), so every run with the same seed starts from the
  // same image.
  std::uint64_t x = seed ^ (0x9E3779B97F4A7C15ull * (addr + 1));
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::uint32_t>(x ^ (x >> 31));
}

}  // namespace

void Executor::adopt(ProgramProfile profile) {
  TE_REQUIRE(profile_.runs == 0, "adopt() needs an executor that has not run");
  TE_REQUIRE(profile.blocks.size() == program_.block_count(), "profile/program mismatch");
  profile_ = std::move(profile);
}

std::uint64_t Executor::run(const ProgramInput& input) {
  TE_REQUIRE(input.registers.size() <= kRegisterCount, "too many initial registers");

  std::array<std::uint32_t, kRegisterCount> regs{};
  for (std::size_t i = 0; i < input.registers.size(); ++i) regs[i] = input.registers[i];
  regs[0] = 0;

  std::vector<std::uint32_t> memory(config_.memory_words);
  for (std::uint32_t a = 0; a < memory.size(); ++a) memory[a] = memory_init(input.memory_seed, a);

  std::uint64_t executed = 0;
  std::vector<BlockTraceStep>* trace = nullptr;
  if (config_.record_block_trace) {
    profile_.block_traces.emplace_back();
    trace = &profile_.block_traces.back();
  }
  BlockId current = program_.entry();
  // -1 encodes "entered as program start"; otherwise the index of the
  // traversed incoming edge in Cfg::predecessors(current).
  std::ptrdiff_t incoming_edge = -1;
  ExContext prev_ex{};  // flushed state at program start (the paper's p_in = 1)
  const std::array<OpcodeDecode, kOpcodeCount>& decode = opcode_decode();

  while (current != kNoBlock && executed < config_.max_instructions) {
    const BasicBlock& blk = program_.block(current);
    BlockProfile& bp = profile_.blocks[current];
    ++bp.executions;
    if (trace != nullptr) trace->push_back({current, static_cast<std::int32_t>(incoming_edge)});
    EdgeSamples* reservoir = nullptr;
    if (incoming_edge < 0) {
      ++bp.entry_count;
      reservoir = &bp.entry_samples;
    } else {
      ++bp.edge_counts[static_cast<std::size_t>(incoming_edge)];
      reservoir = &bp.edge_samples[static_cast<std::size_t>(incoming_edge)];
    }

    // Reservoir decision: pick the slot before executing so we only pay
    // for context recording when the execution will be kept.
    ++reservoir->seen;
    std::size_t slot = config_.samples_per_edge;  // means "do not record"
    if (reservoir->samples.size() < config_.samples_per_edge) {
      slot = reservoir->samples.size();
      reservoir->samples.emplace_back();
    } else {
      const std::uint64_t j = sample_rng_.uniform_index(reservoir->seen);
      if (j < config_.samples_per_edge) slot = static_cast<std::size_t>(j);
    }
    BlockSample* sample = slot < config_.samples_per_edge ? &reservoir->samples[slot] : nullptr;
    if (sample != nullptr) {
      sample->instrs.clear();
      sample->instrs.reserve(blk.size());
    }

    bool branch_taken = false;
    for (std::size_t k = 0; k < blk.instructions.size(); ++k) {
      const Instruction& inst = blk.instructions[k];
      const std::uint32_t ra = regs[inst.rs1];
      const std::uint32_t rb = regs[inst.rs2];
      const std::uint32_t bimm = static_cast<std::uint32_t>(inst.imm);
      const OpcodeDecode& d = decode[static_cast<std::size_t>(inst.op)];

      ExContext cur;
      cur.op = inst.op;
      cur.unit = d.unit;
      cur.a = ra;
      cur.b = d.immediate ? bimm : rb;
      std::uint32_t result = 0;
      switch (inst.op) {
        case Opcode::kNop:
          cur.a = 0;
          cur.b = 0;
          break;
        case Opcode::kAdd:
        case Opcode::kAddi:
          result = cur.a + cur.b;
          break;
        case Opcode::kSub:
        case Opcode::kSubi:
          result = cur.a - cur.b;
          break;
        case Opcode::kAnd:
        case Opcode::kAndi:
          result = cur.a & cur.b;
          break;
        case Opcode::kOr:
        case Opcode::kOri:
          result = cur.a | cur.b;
          break;
        case Opcode::kXor:
        case Opcode::kXori:
          result = cur.a ^ cur.b;
          break;
        case Opcode::kNot:
          result = ~cur.a;
          break;
        case Opcode::kSll:
        case Opcode::kSlli:
          result = cur.a << (cur.b & 31u);
          break;
        case Opcode::kSrl:
        case Opcode::kSrli:
          result = cur.a >> (cur.b & 31u);
          break;
        case Opcode::kMovi:
          cur.a = 0;
          result = bimm;
          break;
        case Opcode::kLd: {
          const std::uint32_t addr = (cur.a + cur.b) % config_.memory_words;
          result = memory[addr];
          break;
        }
        case Opcode::kSt: {
          const std::uint32_t addr = (cur.a + cur.b) % config_.memory_words;
          // The stored value rides the B bus architecturally; the EX adder
          // computes the address, which cur.a/cur.b already describe.
          memory[addr] = rb;
          break;
        }
        case Opcode::kBeq:
          branch_taken = ra == rb;
          cur.b = rb;
          break;
        case Opcode::kBne:
          branch_taken = ra != rb;
          cur.b = rb;
          break;
        case Opcode::kBlt:
          branch_taken = ra < rb;
          cur.b = rb;
          break;
        case Opcode::kBge:
          branch_taken = ra >= rb;
          cur.b = rb;
          break;
        case Opcode::kJmp:
          branch_taken = true;
          break;
      }
      if (d.writes && inst.rd != 0) regs[inst.rd] = result;

      if (sample != nullptr) {
        InstrDynContext ctx;
        ctx.cur = cur;
        ctx.prev = prev_ex;
        ctx.result = result;
        ctx.pc = block_pc_[current] + static_cast<std::uint32_t>(k) * 4u;
        sample->instrs.push_back(ctx);
      }
      prev_ex = cur;
      ++executed;
      if (executed >= config_.max_instructions) break;
    }

    // Control transfer.
    const BlockId next = branch_taken ? blk.taken : blk.fallthrough;
    if (next == kNoBlock) break;
    const OutEdges& out = out_edges_[current];
    incoming_edge = branch_taken ? out.taken : out.fallthrough;
    current = next;
  }

  profile_.total_instructions += executed;
  ++profile_.runs;
  return executed;
}

}  // namespace terrors::isa
