#include <gtest/gtest.h>

#include "isa/cfg.hpp"
#include "isa/executor.hpp"
#include "isa/isa.hpp"
#include "isa/assembler.hpp"
#include "isa/program.hpp"
#include "robust/error.hpp"

namespace terrors::isa {
namespace {

Instruction make(Opcode op, int rd = 0, int rs1 = 0, int rs2 = 0, int imm = 0) {
  Instruction i;
  i.op = op;
  i.rd = static_cast<std::uint8_t>(rd);
  i.rs1 = static_cast<std::uint8_t>(rs1);
  i.rs2 = static_cast<std::uint8_t>(rs2);
  i.imm = imm;
  return i;
}

/// A counted loop:
///   B0: movi r1, 5; movi r2, 0
///   B1: addi r2, r2, 3; subi r1, r1, 1; bne r1, r0 -> B1, else B2
///   B2: st r2; (exit)
Program counted_loop() {
  Program p("loop");
  BasicBlock b0;
  b0.instructions = {make(Opcode::kMovi, 1, 0, 0, 5), make(Opcode::kMovi, 2, 0, 0, 0)};
  BasicBlock b1;
  b1.instructions = {make(Opcode::kAddi, 2, 2, 0, 3), make(Opcode::kSubi, 1, 1, 0, 1),
                     make(Opcode::kBne, 0, 1, 0)};
  BasicBlock b2;
  b2.instructions = {make(Opcode::kSt, 0, 0, 2, 16)};
  const BlockId i0 = p.add_block(b0);
  const BlockId i1 = p.add_block(b1);
  const BlockId i2 = p.add_block(b2);
  p.block(i0).fallthrough = i1;
  p.block(i1).taken = i1;
  p.block(i1).fallthrough = i2;
  p.set_entry(i0);
  return p;
}

TEST(Isa, Predicates) {
  EXPECT_TRUE(is_branch(Opcode::kBeq));
  EXPECT_TRUE(is_branch(Opcode::kJmp));
  EXPECT_FALSE(is_conditional_branch(Opcode::kJmp));
  EXPECT_TRUE(uses_immediate(Opcode::kAddi));
  EXPECT_FALSE(uses_immediate(Opcode::kAdd));
  EXPECT_FALSE(writes_register(Opcode::kSt));
  EXPECT_TRUE(writes_register(Opcode::kLd));
  EXPECT_EQ(ex_unit(Opcode::kBeq), ExUnit::kCompare);
  EXPECT_EQ(ex_unit(Opcode::kSll), ExUnit::kShifter);
}

TEST(Isa, EncodeIsInjectiveOnFields) {
  const auto w1 = encode(make(Opcode::kAdd, 1, 2, 3));
  const auto w2 = encode(make(Opcode::kAdd, 1, 2, 4));
  const auto w3 = encode(make(Opcode::kSub, 1, 2, 3));
  EXPECT_NE(w1, w2);
  EXPECT_NE(w1, w3);
  EXPECT_EQ(w1 >> 26, static_cast<std::uint32_t>(Opcode::kAdd));
}

TEST(Program, ValidateAcceptsWellFormed) { EXPECT_NO_THROW(counted_loop().validate()); }

TEST(Program, ValidateRejectsMissingSuccessor) {
  Program p("bad");
  BasicBlock b;
  b.instructions = {make(Opcode::kBne, 0, 1, 2)};
  const BlockId id = p.add_block(b);
  p.block(id).taken = id;  // missing fallthrough
  p.set_entry(id);
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Program, ValidateRejectsBranchInMiddle) {
  Program p("bad2");
  BasicBlock b;
  b.instructions = {make(Opcode::kJmp), make(Opcode::kNop)};
  BasicBlock exit_b;
  exit_b.instructions = {make(Opcode::kNop)};
  const BlockId id = p.add_block(b);
  const BlockId e = p.add_block(exit_b);
  p.block(id).taken = e;
  p.set_entry(id);
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Cfg, PredecessorsAndSuccessors) {
  const Program p = counted_loop();
  const Cfg cfg(p);
  EXPECT_EQ(cfg.successors(0).size(), 1u);
  ASSERT_EQ(cfg.predecessors(1).size(), 2u);  // B0 fall-through + self loop
  EXPECT_EQ(cfg.predecessors(2).size(), 1u);
  EXPECT_EQ(cfg.indegree(0), 0u);
}

TEST(Cfg, SccOfLoop) {
  const Program p = counted_loop();
  const Cfg cfg(p);
  // B1 forms a cyclic SCC by itself; B0 and B2 are acyclic singletons.
  EXPECT_NE(cfg.scc_of(0), cfg.scc_of(1));
  EXPECT_NE(cfg.scc_of(1), cfg.scc_of(2));
  EXPECT_TRUE(cfg.scc_is_cyclic(cfg.scc_of(1)));
  EXPECT_FALSE(cfg.scc_is_cyclic(cfg.scc_of(0)));
}

TEST(Cfg, TopologicalOrderRespectsEdges) {
  const Program p = counted_loop();
  const Cfg cfg(p);
  std::vector<int> pos(cfg.scc_count(), -1);
  int idx = 0;
  for (auto scc : cfg.scc_topo_order()) pos[scc] = idx++;
  // Every CFG edge goes from an earlier or equal SCC position.
  for (BlockId b = 0; b < cfg.block_count(); ++b) {
    for (BlockId s : cfg.successors(b)) {
      if (cfg.scc_of(b) != cfg.scc_of(s)) {
        EXPECT_LT(pos[cfg.scc_of(b)], pos[cfg.scc_of(s)]);
      }
    }
  }
}

TEST(Cfg, LargerGraphSccs) {
  // Two nested loops plus an exit: B0 -> B1 <-> B2, B1 -> B3.
  Program p("nested");
  BasicBlock blocks[4];
  blocks[0].instructions = {make(Opcode::kMovi, 1, 0, 0, 3)};
  blocks[1].instructions = {make(Opcode::kSubi, 1, 1, 0, 1), make(Opcode::kBne, 0, 1, 0)};
  blocks[2].instructions = {make(Opcode::kJmp)};
  blocks[3].instructions = {make(Opcode::kNop)};
  for (auto& b : blocks) p.add_block(b);
  p.block(0).fallthrough = 1;
  p.block(1).taken = 2;
  p.block(1).fallthrough = 3;
  p.block(2).taken = 1;
  p.set_entry(0);
  p.validate();
  const Cfg cfg(p);
  EXPECT_EQ(cfg.scc_of(1), cfg.scc_of(2));
  EXPECT_TRUE(cfg.scc_is_cyclic(cfg.scc_of(1)));
  EXPECT_EQ(cfg.scc_count(), 3u);
}

TEST(Executor, CountedLoopExecutesCorrectly) {
  const Program p = counted_loop();
  const Cfg cfg(p);
  Executor ex(p, cfg);
  const std::uint64_t n = ex.run({});
  // 2 (B0) + 5 * 3 (B1) + 1 (B2) = 18 instructions.
  EXPECT_EQ(n, 18u);
  const auto& prof = ex.profile();
  EXPECT_EQ(prof.blocks[0].executions, 1u);
  EXPECT_EQ(prof.blocks[1].executions, 5u);
  EXPECT_EQ(prof.blocks[2].executions, 1u);
  // Edge activation of B1: 4 of 5 entries via the self loop.
  const auto& preds = cfg.predecessors(1);
  for (std::size_t j = 0; j < preds.size(); ++j) {
    const double pa = prof.edge_activation(1, j);
    if (preds[j].from == 1) {
      EXPECT_NEAR(pa, 0.8, 1e-12);
    } else {
      EXPECT_NEAR(pa, 0.2, 1e-12);
    }
  }
}

TEST(Executor, SampledContextsTrackDataflow) {
  const Program p = counted_loop();
  const Cfg cfg(p);
  Executor ex(p, cfg);
  ex.run({});
  const auto& prof = ex.profile();
  // The entry sample of B0 exists and has a context per instruction.
  ASSERT_EQ(prof.blocks[0].entry_samples.samples.size(), 1u);
  const auto& s0 = prof.blocks[0].entry_samples.samples[0];
  ASSERT_EQ(s0.instrs.size(), 2u);
  EXPECT_EQ(s0.instrs[0].result, 5u);  // movi r1, 5
  // First instruction of the program follows the flushed state.
  EXPECT_EQ(s0.instrs[0].prev.op, Opcode::kNop);
  // Some sample of B1 must show the addi accumulating by 3.
  bool found = false;
  for (const auto& es : prof.blocks[1].edge_samples) {
    for (const auto& s : es.samples) {
      if (!s.instrs.empty() && s.instrs[0].cur.op == Opcode::kAddi) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Executor, ChainsPrevContextAcrossBlocks) {
  const Program p = counted_loop();
  const Cfg cfg(p);
  Executor ex(p, cfg);
  ex.run({});
  const auto& prof = ex.profile();
  // B2's only instruction follows B1's bne.
  const auto& preds = cfg.predecessors(2);
  ASSERT_EQ(preds.size(), 1u);
  ASSERT_FALSE(prof.blocks[2].edge_samples[0].samples.empty());
  const auto& s = prof.blocks[2].edge_samples[0].samples[0];
  EXPECT_EQ(s.instrs[0].prev.op, Opcode::kBne);
}

TEST(Executor, BudgetGuardStopsRunawayLoops) {
  Program p("forever");
  BasicBlock b;
  b.instructions = {make(Opcode::kAddi, 1, 1, 0, 1), make(Opcode::kJmp)};
  BasicBlock e;
  e.instructions = {make(Opcode::kNop)};
  const BlockId id = p.add_block(b);
  const BlockId eid = p.add_block(e);
  p.block(id).taken = id;
  // Unreachable exit keeps validate() happy; the loop itself never exits.
  (void)eid;
  p.set_entry(id);
  const Cfg cfg(p);
  ExecutorConfig cfgx;
  cfgx.max_instructions = 1000;
  Executor ex(p, cfg, cfgx);
  EXPECT_EQ(ex.run({}), 1000u);
}

TEST(Executor, MemoryRoundTrip) {
  Program p("mem");
  BasicBlock b;
  b.instructions = {make(Opcode::kMovi, 1, 0, 0, 1234), make(Opcode::kSt, 0, 0, 1, 64),
                    make(Opcode::kLd, 2, 0, 0, 64)};
  p.add_block(b);
  p.set_entry(0);
  const Cfg cfg(p);
  Executor ex(p, cfg);
  ex.run({});
  const auto& s = ex.profile().blocks[0].entry_samples.samples[0];
  EXPECT_EQ(s.instrs[2].result, 1234u);  // ld reads what st wrote
}

TEST(Executor, DeterministicAcrossRunsWithSameInput) {
  const Program p = counted_loop();
  const Cfg cfg(p);
  Executor a(p, cfg);
  Executor b(p, cfg);
  EXPECT_EQ(a.run({}), b.run({}));
  EXPECT_EQ(a.profile().blocks[1].executions, b.profile().blocks[1].executions);
}

TEST(Executor, MultipleRunsAccumulate) {
  const Program p = counted_loop();
  const Cfg cfg(p);
  Executor ex(p, cfg);
  ex.run({});
  ex.run({});
  EXPECT_EQ(ex.profile().runs, 2u);
  EXPECT_EQ(ex.profile().blocks[1].executions, 10u);
}

// --- assembler -----------------------------------------------------------------

TEST(Assembler, CountedLoopRoundTrip) {
  const Program p = assemble(R"(
      ; counted loop, equivalent to the hand-built fixture
      movi r1, 5
      movi r2, 0
    loop:
      addi r2, r2, 3
      subi r1, r1, 1
      bne  r1, r0, loop
      st   r2, r0, 16
      halt
  )");
  const Cfg cfg(p);
  Executor ex(p, cfg);
  EXPECT_EQ(ex.run({}), 18u);
  EXPECT_EQ(ex.profile().blocks[1].executions, 5u);
}

TEST(Assembler, LabelsJumpAndHex) {
  const Program p = assemble(R"(
    start:
      movi r8, 0x10
      jmp end
    dead:
      addi r8, r8, 1
    end:
      st r8, r0, 0
      halt
  )");
  p.validate();
  const Cfg cfg(p);
  Executor ex(p, cfg);
  ex.run({});
  // The 'dead' block is never executed.
  EXPECT_EQ(ex.profile().blocks[1].executions, 0u);
  EXPECT_EQ(ex.profile().blocks[2].executions, 1u);
  const auto& sample = ex.profile().blocks[2].edge_samples;
  (void)sample;
  // movi wrote 0x10.
  EXPECT_EQ(ex.profile().blocks[0].entry_samples.samples[0].instrs[0].result, 0x10u);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  try {
    (void)assemble("movi r1, 1\nbogus r1, r2, r3\n");
    FAIL() << "expected throw";
  } catch (const terrors::robust::Error& e) {
    EXPECT_EQ(e.category(), terrors::robust::Category::kInput);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW((void)assemble("beq r1, r2, nowhere\nhalt\n"), terrors::robust::Error);
  EXPECT_THROW((void)assemble("movi r99, 1\nhalt\n"), terrors::robust::Error);
  EXPECT_THROW((void)assemble("movi r99999999999, 1\nhalt\n"), terrors::robust::Error);
  EXPECT_THROW((void)assemble("movi r1, 999999\nhalt\n"), terrors::robust::Error);
}

TEST(Assembler, StOperandOrder) {
  const Program p = assemble(R"(
      movi r5, 77
      st   r5, r0, 128
      ld   r6, r0, 128
      halt
  )");
  const Cfg cfg(p);
  Executor ex(p, cfg);
  ex.run({});
  EXPECT_EQ(ex.profile().blocks[0].entry_samples.samples[0].instrs[2].result, 77u);
}

TEST(Assembler, ListingRoundTripsThroughToString) {
  const Program p = assemble("movi r1, 3\naddi r1, r1, 1\nhalt\n");
  const std::string listing = p.to_string();
  EXPECT_NE(listing.find("movi"), std::string::npos);
  EXPECT_NE(listing.find("addi"), std::string::npos);
}

}  // namespace
}  // namespace terrors::isa
