#include "isa/program.hpp"

#include "support/check.hpp"

namespace terrors::isa {

BlockId Program::add_block(BasicBlock block) {
  const auto id = static_cast<BlockId>(blocks_.size());
  blocks_.push_back(std::move(block));
  return id;
}

const BasicBlock& Program::block(BlockId id) const {
  TE_REQUIRE(id < blocks_.size(), "block id out of range");
  return blocks_[id];
}

BasicBlock& Program::block(BlockId id) {
  TE_REQUIRE(id < blocks_.size(), "block id out of range");
  return blocks_[id];
}

void Program::set_entry(BlockId id) {
  TE_REQUIRE(id < blocks_.size(), "entry block out of range");
  entry_ = id;
}

void Program::validate() const {
  TE_REQUIRE(entry_ != kNoBlock, "program has no entry block");
  TE_REQUIRE(entry_ < blocks_.size(), "entry block out of range");
  bool has_exit = false;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const BasicBlock& b = blocks_[i];
    TE_REQUIRE(!b.instructions.empty(), "empty basic block " + std::to_string(i));
    TE_REQUIRE(b.taken == kNoBlock || b.taken < blocks_.size(), "taken target out of range");
    TE_REQUIRE(b.fallthrough == kNoBlock || b.fallthrough < blocks_.size(),
               "fallthrough target out of range");
    const Opcode term = b.instructions.back().op;
    for (std::size_t k = 0; k + 1 < b.instructions.size(); ++k)
      TE_REQUIRE(!is_branch(b.instructions[k].op),
                 "branch in the middle of block " + std::to_string(i));
    if (is_conditional_branch(term)) {
      TE_REQUIRE(b.taken != kNoBlock && b.fallthrough != kNoBlock,
                 "conditional terminator needs both successors in block " + std::to_string(i));
    } else if (term == Opcode::kJmp) {
      TE_REQUIRE(b.taken != kNoBlock && b.fallthrough == kNoBlock,
                 "jmp needs exactly a taken successor in block " + std::to_string(i));
    } else {
      TE_REQUIRE(b.taken == kNoBlock, "non-branch block cannot have a taken successor");
    }
    if (b.is_exit()) has_exit = true;
  }
  TE_REQUIRE(has_exit, "program has no exit block");
}

std::string Program::to_string() const {
  std::string s = "program " + name_ + " (entry B" + std::to_string(entry_) + ")\n";
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    s += "B" + std::to_string(i) + ":\n";
    for (const auto& inst : blocks_[i].instructions) s += "  " + isa::to_string(inst) + "\n";
    if (blocks_[i].taken != kNoBlock) s += "  -> taken B" + std::to_string(blocks_[i].taken) + "\n";
    if (blocks_[i].fallthrough != kNoBlock)
      s += "  -> fall B" + std::to_string(blocks_[i].fallthrough) + "\n";
  }
  return s;
}

}  // namespace terrors::isa
