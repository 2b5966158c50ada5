// Program representation: a control-flow graph of basic blocks, each a
// straight-line instruction sequence ended by an (implicit fall-through or
// explicit branch) terminator — the unit at which the paper characterises
// the control network and solves for marginal error probabilities.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "isa/isa.hpp"

namespace terrors::isa {

using BlockId = std::uint32_t;
inline constexpr BlockId kNoBlock = 0xFFFFFFFFu;

struct BasicBlock {
  std::vector<Instruction> instructions;  ///< terminator (if any) last
  /// Successor on a taken conditional branch / unconditional jump.
  BlockId taken = kNoBlock;
  /// Fall-through successor (conditional branch not taken, or no branch).
  BlockId fallthrough = kNoBlock;

  [[nodiscard]] bool is_exit() const { return taken == kNoBlock && fallthrough == kNoBlock; }
  [[nodiscard]] std::size_t size() const { return instructions.size(); }
};

class Program {
 public:
  explicit Program(std::string name = "program") : name_(std::move(name)) {}

  BlockId add_block(BasicBlock block);
  [[nodiscard]] const BasicBlock& block(BlockId id) const;
  [[nodiscard]] BasicBlock& block(BlockId id);
  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }

  void set_entry(BlockId id);
  [[nodiscard]] BlockId entry() const { return entry_; }

  /// Checks structural sanity: entry set, successor ids valid, conditional
  /// terminators have both successors, non-branch blocks have at most a
  /// fall-through, at least one exit block reachable.  Throws on violation.
  void validate() const;

  /// Human-readable listing.
  [[nodiscard]] std::string to_string() const;

 private:
  std::string name_;
  std::vector<BasicBlock> blocks_;
  BlockId entry_ = kNoBlock;
};

}  // namespace terrors::isa
