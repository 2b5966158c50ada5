#include "isa/isa.hpp"

#include <array>

#include "support/check.hpp"

namespace terrors::isa {

bool is_branch(Opcode op) {
  switch (op) {
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kJmp:
      return true;
    default:
      return false;
  }
}

bool is_conditional_branch(Opcode op) { return is_branch(op) && op != Opcode::kJmp; }

bool uses_immediate(Opcode op) {
  switch (op) {
    case Opcode::kAddi:
    case Opcode::kSubi:
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kSlli:
    case Opcode::kSrli:
    case Opcode::kMovi:
    case Opcode::kLd:
    case Opcode::kSt:
      return true;
    default:
      return false;
  }
}

bool writes_register(Opcode op) {
  switch (op) {
    case Opcode::kNop:
    case Opcode::kSt:
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kJmp:
      return false;
    default:
      return true;
  }
}

std::string_view mnemonic(Opcode op) {
  static constexpr std::array<std::string_view, kOpcodeCount> names = {
      "nop", "add",  "sub",  "and",  "or",   "xor",  "not", "sll",
      "srl", "addi", "subi", "andi", "ori",  "xori", "slli", "srli",
      "movi", "ld",  "st",   "beq",  "bne",  "blt",  "bge", "jmp"};
  const auto idx = static_cast<std::size_t>(op);
  TE_REQUIRE(idx < names.size(), "unknown opcode");
  return names[idx];
}

std::string to_string(const Instruction& inst) {
  std::string s{mnemonic(inst.op)};
  s += " r" + std::to_string(inst.rd);
  s += ", r" + std::to_string(inst.rs1);
  if (uses_immediate(inst.op)) {
    s += ", " + std::to_string(inst.imm);
  } else {
    s += ", r" + std::to_string(inst.rs2);
  }
  return s;
}

std::uint32_t encode(const Instruction& inst) {
  const auto op = static_cast<std::uint32_t>(inst.op) & 0x3F;
  const auto rd = static_cast<std::uint32_t>(inst.rd) & 0x1F;
  const auto rs1 = static_cast<std::uint32_t>(inst.rs1) & 0x1F;
  const auto rs2 = static_cast<std::uint32_t>(inst.rs2) & 0x1F;
  const auto imm = static_cast<std::uint32_t>(inst.imm) & 0xFFFF;
  // imm16 shares the low bits with rs2 the way RISC encodings do.
  return (op << 26) | (rd << 21) | (rs1 << 16) | (rs2 << 11) | imm;
}

ExUnit ex_unit(Opcode op) {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kAddi:
    case Opcode::kSubi:
    case Opcode::kLd:  // address computation
    case Opcode::kSt:
      return ExUnit::kAdder;
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
      return ExUnit::kCompare;
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kNot:
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kMovi:
      return ExUnit::kLogic;
    case Opcode::kSll:
    case Opcode::kSrl:
    case Opcode::kSlli:
    case Opcode::kSrli:
      return ExUnit::kShifter;
    default:
      return ExUnit::kNone;
  }
}

}  // namespace terrors::isa
