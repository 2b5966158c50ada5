// SR5: a small in-order RISC instruction set in the spirit of SPARC V8's
// integer subset, matching the datapath of the generated pipeline netlist
// (32-bit ALU with add/sub, logic unit, barrel shifter, load/store,
// compare-and-branch).
#pragma once

#include <cstdint>
#include <string>

namespace terrors::isa {

enum class Opcode : std::uint8_t {
  kNop,
  // Register-register ALU.
  kAdd,
  kSub,
  kAnd,
  kOr,
  kXor,
  kNot,
  kSll,  ///< shift left logical by rs2 & 31
  kSrl,  ///< shift right logical by rs2 & 31
  // Register-immediate ALU.
  kAddi,
  kSubi,
  kAndi,
  kOri,
  kXori,
  kSlli,
  kSrli,
  kMovi,  ///< rd = imm
  // Memory.
  kLd,  ///< rd = mem[rs1 + imm]
  kSt,  ///< mem[rs1 + imm] = rs2
  // Control transfer (block terminators).
  kBeq,  ///< taken iff r[rs1] == r[rs2]
  kBne,
  kBlt,  ///< unsigned <
  kBge,  ///< unsigned >=
  kJmp,  ///< unconditional
};

inline constexpr int kOpcodeCount = 24;
inline constexpr int kRegisterCount = 32;

struct Instruction {
  Opcode op = Opcode::kNop;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;
};

[[nodiscard]] bool is_branch(Opcode op);
[[nodiscard]] bool is_conditional_branch(Opcode op);
[[nodiscard]] bool uses_immediate(Opcode op);
[[nodiscard]] bool writes_register(Opcode op);
[[nodiscard]] std::string_view mnemonic(Opcode op);
[[nodiscard]] std::string to_string(const Instruction& inst);

/// 32-bit instruction word (op | rd | rs1 | rs2 | imm16) used to drive the
/// fetch/decode control network of the gate-level pipeline.
[[nodiscard]] std::uint32_t encode(const Instruction& inst);

/// ALU stage view of an instruction: the two values entering the EX stage
/// and the datapath unit they exercise.  Used by the architectural
/// datapath timing model.  Conditional branches resolve on a dedicated
/// comparator (kCompare) like LEON3-class cores, not on the main adder;
/// its (shallow) timing is captured by the control-network
/// characterisation through the RA-stage comparator.
enum class ExUnit : std::uint8_t { kNone, kAdder, kLogic, kShifter, kCompare };
[[nodiscard]] ExUnit ex_unit(Opcode op);

}  // namespace terrors::isa
