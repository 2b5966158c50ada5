#include "isa/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <map>
#include <sstream>
#include <vector>

#include "robust/error.hpp"
#include "support/check.hpp"

namespace terrors::isa {
namespace {

struct PendingBranch {
  BlockId block = kNoBlock;
  std::string target;
  int line = 0;
};

[[noreturn]] void fail(int line, const std::string& msg) {
  robust::raise(robust::Category::kInput, "asm line " + std::to_string(line) + ": " + msg);
}

std::string strip(std::string s) {
  const auto comment = s.find_first_of(";#");
  if (comment != std::string::npos) s.erase(comment);
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split_operands(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      out.push_back(strip(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  const std::string last = strip(cur);
  if (!last.empty()) out.push_back(last);
  return out;
}

int parse_reg(const std::string& tok, int line) {
  if (tok.size() < 2 || (tok[0] != 'r' && tok[0] != 'R')) fail(line, "expected register, got '" + tok + "'");
  for (std::size_t i = 1; i < tok.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(tok[i]))) fail(line, "bad register '" + tok + "'");
  }
  int n = 0;
  const std::from_chars_result r = std::from_chars(tok.data() + 1, tok.data() + tok.size(), n);
  if (r.ec != std::errc{} || n >= kRegisterCount) fail(line, "register out of range: " + tok);
  return n;
}

int parse_imm(const std::string& tok, int line) {
  try {
    std::size_t used = 0;
    const long v = std::stol(tok, &used, 0);  // handles decimal, 0x, negative
    if (used != tok.size()) fail(line, "bad immediate '" + tok + "'");
    if (v < -32768 || v > 65535) fail(line, "immediate out of 16-bit range: " + tok);
    return static_cast<int>(v);
  } catch (const std::invalid_argument&) {
    fail(line, "bad immediate '" + tok + "'");
  } catch (const std::out_of_range&) {
    fail(line, "immediate out of range '" + tok + "'");
  }
}

struct OpSpec {
  Opcode op;
  enum Form { kRRR, kRRI, kRI, kRR_Branch, kLabelOnly, kNone } form;
};

const std::map<std::string, OpSpec>& mnemonics() {
  static const std::map<std::string, OpSpec> table = {
      {"nop", {Opcode::kNop, OpSpec::kNone}},
      {"add", {Opcode::kAdd, OpSpec::kRRR}},
      {"sub", {Opcode::kSub, OpSpec::kRRR}},
      {"and", {Opcode::kAnd, OpSpec::kRRR}},
      {"or", {Opcode::kOr, OpSpec::kRRR}},
      {"xor", {Opcode::kXor, OpSpec::kRRR}},
      {"sll", {Opcode::kSll, OpSpec::kRRR}},
      {"srl", {Opcode::kSrl, OpSpec::kRRR}},
      {"not", {Opcode::kNot, OpSpec::kRRI}},  // not rd, rs1 (imm ignored)
      {"addi", {Opcode::kAddi, OpSpec::kRRI}},
      {"subi", {Opcode::kSubi, OpSpec::kRRI}},
      {"andi", {Opcode::kAndi, OpSpec::kRRI}},
      {"ori", {Opcode::kOri, OpSpec::kRRI}},
      {"xori", {Opcode::kXori, OpSpec::kRRI}},
      {"slli", {Opcode::kSlli, OpSpec::kRRI}},
      {"srli", {Opcode::kSrli, OpSpec::kRRI}},
      {"movi", {Opcode::kMovi, OpSpec::kRI}},
      {"ld", {Opcode::kLd, OpSpec::kRRI}},
      {"st", {Opcode::kSt, OpSpec::kRRI}},  // st rs2, rs1, imm
      {"beq", {Opcode::kBeq, OpSpec::kRR_Branch}},
      {"bne", {Opcode::kBne, OpSpec::kRR_Branch}},
      {"blt", {Opcode::kBlt, OpSpec::kRR_Branch}},
      {"bge", {Opcode::kBge, OpSpec::kRR_Branch}},
      {"jmp", {Opcode::kJmp, OpSpec::kLabelOnly}},
  };
  return table;
}

}  // namespace

Program assemble(const std::string& source, std::string name) {
  Program program(std::move(name));
  std::map<std::string, BlockId> labels;
  std::vector<PendingBranch> pending_taken;
  std::vector<bool> halted;  // block explicitly ended (halt / jmp)

  BasicBlock current;
  std::vector<std::string> current_labels = {"<entry>"};
  bool block_open = true;
  bool current_halt = false;
  std::vector<std::pair<BlockId, bool>> flushed;  // (id, halted)

  auto flush_block = [&](int line) {
    if (current.instructions.empty()) {
      if (current_labels.empty() || (current_labels.size() == 1 && flushed.empty())) {
        // Empty entry block is fine until something is added.
      }
      if (!block_open) return;
      if (current.instructions.empty() && current_labels.empty()) return;
      if (current.instructions.empty()) {
        // A label directly followed by another label: alias them later by
        // inserting a nop so the block exists.
        if (block_open && !current_labels.empty() && line > 0) {
          current.instructions.push_back(Instruction{});
        } else {
          return;
        }
      }
    }
    const BlockId id = program.add_block(current);
    for (const auto& l : current_labels) {
      if (l == "<entry>") continue;
      if (labels.count(l) != 0) fail(line, "duplicate label '" + l + "'");
      labels[l] = id;
    }
    flushed.emplace_back(id, current_halt);
    current = BasicBlock{};
    current_labels.clear();
    current_halt = false;
  };

  std::istringstream in(source);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = strip(raw);
    if (line.empty()) continue;

    // Labels (possibly several on one line before an instruction).
    while (true) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) break;
      const std::string label = strip(line.substr(0, colon));
      if (label.empty() || label.find(' ') != std::string::npos)
        fail(line_no, "bad label '" + label + "'");
      // A label starts a new block if the current one has instructions.
      if (!current.instructions.empty()) flush_block(line_no);
      current_labels.push_back(label);
      line = strip(line.substr(colon + 1));
      if (line.empty()) break;
    }
    if (line.empty()) continue;

    // Mnemonic + operands.
    const auto sp = line.find_first_of(" \t");
    const std::string mnem = sp == std::string::npos ? line : line.substr(0, sp);
    const std::string rest = sp == std::string::npos ? "" : strip(line.substr(sp));
    std::string lower = mnem;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });

    if (lower == "halt") {
      if (current.instructions.empty()) current.instructions.push_back(Instruction{});
      current_halt = true;
      flush_block(line_no);
      continue;
    }

    const auto it = mnemonics().find(lower);
    if (it == mnemonics().end()) fail(line_no, "unknown mnemonic '" + mnem + "'");
    const OpSpec& spec = it->second;
    const auto ops = split_operands(rest);

    Instruction inst;
    inst.op = spec.op;
    switch (spec.form) {
      case OpSpec::kNone:
        if (!ops.empty()) fail(line_no, "nop takes no operands");
        break;
      case OpSpec::kRRR:
        if (ops.size() != 3) fail(line_no, "expected rd, rs1, rs2");
        inst.rd = static_cast<std::uint8_t>(parse_reg(ops[0], line_no));
        inst.rs1 = static_cast<std::uint8_t>(parse_reg(ops[1], line_no));
        inst.rs2 = static_cast<std::uint8_t>(parse_reg(ops[2], line_no));
        break;
      case OpSpec::kRRI:
        if (spec.op == Opcode::kNot) {
          if (ops.size() != 2) fail(line_no, "expected rd, rs1");
          inst.rd = static_cast<std::uint8_t>(parse_reg(ops[0], line_no));
          inst.rs1 = static_cast<std::uint8_t>(parse_reg(ops[1], line_no));
          break;
        }
        if (ops.size() != 3) fail(line_no, "expected rd, rs1, imm");
        if (spec.op == Opcode::kSt) {
          // st rs2, rs1, imm
          inst.rs2 = static_cast<std::uint8_t>(parse_reg(ops[0], line_no));
          inst.rs1 = static_cast<std::uint8_t>(parse_reg(ops[1], line_no));
        } else {
          inst.rd = static_cast<std::uint8_t>(parse_reg(ops[0], line_no));
          inst.rs1 = static_cast<std::uint8_t>(parse_reg(ops[1], line_no));
        }
        inst.imm = parse_imm(ops[2], line_no);
        break;
      case OpSpec::kRI:
        if (ops.size() != 2) fail(line_no, "expected rd, imm");
        inst.rd = static_cast<std::uint8_t>(parse_reg(ops[0], line_no));
        inst.imm = parse_imm(ops[1], line_no);
        break;
      case OpSpec::kRR_Branch: {
        if (ops.size() != 3) fail(line_no, "expected rs1, rs2, label");
        inst.rs1 = static_cast<std::uint8_t>(parse_reg(ops[0], line_no));
        inst.rs2 = static_cast<std::uint8_t>(parse_reg(ops[1], line_no));
        current.instructions.push_back(inst);
        pending_taken.push_back({static_cast<BlockId>(program.block_count()), ops[2], line_no});
        flush_block(line_no);
        continue;
      }
      case OpSpec::kLabelOnly: {
        if (ops.size() != 1) fail(line_no, "expected label");
        current.instructions.push_back(inst);
        pending_taken.push_back({static_cast<BlockId>(program.block_count()), ops[0], line_no});
        current_halt = true;  // jmp has no fall-through
        flush_block(line_no);
        continue;
      }
    }
    current.instructions.push_back(inst);
  }
  if (!current.instructions.empty() || !current_labels.empty()) {
    if (current.instructions.empty()) current.instructions.push_back(Instruction{});
    current_halt = true;  // trailing block falls off the end: exit
    flush_block(line_no);
  }
  TE_REQUIRE(!flushed.empty(), "empty assembly source");

  // Wire fall-throughs (textual order) for blocks not explicitly ended.
  for (std::size_t i = 0; i + 1 < flushed.size(); ++i) {
    if (!flushed[i].second) program.block(flushed[i].first).fallthrough = flushed[i + 1].first;
  }
  // Resolve branch targets.
  for (const auto& pb : pending_taken) {
    const auto it = labels.find(pb.target);
    if (it == labels.end()) fail(pb.line, "undefined label '" + pb.target + "'");
    program.block(pb.block).taken = it->second;
  }
  program.set_entry(flushed.front().first);
  program.validate();
  return program;
}

}  // namespace terrors::isa
