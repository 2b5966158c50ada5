#include "robust/doctor.hpp"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "core/framework.hpp"
#include "core/marginal.hpp"
#include "isa/program.hpp"
#include "netlist/pipeline.hpp"
#include "support/thread_pool.hpp"
#include "timing/variation.hpp"

namespace terrors::robust {

namespace {

Finding run_check(const std::string& name, const std::function<std::string()>& body) {
  Finding f;
  f.check = name;
  try {
    f.detail = body();
    f.ok = true;
  } catch (const std::exception& e) {
    f.ok = false;
    f.category = classify(e);
    f.detail = e.what();
  }
  return f;
}

std::string check_cache(const DoctorOptions& options) {
  std::string dir = cache::resolve_cache_dir(options.cache_dir);
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() / "terrors-doctor-cache").string();
  }
  const cache::ArtifactCache probe(dir);
  const std::uint64_t key = 0xd0c70full;
  const std::vector<std::uint8_t> payload = {'d', 'o', 'c', 't', 'o', 'r'};
  probe.store("doctor-probe", key, payload);
  const auto back = probe.load("doctor-probe", key);
  std::error_code ec;
  std::filesystem::remove(probe.path_for("doctor-probe", key), ec);
  if (!back.has_value() || *back != payload) {
    raise(Category::kResource, "cache dir '" + dir + "' failed a store/load round-trip");
  }
  return "store/load round-trip ok in " + dir;
}

std::string check_pool() {
  auto& pool = support::global_pool();
  constexpr std::size_t kN = 512;
  std::vector<std::uint64_t> slots(kN, 0);
  pool.parallel_for(kN, [&](std::size_t i, std::size_t) {
    slots[i] = static_cast<std::uint64_t>(i) * 3 + 1;
  });
  for (std::size_t i = 0; i < kN; ++i) {
    if (slots[i] != static_cast<std::uint64_t>(i) * 3 + 1) {
      raise(Category::kInternal,
            "parallel_for misplaced index " + std::to_string(i) + " at " +
                std::to_string(pool.size()) + " threads");
    }
  }
  return std::to_string(kN) + " index-keyed slots correct at " + std::to_string(pool.size()) +
         " threads";
}

std::string check_solver() {
  // Well-conditioned 3x3: must solve directly (not degraded) to a tiny
  // residual.
  core::SparseLu lu;
  const auto healthy = core::solve_scc_robust(
      lu, core::SparseMatrix::from_dense({4, 1, 0, 1, 3, 1, 0, 1, 2}, 3), {6, 10, 7});
  if (healthy.degraded || healthy.residual > 1e-9) {
    raise(Category::kNumerical,
          "well-conditioned solve degraded or inaccurate (residual " +
              std::to_string(healthy.residual) + ")");
  }
  // Numerically singular: the robust path must still return a finite,
  // clamped result and flag the degradation.
  const auto sick =
      core::solve_scc_robust(lu, core::SparseMatrix::from_dense({1, 1, 1, 1}, 2), {0.5, 0.5});
  if (!sick.degraded) {
    raise(Category::kNumerical, "singular solve was not flagged as degraded");
  }
  for (const double v : sick.x) {
    if (!std::isfinite(v) || v < 0.0 || v > 1.0) {
      raise(Category::kNumerical, "singular-solve fallback left the [0,1] range");
    }
  }
  return "direct solve residual " + std::to_string(healthy.residual) +
         "; singular fallback finite and flagged";
}

isa::Instruction make_instr(isa::Opcode op, int rd = 0, int rs1 = 0, int rs2 = 0, int imm = 0) {
  isa::Instruction i;
  i.op = op;
  i.rd = static_cast<std::uint8_t>(rd);
  i.rs1 = static_cast<std::uint8_t>(rs1);
  i.rs2 = static_cast<std::uint8_t>(rs2);
  i.imm = imm;
  return i;
}

std::string check_analysis() {
  // Golden micro-analysis: 3-block loop program, default pipeline.
  isa::Program p{"doctor-loop"};
  isa::BasicBlock b0;
  b0.instructions = {make_instr(isa::Opcode::kMovi, 1, 0, 0, 4)};
  isa::BasicBlock b1;
  b1.instructions = {make_instr(isa::Opcode::kSubi, 1, 1, 0, 1),
                     make_instr(isa::Opcode::kBne, 0, 1, 0)};
  isa::BasicBlock b2;
  b2.instructions = {make_instr(isa::Opcode::kNop)};
  p.add_block(b0);
  p.add_block(b1);
  p.add_block(b2);
  p.block(0).fallthrough = 1;
  p.block(1).taken = 1;
  p.block(1).fallthrough = 2;
  p.set_entry(0);
  p.validate();

  const netlist::Pipeline pipeline = netlist::build_pipeline({});
  core::FrameworkConfig cfg;
  cfg.spec = timing::TimingSpec{1300.0};
  core::ErrorRateFramework fw(pipeline, cfg);
  const auto result = fw.analyze(p, {isa::ProgramInput{}});
  const double rate = result.estimate.rate_mean();
  if (!std::isfinite(rate) || rate < 0.0 || rate > 1.0) {
    raise(Category::kNumerical,
          "golden micro-analysis rate " + std::to_string(rate) + " outside [0,1]");
  }
  return "golden loop analysis ok (rate " + std::to_string(rate) + ")";
}

}  // namespace

bool DoctorReport::ok() const {
  for (const auto& f : findings) {
    if (!f.ok) return false;
  }
  return true;
}

int DoctorReport::exit_code() const {
  for (const auto& f : findings) {
    if (!f.ok) return exit_code_for(f.category);
  }
  return 0;
}

DoctorReport run_doctor(const DoctorOptions& options) {
  DoctorReport report;
  report.findings.push_back(run_check("cache", [&] { return check_cache(options); }));
  report.findings.push_back(run_check("pool", check_pool));
  report.findings.push_back(run_check("solver", check_solver));
  report.findings.push_back(run_check("analysis", check_analysis));
  return report;
}

}  // namespace terrors::robust
