// Marginal error probabilities (Section 4.2).
//
// Inside a block, Eq. (1) is a linear recurrence
//   p_k = p^e_k p_{k-1} + p^c_k (1 - p_{k-1}),
// so every instruction's marginal probability is affine in the block's
// input error probability p^in.  Across blocks, Eq. (2) mixes the output
// probabilities of the predecessors with the measured edge-activation
// probabilities.  Cycles in the CFG yield linear systems, which are solved
// per strongly-connected component in the condensation's topological order
// (Tarjan), exactly as the paper prescribes.  The program entry uses the
// paper's flushed-state assumption p^in = 1.
//
// All quantities are random variables over data variation, realised as
// aligned sample vectors; the solve is performed independently per sample
// index (each index is one common-random-numbers "world").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/error_model.hpp"
#include "isa/cfg.hpp"
#include "isa/executor.hpp"
#include "isa/program.hpp"

namespace terrors::core {

struct BlockMarginals {
  stat::Samples p_in;                ///< p_i^in
  std::vector<stat::Samples> instr;  ///< p_{i_k}
  bool executed = false;
};

/// Diagnostics of one strongly-connected component's marginal solve,
/// aggregated over the M sample worlds.
struct SccSolveDiag {
  std::uint32_t scc = 0;
  std::size_t size = 0;   ///< member blocks
  bool cyclic = false;    ///< solved as a dense linear system
  /// max_s max_i |A x - b| over the component's per-sample solves
  /// (0 for acyclic components, which are solved by substitution).
  double max_residual = 0.0;
  /// True when at least one sample world needed the degradation path
  /// (iterative refinement or the bounded fixed-point fallback) because
  /// the direct solve was singular, non-finite, or ill-conditioned.
  bool degraded = false;
};

class MarginalSolver {
 public:
  MarginalSolver(const isa::Program& program, const isa::Cfg& cfg,
                 const isa::ProgramProfile& profile);

  /// When `sccs` is given it receives one diagnostic per SCC with an
  /// executed block, in the condensation's topological order.
  [[nodiscard]] std::vector<BlockMarginals> solve(
      const std::vector<BlockErrorDistributions>& cond,
      std::vector<SccSolveDiag>* sccs = nullptr) const;

 private:
  const isa::Program& program_;
  const isa::Cfg& cfg_;
  const isa::ProgramProfile& profile_;
};

/// Solve A x = b by Gaussian elimination with partial pivoting (A is
/// n*n row-major, overwritten).  Exposed for tests.
std::vector<double> solve_dense(std::vector<double> a, std::vector<double> b);

/// Outcome of the degradation-aware SCC solve (DESIGN §5f).
struct RobustSolveResult {
  std::vector<double> x;
  /// True when the direct solve was singular / non-finite /
  /// ill-conditioned and refinement or the fixed-point fallback ran.
  bool degraded = false;
  /// max_i |A x - b| of the returned solution.
  double residual = 0.0;
};

/// Degradation-aware wrapper around solve_dense for the marginal SCC
/// systems x = C x + r (spectral radius of C < 1 for probability
/// systems):
///   1. direct solve; accept when finite with a small residual —
///      bit-identical to solve_dense on healthy systems;
///   2. one step of iterative refinement on an ill-conditioned solve;
///   3. a bounded ([0,1]-clamped, <=256 iteration) fixed-point fallback
///      when the system is singular or refinement did not converge.
/// `fault_key` (the SCC id) arms the `solver.pivot` injection site ahead
/// of the direct solve.  Exposed for `terrors doctor` and tests.
RobustSolveResult solve_scc_robust(const std::vector<double>& a, const std::vector<double>& b,
                                   std::optional<std::uint64_t> fault_key = std::nullopt);

}  // namespace terrors::core
