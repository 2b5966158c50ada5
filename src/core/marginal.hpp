// Marginal error probabilities (Section 4.2).
//
// Inside a block, Eq. (1) is a linear recurrence
//   p_k = p^e_k p_{k-1} + p^c_k (1 - p_{k-1}),
// so every instruction's marginal probability is affine in the block's
// input error probability p^in.  Across blocks, Eq. (2) mixes the output
// probabilities of the predecessors with the measured edge-activation
// probabilities.  Cycles in the CFG yield linear systems, which are solved
// per strongly-connected component in the condensation's topological order
// (Tarjan), exactly as the paper prescribes, by a sparse LU (SparseLu):
// each row holds the block itself and its in-SCC predecessors, and the
// entries whose weight times beta is exactly zero are dropped.  The
// program entry uses the paper's flushed-state assumption p^in = 1.
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
  bool cyclic = false;    ///< solved as a linear system
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

/// A square matrix as each row's (column, value) entries, sorted by
/// column; an absent entry is an exact zero.
struct SparseMatrix {
  struct Entry {
    std::uint32_t col = 0;
    double value = 0.0;
  };
  std::vector<std::vector<Entry>> rows;

  [[nodiscard]] std::size_t size() const { return rows.size(); }
  /// The n*n row-major matrix `a` without its exact zeros.
  [[nodiscard]] static SparseMatrix from_dense(const std::vector<double>& a, std::size_t n);
};

/// Sparse LU: Gaussian elimination with partial pivoting over the stored
/// entries only.  It takes the pivots of the dense textbook elimination
/// (the largest |entry| at or below the diagonal, the topmost on a tie)
/// and performs the same floating-point operations on the entries it
/// keeps; every term it skips is an exact zero.  So on finite systems
/// without -0.0 entries (the marginal systems have none) its solution is
/// bit-identical to the dense elimination's, at O(stored entries + fill)
/// instead of O(n^3): the identity costs O(n).  There is no dense path.
///
/// An object is a workspace: its buffers keep their capacity from one
/// solve to the next.
class SparseLu {
 public:
  /// Solve A x = b.  Throws std::invalid_argument when a row's columns
  /// do not increase below n, or when A is singular: a pivot at or below
  /// 1e-14 times A's largest |entry|, so a uniformly scaled system solves
  /// like its well-scaled counterpart.  Each call counts one
  /// solver.linear_solves.
  [[nodiscard]] std::vector<double> solve(const SparseMatrix& a, const std::vector<double>& b);

 private:
  std::vector<std::vector<SparseMatrix::Entry>> rows_;  ///< the eliminated copy of A
  std::vector<std::vector<std::uint32_t>> col_rows_;     ///< rows with an entry per column
  std::vector<std::uint32_t> row_at_;                    ///< row at each pivot position
  std::vector<std::uint32_t> pos_of_;                    ///< pivot position of each row
  std::vector<double> b_;
  std::vector<SparseMatrix::Entry> merged_;
};

/// Outcome of the degradation-aware SCC solve (DESIGN §5f).
struct RobustSolveResult {
  std::vector<double> x;
  /// True when the direct solve was singular / non-finite /
  /// ill-conditioned and refinement or the fixed-point fallback ran.
  bool degraded = false;
  /// max_i |A x - b| of the returned solution.
  double residual = 0.0;
};

/// Degradation-aware wrapper around SparseLu for the marginal SCC
/// systems x = C x + r (spectral radius of C < 1 for probability
/// systems):
///   1. direct solve; accept when finite with a small residual;
///   2. one step of iterative refinement on an ill-conditioned solve;
///   3. a bounded ([0,1]-clamped, <=256 iteration) fixed-point fallback
///      when the system is singular or refinement did not converge.
/// The residual, the refinement and the fixed point run over the stored
/// entries, in the dense column order.  `fault_key` (the SCC id) arms
/// the `solver.pivot` injection site ahead of the direct solve.  Exposed
/// for tests.
RobustSolveResult solve_scc_robust(SparseLu& lu, const SparseMatrix& a,
                                   const std::vector<double>& b,
                                   std::optional<std::uint64_t> fault_key = std::nullopt);

}  // namespace terrors::core
