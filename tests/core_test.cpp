#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/error_model.hpp"
#include "core/estimator.hpp"
#include "core/framework.hpp"
#include "core/marginal.hpp"
#include "core/monte_carlo.hpp"
#include "isa/cfg.hpp"
#include "isa/executor.hpp"
#include "netlist/pipeline.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "workloads/generator.hpp"

namespace terrors::core {
namespace {

using isa::BlockId;
using isa::Opcode;

isa::Instruction make(Opcode op, int rd = 0, int rs1 = 0, int rs2 = 0, int imm = 0) {
  isa::Instruction i;
  i.op = op;
  i.rd = static_cast<std::uint8_t>(rd);
  i.rs1 = static_cast<std::uint8_t>(rs1);
  i.rs2 = static_cast<std::uint8_t>(rs2);
  i.imm = imm;
  return i;
}

// --- solve_dense: the reference SparseLu reproduces ----------------------------

/// Gaussian elimination with partial pivoting over the full n*n row-major
/// matrix `a` (overwritten): the dense solver SparseLu replaced, kept
/// here as the reference it must match bit for bit.
std::vector<double> solve_dense(std::vector<double> a, std::vector<double> b) {
  const std::size_t n = b.size();
  TE_REQUIRE(a.size() == n * n, "matrix size mismatch");
  double max_abs = 0.0;
  for (const double v : a) max_abs = std::max(max_abs, std::fabs(v));
  TE_REQUIRE(max_abs > 0.0, "singular system");
  const double pivot_tol = 1e-14 * max_abs;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r * n + col]) > std::fabs(a[pivot * n + col])) pivot = r;
    }
    TE_REQUIRE(std::fabs(a[pivot * n + col]) > pivot_tol, "singular system");
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a[col * n + col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r * n + col] * inv;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double s = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) s -= a[ri * n + c] * x[c];
    x[ri] = s / a[ri * n + ri];
  }
  return x;
}

std::vector<double> solve_sparse(const std::vector<double>& a, const std::vector<double>& b) {
  SparseLu lu;
  return lu.solve(SparseMatrix::from_dense(a, b.size()), b);
}

/// Both solvers on one system: both throw std::invalid_argument, or both
/// return the same bits.
void expect_same_as_dense(const SparseMatrix& sparse, const std::vector<double>& dense,
                          const std::vector<double>& b, const std::string& what) {
  SparseLu lu;
  std::optional<std::vector<double>> want;
  std::optional<std::vector<double>> got;
  try {
    want = solve_dense(dense, b);
  } catch (const std::invalid_argument&) {
  }
  try {
    got = lu.solve(sparse, b);
  } catch (const std::invalid_argument&) {
  }
  ASSERT_EQ(got.has_value(), want.has_value()) << what << ": only one solver threw";
  if (!want) return;
  ASSERT_EQ(got->size(), want->size()) << what;
  for (std::size_t i = 0; i < want->size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>((*got)[i]), std::bit_cast<std::uint64_t>((*want)[i]))
        << what << ": x[" << i << "] " << (*got)[i] << " vs " << (*want)[i];
  }
}


TEST(SolveDense, SolvesKnownSystem) {
  // [2 1; 1 3] x = [5; 10] -> x = (1, 3).
  const auto x = solve_dense({2, 1, 1, 3}, {5, 10});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveDense, PivotsOnZeroDiagonal) {
  // [0 1; 1 0] x = [2; 3] -> x = (3, 2).
  const auto x = solve_dense({0, 1, 1, 0}, {2, 3});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveDense, RejectsSingular) {
  EXPECT_THROW(solve_dense({1, 2, 2, 4}, {1, 2}), std::invalid_argument);
}

TEST(SolveDense, SolvesUniformlyScaledDownSystem) {
  // A well-conditioned system scaled by 1e-15 is still uniquely solvable;
  // an absolute pivot threshold would reject every pivot as "singular".
  const double s = 1e-15;
  const auto x = solve_dense({2 * s, 1 * s, 1 * s, 3 * s}, {5 * s, 10 * s});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
}

TEST(SolveDense, StillRejectsScaledSingular) {
  const double s = 1e-15;
  EXPECT_THROW(solve_dense({1 * s, 2 * s, 2 * s, 4 * s}, {s, 2 * s}),
               std::invalid_argument);
}

TEST(SolveDense, RandomRoundTrip) {
  support::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(6);
    std::vector<double> a(n * n);
    std::vector<double> x_true(n);
    for (auto& v : a) v = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      a[i * n + i] += 3.0;  // diagonally dominant => nonsingular
      x_true[i] = rng.uniform(-5.0, 5.0);
    }
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) b[i] += a[i * n + j] * x_true[j];
    const auto x = solve_dense(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

// --- SparseLu ------------------------------------------------------------------

TEST(SparseLu, SolvesKnownSystem) {
  const auto x = solve_sparse({2, 1, 1, 3}, {5, 10});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SparseLu, PivotsOnZeroDiagonal) {
  // The diagonal entries are absent, not stored zeros.
  const auto x = solve_sparse({0, 1, 1, 0}, {2, 3});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SparseLu, RejectsSingular) {
  EXPECT_THROW(solve_sparse({1, 2, 2, 4}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(solve_sparse({0, 0, 0, 0}, {1, 2}), std::invalid_argument);
  // Column 1 holds no entry at all.
  EXPECT_THROW(solve_sparse({1, 0, 0, 2, 0, 0, 0, 0, 3}, {1, 2, 3}), std::invalid_argument);
}

TEST(SparseLu, PivotToleranceIsRelativeToTheLargestEntry) {
  const double s = 1e-15;
  const auto x = solve_sparse({2 * s, 1 * s, 1 * s, 3 * s}, {5 * s, 10 * s});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
  EXPECT_THROW(solve_sparse({1 * s, 2 * s, 2 * s, 4 * s}, {s, 2 * s}), std::invalid_argument);
  // The threshold sits at 1e-14 times the largest |entry|, as in the
  // dense elimination, on both sides of it and at any scale.
  for (const double scale : {1e-150, 1.0, 1e150}) {
    for (const double pivot : {0.99e-14, 1.01e-14}) {
      const std::vector<double> a = {scale, 0.0, 0.0, pivot * scale};
      const std::vector<double> b = {scale, scale};
      expect_same_as_dense(SparseMatrix::from_dense(a, 2), a, b, "tolerance");
    }
    EXPECT_THROW(solve_sparse({scale, 0.0, 0.0, 0.99e-14 * scale}, {1, 1}),
                 std::invalid_argument);
    EXPECT_NO_THROW((void)solve_sparse({scale, 0.0, 0.0, 1.01e-14 * scale}, {1, 1}));
  }
}

TEST(SparseLu, RandomRoundTrip) {
  support::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(6);
    std::vector<double> a(n * n);
    std::vector<double> x_true(n);
    for (auto& v : a) v = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      a[i * n + i] += 3.0;  // diagonally dominant => nonsingular
      x_true[i] = rng.uniform(-5.0, 5.0);
    }
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) b[i] += a[i * n + j] * x_true[j];
    const auto x = solve_sparse(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
    expect_same_as_dense(SparseMatrix::from_dense(a, n), a, b, "dense random");
  }
}

/// A CFG-shaped system: row i holds its diagonal and 1-3 predecessor
/// columns (the fall-through from i-1 and random jumps).  Small
/// diagonals force row swaps, and elimination fills in.  A tenth of the
/// predecessor entries are exact zeros, kept as stored entries in the
/// returned sparse form.  `ties` draws the values from a few powers of
/// two, so pivot candidates often tie.
struct CfgSystem {
  std::vector<double> dense;
  SparseMatrix with_zeros;
  std::vector<double> b;
};

CfgSystem cfg_like_system(support::Rng& rng, std::size_t n, bool ties) {
  const auto value = [&](double lo, double hi) {
    if (!ties) return rng.uniform(lo, hi);
    const double v = std::ldexp(1.0, static_cast<int>(rng.uniform_index(3)) - 1);  // 0.5, 1, 2
    return std::clamp(lo < 0.0 && rng.uniform(0.0, 1.0) < 0.5 ? -v : v, lo, hi);
  };
  CfgSystem sys;
  sys.dense.assign(n * n, 0.0);
  sys.with_zeros.rows.resize(n);
  sys.b.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::set<std::size_t> cols = {i};
    const std::size_t preds = 1 + rng.uniform_index(3);
    if (i > 0) cols.insert(i - 1);
    while (cols.size() < preds + 1 && cols.size() < n) cols.insert(rng.uniform_index(n));
    for (const std::size_t c : cols) {
      double v = 0.0;
      if (c == i) {
        v = value(0.5, 1.0) * (rng.uniform(0.0, 1.0) < 0.3 ? 1e-3 : 1.0);
      } else if (rng.uniform(0.0, 1.0) >= 0.1) {
        v = value(-2.0, 2.0);
      }
      sys.dense[i * n + c] = v;
      sys.with_zeros.rows[i].push_back({static_cast<std::uint32_t>(c), v});
    }
    sys.b[i] = rng.uniform(0.0, 1.0);
  }
  return sys;
}

TEST(SparseLu, MatchesDenseBitForBitOnCfgLikeSystems) {
  support::Rng rng(2026);
  std::size_t swaps_possible = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(200);
    const CfgSystem sys = cfg_like_system(rng, n, trial % 2 == 1);
    const std::string what = "trial " + std::to_string(trial) + " n=" + std::to_string(n);
    expect_same_as_dense(sys.with_zeros, sys.dense, sys.b, what + " (stored zeros)");
    expect_same_as_dense(SparseMatrix::from_dense(sys.dense, n), sys.dense, sys.b,
                         what + " (zeros dropped)");
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (std::fabs(sys.dense[(i + 1) * n + i]) > std::fabs(sys.dense[i * n + i]))
        ++swaps_possible;
    }

    // A scaled copy exercises the relative pivot tolerance.
    std::vector<double> tiny = sys.dense;
    for (double& v : tiny) v *= 1e-200;
    expect_same_as_dense(SparseMatrix::from_dense(tiny, n), tiny, sys.b, what + " (scaled)");

    // Singular: row 0 repeated as the last row.
    if (n >= 2) {
      std::vector<double> singular = sys.dense;
      std::copy_n(singular.begin(), n, singular.begin() + static_cast<std::ptrdiff_t>((n - 1) * n));
      expect_same_as_dense(SparseMatrix::from_dense(singular, n), singular, sys.b,
                           what + " (singular)");
    }
  }
  EXPECT_GT(swaps_possible, 100u);  // the systems do exercise pivoting
}

TEST(SparseLu, ExactZerosAreDropped) {
  const SparseMatrix m = SparseMatrix::from_dense({1, 0, 0, 0, 2, 0, 3, 0, 4}, 3);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m.rows[0].size(), 1u);
  EXPECT_EQ(m.rows[1].size(), 1u);
  ASSERT_EQ(m.rows[2].size(), 2u);
  EXPECT_EQ(m.rows[2][0].col, 0u);
  EXPECT_EQ(m.rows[2][1].col, 2u);
  EXPECT_EQ(m.rows[2][1].value, 4.0);
}

/// The dense form of solve_scc_robust (no fault site): the reference its
/// sparse residual, refinement and fixed point must match bit for bit.
RobustSolveResult solve_scc_robust_dense(const std::vector<double>& a,
                                         const std::vector<double>& b) {
  const std::size_t n = b.size();
  const auto residual_of = [&](const std::vector<double>& x) {
    double r = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double ax = 0.0;
      for (std::size_t c = 0; c < n; ++c) ax += a[i * n + c] * x[c];
      r = std::max(r, std::fabs(ax - b[i]));
    }
    return r;
  };
  const auto finite = [](const std::vector<double>& x) {
    return std::all_of(x.begin(), x.end(), [](double v) { return std::isfinite(v); });
  };
  double b_scale = 1.0;
  for (const double v : b) b_scale = std::max(b_scale, std::fabs(v));
  const double accept = 1e-8 * b_scale;
  RobustSolveResult out;
  bool solved = false;
  try {
    out.x = solve_dense(a, b);
    solved = finite(out.x);
    if (solved) {
      out.residual = residual_of(out.x);
      if (out.residual > accept) {
        out.degraded = true;
        std::vector<double> r(n, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
          double ax = 0.0;
          for (std::size_t c = 0; c < n; ++c) ax += a[i * n + c] * out.x[c];
          r[i] = b[i] - ax;
        }
        const std::vector<double> dx = solve_dense(a, r);
        std::vector<double> refined = out.x;
        for (std::size_t i = 0; i < n; ++i) refined[i] += dx[i];
        if (finite(refined) && residual_of(refined) < out.residual) {
          out.residual = residual_of(refined);
          out.x = std::move(refined);
        }
        solved = out.residual <= accept;
      }
    }
  } catch (const std::invalid_argument&) {
    solved = false;
  }
  if (solved) return out;
  out.degraded = true;
  std::vector<double> x(n, 0.0);
  std::vector<double> next(n, 0.0);
  for (int iter = 0; iter < 256; ++iter) {
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double v = b[i];
      for (std::size_t c = 0; c < n; ++c) {
        const double cij = (i == c ? 1.0 : 0.0) - a[i * n + c];
        if (cij != 0.0) v += cij * x[c];
      }
      if (!std::isfinite(v)) v = 0.0;
      v = std::clamp(v, 0.0, 1.0);
      delta = std::max(delta, std::fabs(v - x[i]));
      next[i] = v;
    }
    x.swap(next);
    if (delta < 1e-12) break;
  }
  out.x = std::move(x);
  out.residual = residual_of(out.x);
  return out;
}

TEST(SparseLu, RobustSolveMatchesTheDenseFormulasBitForBit) {
  const auto expect_same = [](const std::vector<double>& a, const std::vector<double>& b,
                              const std::string& what) {
    SparseLu lu;
    const RobustSolveResult got =
        solve_scc_robust(lu, SparseMatrix::from_dense(a, b.size()), b);
    const RobustSolveResult want = solve_scc_robust_dense(a, b);
    EXPECT_EQ(got.degraded, want.degraded) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.residual),
              std::bit_cast<std::uint64_t>(want.residual))
        << what;
    ASSERT_EQ(got.x.size(), want.x.size()) << what;
    for (std::size_t i = 0; i < want.x.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.x[i]), std::bit_cast<std::uint64_t>(want.x[i]))
          << what << ": x[" << i << "]";
    }
  };
  // Direct solves of marginal-shaped systems: I minus sub-stochastic
  // predecessor weights.
  support::Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(60);
    std::vector<double> a(n * n, 0.0);
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i * n + i] = 1.0;
      for (int k = 0; k < 2; ++k) a[i * n + rng.uniform_index(n)] -= rng.uniform(0.0, 0.45);
      b[i] = rng.uniform(0.0, 1.0);
    }
    expect_same(a, b, "trial " + std::to_string(trial));
  }
  // Ill-conditioned: the direct residual exceeds the acceptance
  // threshold, so the refinement step runs.
  auto& metrics = obs::MetricsRegistry::instance();
  const std::uint64_t refinements = metrics.counter("solver.refinements").value();
  // Wilkinson's matrix: partial pivoting grows its last column by 2^(n-1).
  const std::size_t w = 60;
  std::vector<double> wilkinson(w * w, 0.0);
  std::vector<double> wb(w);
  for (std::size_t i = 0; i < w; ++i) {
    for (std::size_t c = 0; c < i; ++c) wilkinson[i * w + c] = -1.0;
    wilkinson[i * w + i] = 1.0;
    wilkinson[i * w + w - 1] = 1.0;
    wb[i] = rng.uniform(0.0, 1.0);
  }
  expect_same(wilkinson, wb, "refinement");
  EXPECT_EQ(metrics.counter("solver.refinements").value(), refinements + 1);
  // Singular: the fixed point runs, over a stored and an absent diagonal.
  const std::uint64_t fallbacks = metrics.counter("solver.fixed_point_fallbacks").value();
  expect_same({1.0, 1.0, 1.0, 1.0}, {0.5, 0.5}, "singular");
  expect_same({0.0, 0.5, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0}, {0.25, 0.5, 0.75}, "no diagonal");
  EXPECT_EQ(metrics.counter("solver.fixed_point_fallbacks").value(), fallbacks + 2);
}

TEST(SparseLu, CountsOneLinearSolvePerCall) {
  obs::Counter& solves = obs::MetricsRegistry::instance().counter("solver.linear_solves");
  const std::uint64_t before = solves.value();
  (void)solve_sparse({2, 1, 1, 3}, {5, 10});
  EXPECT_EQ(solves.value(), before + 1);
  EXPECT_THROW((void)solve_sparse({1, 2, 2, 4}, {1, 2}), std::invalid_argument);
  EXPECT_EQ(solves.value(), before + 2);
}

// --- Marginal solver on a hand-built program ----------------------------------

/// Straight-line program: B0 -> B1 (exit).  One instruction each.
struct StraightFixture {
  isa::Program p{"straight"};
  StraightFixture() {
    isa::BasicBlock b0;
    b0.instructions = {make(Opcode::kAddi, 8, 8, 0, 1)};
    isa::BasicBlock b1;
    b1.instructions = {make(Opcode::kAddi, 9, 9, 0, 1)};
    p.add_block(b0);
    p.add_block(b1);
    p.block(0).fallthrough = 1;
    p.set_entry(0);
    p.validate();
  }
};

std::vector<BlockErrorDistributions> constant_conditionals(const isa::Program& p, double pc,
                                                           double pe, std::size_t m = 4) {
  std::vector<BlockErrorDistributions> cond(p.block_count());
  for (BlockId b = 0; b < p.block_count(); ++b) {
    cond[b].executed = true;
    cond[b].instr.resize(p.block(b).size());
    for (auto& d : cond[b].instr) {
      d.p_correct = stat::Samples(m, pc);
      d.p_error = stat::Samples(m, pe);
    }
  }
  return cond;
}

TEST(MarginalSolver, StraightLineRecurrence) {
  StraightFixture f;
  const isa::Cfg cfg(f.p);
  isa::Executor ex(f.p, cfg);
  ex.run({});
  const double pc = 0.01;
  const double pe = 0.3;
  const auto cond = constant_conditionals(f.p, pc, pe);
  const MarginalSolver solver(f.p, cfg, ex.profile());
  const auto marg = solver.solve(cond);

  // Entry: flushed state p_in = 1 (Eq. 2 with the entry pseudo-edge).
  EXPECT_NEAR(marg[0].p_in[0], 1.0, 1e-12);
  // First instruction: p = pe * 1 + pc * 0 = pe.
  EXPECT_NEAR(marg[0].instr[0][0], pe, 1e-12);
  // B1's input is B0's output.
  EXPECT_NEAR(marg[1].p_in[0], pe, 1e-12);
  // Second instruction: pe * pe + pc * (1 - pe).
  EXPECT_NEAR(marg[1].instr[0][0], pe * pe + pc * (1.0 - pe), 1e-12);
}

/// Self-loop program: B0 -> B1 (loops N-1 times) -> B2.
struct LoopFixture {
  isa::Program p{"loop"};
  LoopFixture() {
    isa::BasicBlock b0;
    b0.instructions = {make(Opcode::kMovi, 1, 0, 0, 4)};
    isa::BasicBlock b1;
    b1.instructions = {make(Opcode::kSubi, 1, 1, 0, 1), make(Opcode::kBne, 0, 1, 0)};
    isa::BasicBlock b2;
    b2.instructions = {make(Opcode::kNop)};
    p.add_block(b0);
    p.add_block(b1);
    p.add_block(b2);
    p.block(0).fallthrough = 1;
    p.block(1).taken = 1;
    p.block(1).fallthrough = 2;
    p.set_entry(0);
    p.validate();
  }
};

TEST(MarginalSolver, LoopFixedPointSatisfiesEquations) {
  LoopFixture f;
  const isa::Cfg cfg(f.p);
  isa::Executor ex(f.p, cfg);
  ex.run({});
  const double pc = 0.02;
  const double pe = 0.4;
  const auto cond = constant_conditionals(f.p, pc, pe);
  const MarginalSolver solver(f.p, cfg, ex.profile());
  const auto marg = solver.solve(cond);

  // Verify Eq. (2) at the loop header: p_in(B1) = w_fall * out(B0) +
  // w_back * out(B1) with the measured activation probabilities.
  const auto& preds = cfg.predecessors(1);
  double expected = 0.0;
  for (std::size_t j = 0; j < preds.size(); ++j) {
    const double w = ex.profile().edge_activation(1, j);
    const BlockId t = preds[j].from;
    const double out_t = marg[t].instr.back()[0];
    expected += w * out_t;
  }
  EXPECT_NEAR(marg[1].p_in[0], expected, 1e-9);

  // All probabilities are valid.
  for (const auto& bm : marg) {
    for (const auto& instr : bm.instr) {
      for (std::size_t w = 0; w < instr.size(); ++w) {
        EXPECT_GE(instr[w], 0.0);
        EXPECT_LE(instr[w], 1.0);
      }
    }
  }
}

TEST(MarginalSolver, ReplaySchemeCollapsesToPc) {
  // With p^e == p^c the marginal equals p^c everywhere (Eq. 1 degenerates).
  LoopFixture f;
  const isa::Cfg cfg(f.p);
  isa::Executor ex(f.p, cfg);
  ex.run({});
  const double pc = 0.05;
  const auto cond = constant_conditionals(f.p, pc, pc);
  const MarginalSolver solver(f.p, cfg, ex.profile());
  const auto marg = solver.solve(cond);
  for (const auto& bm : marg) {
    if (!bm.executed) continue;
    for (const auto& instr : bm.instr) EXPECT_NEAR(instr[0], pc, 1e-12);
  }
}

// --- Estimator -----------------------------------------------------------------

TEST(Estimator, LambdaMatchesHandComputation) {
  StraightFixture f;
  const isa::Cfg cfg(f.p);
  isa::Executor ex(f.p, cfg);
  ex.run({});
  const double pc = 0.01;
  const double pe = 0.3;
  const auto cond = constant_conditionals(f.p, pc, pe);
  const MarginalSolver solver(f.p, cfg, ex.profile());
  const auto marg = solver.solve(cond);
  EstimatorInputs in;
  in.program = &f.p;
  in.profile = &ex.profile();
  in.conditionals = &cond;
  in.marginals = &marg;
  const auto est = estimate_error_rate(in);
  const double p1 = pe;
  const double p2 = pe * pe + pc * (1.0 - pe);
  EXPECT_NEAR(est.lambda.mean, p1 + p2, 1e-9);
  EXPECT_EQ(est.total_instructions, 2u);
  EXPECT_NEAR(est.rate_mean(), (p1 + p2) / 2.0, 1e-9);
  // Constant conditionals: no data variation at all.
  EXPECT_NEAR(est.lambda.sd, 0.0, 1e-12);
}

TEST(Estimator, ExecutionScaleExtrapolates) {
  StraightFixture f;
  const isa::Cfg cfg(f.p);
  isa::Executor ex(f.p, cfg);
  ex.run({});
  const auto cond = constant_conditionals(f.p, 0.01, 0.2);
  const MarginalSolver solver(f.p, cfg, ex.profile());
  const auto marg = solver.solve(cond);
  EstimatorInputs in;
  in.program = &f.p;
  in.profile = &ex.profile();
  in.conditionals = &cond;
  in.marginals = &marg;
  in.execution_scale = 50.0;  // keep lambda > 1 so min{1, 1/lambda} = 1/lambda
  const auto base = estimate_error_rate(in);
  in.execution_scale = 50000.0;
  const auto scaled = estimate_error_rate(in);
  EXPECT_NEAR(scaled.lambda.mean, 1000.0 * base.lambda.mean, 1e-4 * scaled.lambda.mean);
  EXPECT_NEAR(scaled.rate_mean(), base.rate_mean(), 1e-12);
  // With lambda > 1 on both sides the Chen-Stein ratio (b1+b2)/lambda is
  // scale-invariant.
  EXPECT_NEAR(scaled.dk_count, base.dk_count, 1e-9);
}

TEST(Estimator, RateCdfIsMonotoneAndBracketedByBounds) {
  StraightFixture f;
  const isa::Cfg cfg(f.p);
  isa::Executor ex(f.p, cfg);
  ex.run({});
  // Add data variation so lambda has spread.
  auto cond = constant_conditionals(f.p, 0.01, 0.3, 8);
  for (auto& bd : cond) {
    for (auto& d : bd.instr) {
      for (std::size_t w = 0; w < d.p_correct.size(); ++w)
        d.p_correct[w] = 0.005 + 0.002 * static_cast<double>(w);
    }
  }
  const MarginalSolver solver(f.p, cfg, ex.profile());
  const auto marg = solver.solve(cond);
  EstimatorInputs in;
  in.program = &f.p;
  in.profile = &ex.profile();
  in.conditionals = &cond;
  in.marginals = &marg;
  in.execution_scale = 1e6;  // large-count regime
  const auto est = estimate_error_rate(in);

  double prev = -1.0;
  for (double r = 0.0; r <= 0.02; r += 0.001) {
    const double c = est.rate_cdf(r);
    EXPECT_GE(c, prev - 1e-12);
    prev = c;
    EXPECT_LE(est.rate_cdf_lower(r), c + 1e-9);
    EXPECT_GE(est.rate_cdf_upper(r), c - 1e-9);
  }
}

TEST(Estimator, ChenSteinRadiusExtensionIsLooserOrEqual) {
  LoopFixture f;
  const isa::Cfg cfg(f.p);
  isa::Executor ex(f.p, cfg);
  ex.run({});
  const auto cond = constant_conditionals(f.p, 0.02, 0.5);
  const MarginalSolver solver(f.p, cfg, ex.profile());
  const auto marg = solver.solve(cond);
  EstimatorInputs in;
  in.program = &f.p;
  in.profile = &ex.profile();
  in.conditionals = &cond;
  in.marginals = &marg;
  in.execution_scale = 100.0;
  in.chen_stein_radius = 1;
  const auto r1 = estimate_error_rate(in);
  in.chen_stein_radius = 4;
  const auto r4 = estimate_error_rate(in);
  // Growing the neighbourhood only adds non-negative terms.
  EXPECT_GE(r4.dk_count, r1.dk_count - 1e-12);
  EXPECT_GT(r1.dk_count, 0.0);
  EXPECT_LE(r4.dk_count, 1.0);
}

// --- Monte Carlo ----------------------------------------------------------------

TEST(MonteCarlo, MatchesAnalyticMeanOnStraightLine) {
  StraightFixture f;
  const isa::Cfg cfg(f.p);
  isa::ExecutorConfig ecfg;
  ecfg.record_block_trace = true;
  isa::Executor ex(f.p, cfg, ecfg);
  ex.run({});
  const double pc = 0.05;
  const double pe = 0.5;
  const auto cond = constant_conditionals(f.p, pc, pe);
  support::Rng rng(7);
  const auto counts = monte_carlo_error_counts(ex.profile(), cond, 200000, rng);
  double mean = 0.0;
  for (auto c : counts) mean += static_cast<double>(c);
  mean /= static_cast<double>(counts.size());
  const double p1 = pe;  // flushed entry
  const double p2 = pe * p1 + pc * (1.0 - p1);
  EXPECT_NEAR(mean, p1 + p2, 0.01);
}

TEST(MonteCarlo, RequiresTrace) {
  StraightFixture f;
  const isa::Cfg cfg(f.p);
  isa::Executor ex(f.p, cfg);  // no trace recording
  ex.run({});
  const auto cond = constant_conditionals(f.p, 0.1, 0.1);
  support::Rng rng(1);
  EXPECT_THROW(monte_carlo_error_counts(ex.profile(), cond, 10, rng), std::invalid_argument);
}

TEST(MonteCarlo, EmpiricalCdfBasics) {
  const std::vector<std::uint64_t> counts = {0, 1, 1, 2, 5};
  EXPECT_NEAR(empirical_cdf(counts, 0), 0.2, 1e-12);
  EXPECT_NEAR(empirical_cdf(counts, 1), 0.6, 1e-12);
  EXPECT_NEAR(empirical_cdf(counts, 5), 1.0, 1e-12);
}

// --- Full framework (integration smoke) -------------------------------------------

class FrameworkFixture : public ::testing::Test {
 protected:
  static const netlist::Pipeline& pipeline() {
    static const netlist::Pipeline p = netlist::build_pipeline({});
    return p;
  }
};

TEST_F(FrameworkFixture, EndToEndLoopProgram) {
  LoopFixture f;
  FrameworkConfig cfg;
  cfg.spec = timing::TimingSpec{1300.0};
  ErrorRateFramework fw(pipeline(), cfg);
  const auto result = fw.analyze(f.p, {isa::ProgramInput{}});
  EXPECT_EQ(result.basic_blocks, 3u);
  EXPECT_GT(result.instructions, 0u);
  EXPECT_GE(result.estimate.rate_mean(), 0.0);
  EXPECT_LE(result.estimate.rate_mean(), 1.0);
  EXPECT_GE(result.estimate.dk_count, 0.0);
  EXPECT_LE(result.estimate.dk_count, 1.0);
  // Artifacts populated.
  EXPECT_EQ(fw.last().conditionals.size(), 3u);
  EXPECT_EQ(fw.last().marginals.size(), 3u);
}

TEST_F(FrameworkFixture, HigherFrequencyRaisesErrorRate) {
  LoopFixture f;
  FrameworkConfig cfg;
  cfg.spec = timing::TimingSpec{1400.0};
  ErrorRateFramework fw(pipeline(), cfg);
  const double slow = fw.analyze(f.p, {isa::ProgramInput{}}).estimate.rate_mean();
  fw.set_spec(timing::TimingSpec{1000.0});
  const double fast = fw.analyze(f.p, {isa::ProgramInput{}}).estimate.rate_mean();
  EXPECT_GE(fast, slow);
}

TEST_F(FrameworkFixture, DeterministicAcrossRepeats) {
  LoopFixture f;
  FrameworkConfig cfg;
  cfg.spec = timing::TimingSpec{1300.0};
  ErrorRateFramework a(pipeline(), cfg);
  ErrorRateFramework b(pipeline(), cfg);
  const auto ra = a.analyze(f.p, {isa::ProgramInput{}});
  const auto rb = b.analyze(f.p, {isa::ProgramInput{}});
  EXPECT_DOUBLE_EQ(ra.estimate.rate_mean(), rb.estimate.rate_mean());
  EXPECT_DOUBLE_EQ(ra.estimate.dk_count, rb.estimate.dk_count);
}

TEST_F(FrameworkFixture, RejectsNonPositiveOrNonFiniteClockPeriod) {
  FrameworkConfig good;
  good.spec = timing::TimingSpec{1300.0};
  ErrorRateFramework fw(pipeline(), good);
  for (const double period : {0.0, -1300.0, std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    FrameworkConfig cfg;
    cfg.spec = timing::TimingSpec{period};
    EXPECT_THROW(ErrorRateFramework(pipeline(), cfg), std::invalid_argument) << period;
    EXPECT_THROW(fw.set_spec(timing::TimingSpec{period}), std::invalid_argument) << period;
  }
  // A rejected set_spec leaves the operating point unchanged.
  EXPECT_EQ(fw.config().spec.period_ps, 1300.0);
}

// --- Instruction error model against its per-slot formula ---------------------

/// Pr(DTS < 0) of one slot, evaluated the direct way: the datapath DTS of
/// the sampled context (a bubble in front after an error under pipeline
/// flush), its statistical minimum with the control DTS, and the normal CDF.
double slot_probability(const dta::DatapathModel& datapath, const timing::TimingSpec& spec,
                        CorrectionScheme scheme, const std::optional<dta::DtsGaussian>& ctrl,
                        const isa::InstrDynContext& ctx, bool prev_errored) {
  isa::ExContext prev = ctx.prev;
  if (prev_errored && scheme == CorrectionScheme::kPipelineFlush) prev = isa::ExContext{};
  const auto data = datapath.ex_slack(ctx.cur, prev, spec);
  std::optional<dta::DtsGaussian> dts;
  if (ctrl.has_value() && data.has_value()) {
    dts = dta::dts_min(*ctrl, *data);
  } else if (ctrl.has_value()) {
    dts = ctrl;
  } else if (data.has_value()) {
    dts = data;
  }
  return dts.has_value() ? dts->slack.prob_below_zero() : 0.0;
}

struct SlotSource {
  const isa::EdgeSamples* samples;
  const dta::EdgeControlDts* control;
  std::size_t slots;  ///< largest-remainder share of the M slots
};

/// An executed block's sources (entry pseudo-edge first, then the traversed
/// incoming edges) with their share of the M slots.
std::vector<SlotSource> slot_sources(const isa::BlockProfile& bp,
                                     const dta::BlockControlDts& control, std::size_t m) {
  std::vector<std::pair<SlotSource, std::uint64_t>> counted;
  if (bp.entry_count > 0)
    counted.push_back({{&bp.entry_samples, &control.entry, 0}, bp.entry_count});
  for (std::size_t j = 0; j < bp.edge_counts.size(); ++j) {
    if (bp.edge_counts[j] > 0)
      counted.push_back({{&bp.edge_samples[j], &control.per_edge[j], 0}, bp.edge_counts[j]});
  }
  std::uint64_t total = 0;
  for (const auto& c : counted) total += c.second;
  std::size_t assigned = 0;
  std::vector<std::pair<double, std::size_t>> remainders;
  for (std::size_t s = 0; s < counted.size(); ++s) {
    const double exact = static_cast<double>(m) * static_cast<double>(counted[s].second) /
                         static_cast<double>(total);
    counted[s].first.slots = static_cast<std::size_t>(exact);
    assigned += counted[s].first.slots;
    remainders.emplace_back(exact - static_cast<double>(counted[s].first.slots), s);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t r = 0; assigned < m; ++r, ++assigned)
    ++counted[remainders[r % remainders.size()].second].first.slots;
  std::vector<SlotSource> out;
  for (const auto& c : counted) out.push_back(c.first);
  return out;
}

/// The recorded context of instruction k in a source's a-th slot; nullopt
/// when the reservoir holds none (a sample cut short by the budget guard).
std::optional<isa::InstrDynContext> slot_context(const SlotSource& src, std::size_t a,
                                                 std::size_t k) {
  const auto& dyn = src.samples->samples;
  if (dyn.empty() || k >= dyn[a % dyn.size()].instrs.size()) return std::nullopt;
  return dyn[a % dyn.size()].instrs[k];
}

/// InstructionErrorModel::build evaluated slot by slot.
std::vector<BlockErrorDistributions> oracle_build(
    const dta::DatapathModel& datapath, const timing::TimingSpec& spec,
    const ErrorModelConfig& config, const isa::Program& program,
    const isa::ProgramProfile& profile, const std::vector<dta::BlockControlDts>& control) {
  const std::size_t m = config.mixed_samples;
  std::vector<BlockErrorDistributions> out(program.block_count());
  for (BlockId b = 0; b < program.block_count(); ++b) {
    const isa::BasicBlock& blk = program.block(b);
    out[b].instr.assign(blk.size(), {stat::Samples(m, 0.0), stat::Samples(m, 0.0)});
    if (profile.blocks[b].executions == 0) continue;
    out[b].executed = true;
    std::size_t slot = 0;
    for (const SlotSource& src : slot_sources(profile.blocks[b], control[b], m)) {
      for (std::size_t a = 0; a < src.slots; ++a, ++slot) {
        for (std::size_t k = 0; k < blk.size(); ++k) {
          const std::optional<dta::DtsGaussian> ctrl =
              k < src.control->instr.size() ? src.control->instr[k] : std::nullopt;
          const auto ctx = slot_context(src, a, k);
          if (!ctx.has_value()) {
            isa::InstrDynContext empty;
            empty.cur.op = blk.instructions[k].op;
            empty.cur.unit = isa::ex_unit(blk.instructions[k].op);
            out[b].instr[k].p_correct[slot] =
                ctrl.has_value() ? ctrl->slack.prob_below_zero() : 0.0;
            out[b].instr[k].p_error[slot] =
                slot_probability(datapath, spec, config.scheme, ctrl, empty, true);
            continue;
          }
          out[b].instr[k].p_correct[slot] =
              slot_probability(datapath, spec, config.scheme, ctrl, *ctx, false);
          out[b].instr[k].p_error[slot] =
              slot_probability(datapath, spec, config.scheme, ctrl, *ctx, true);
        }
      }
    }
  }
  return out;
}

/// Distinct (source, instruction, arrival class) triples the slots of a
/// build meet: the most Pr(DTS < 0) evaluations a build needs.
std::size_t distinct_class_triples(const ErrorModelConfig& config, const isa::Program& program,
                                   const isa::ProgramProfile& profile,
                                   const std::vector<dta::BlockControlDts>& control) {
  using dta::DatapathModel;
  std::size_t triples = 0;
  for (BlockId b = 0; b < program.block_count(); ++b) {
    if (profile.blocks[b].executions == 0) continue;
    const isa::BasicBlock& blk = program.block(b);
    const std::size_t m = config.mixed_samples;
    for (const SlotSource& src : slot_sources(profile.blocks[b], control[b], m)) {
      for (std::size_t k = 0; k < blk.size(); ++k) {
        std::set<int> classes;
        for (std::size_t a = 0; a < src.slots; ++a) {
          const auto ctx = slot_context(src, a, k);
          const isa::Opcode op = blk.instructions[k].op;
          const isa::ExContext cur =
              ctx.has_value() ? ctx->cur : isa::ExContext{0, 0, isa::ex_unit(op), op};
          classes.insert(ctx.has_value() ? DatapathModel::arrival_class(cur, ctx->prev)
                                         : DatapathModel::kNoArrival);
          const bool bubble = !ctx.has_value() || config.scheme == CorrectionScheme::kPipelineFlush;
          classes.insert(DatapathModel::arrival_class(cur, bubble ? isa::ExContext{} : ctx->prev));
        }
        triples += classes.size();
      }
    }
  }
  return triples;
}

/// Slots whose p^c or p^e differ in any bit.
std::size_t differing_slots(const std::vector<BlockErrorDistributions>& x,
                            const std::vector<BlockErrorDistributions>& y) {
  std::size_t diff = 0;
  EXPECT_EQ(x.size(), y.size());
  for (std::size_t b = 0; b < std::min(x.size(), y.size()); ++b) {
    EXPECT_EQ(x[b].executed, y[b].executed);
    EXPECT_EQ(x[b].instr.size(), y[b].instr.size());
    for (std::size_t k = 0; k < std::min(x[b].instr.size(), y[b].instr.size()); ++k) {
      for (const auto side :
           {&InstrErrorDistributions::p_correct, &InstrErrorDistributions::p_error}) {
        const stat::Samples& u = x[b].instr[k].*side;
        const stat::Samples& v = y[b].instr[k].*side;
        EXPECT_EQ(u.size(), v.size());
        for (std::size_t i = 0; i < std::min(u.size(), v.size()); ++i) {
          if (std::bit_cast<std::uint64_t>(u[i]) != std::bit_cast<std::uint64_t>(v[i])) ++diff;
        }
      }
    }
  }
  return diff;
}

TEST(InstructionErrorModel, BuildMatchesPerSlotFormulaBitForBit) {
  static const netlist::Pipeline pipeline = netlist::build_pipeline({});
  obs::Counter& clark_calls = obs::MetricsRegistry::instance().counter("stat.clark_min_calls");
  for (const char* name : {"bitcount", "pgp.encode"}) {
    SCOPED_TRACE(name);
    const auto& specs = workloads::mibench_specs();
    const auto spec = std::find_if(specs.begin(), specs.end(), [&](const auto& w) {
      return w.name == name;
    });
    ASSERT_NE(spec, specs.end());
    const isa::Program program = workloads::generate_program(*spec);
    // At 1000 ps the control DTS decides part of the probabilities, so a
    // class table that leaked from one source into the next would show.
    FrameworkConfig cfg;
    cfg.spec = timing::TimingSpec{1000.0};
    cfg.executor = workloads::executor_config_for(*spec, 4);
    ErrorRateFramework fw(pipeline, cfg);
    (void)fw.analyze(program, workloads::generate_inputs(*spec, 4, 2026));
    const auto& last = fw.last();

    // The recorded profile, and a copy whose first sample of every
    // multi-instruction block lacks contexts past its first instruction
    // (what the budget guard leaves behind), for the no-context branch.
    const isa::ProgramProfile& recorded = last.executor->profile();
    isa::ProgramProfile truncated = recorded;
    std::size_t cut = 0;
    auto truncate_first = [&](isa::EdgeSamples& es) {
      if (es.samples.empty() || es.samples[0].instrs.size() < 2) return;
      es.samples[0].instrs.resize(1);
      ++cut;
    };
    for (isa::BlockProfile& bp : truncated.blocks) {
      truncate_first(bp.entry_samples);
      for (isa::EdgeSamples& es : bp.edge_samples) truncate_first(es);
    }
    ASSERT_GT(cut, 0u);

    for (const CorrectionScheme scheme :
         {CorrectionScheme::kPipelineFlush, CorrectionScheme::kReplayWithoutFlush}) {
      SCOPED_TRACE(scheme == CorrectionScheme::kPipelineFlush ? "flush" : "replay");
      ErrorModelConfig config;
      config.scheme = scheme;
      const InstructionErrorModel model(fw.datapath_model(), cfg.spec, config);
      const std::array<const isa::ProgramProfile*, 2> profiles = {&recorded, &truncated};
      for (const isa::ProgramProfile* profile : profiles) {
        const std::uint64_t before = clark_calls.value();
        const auto built = model.build(program, *last.cfg, *profile, last.control);
        const std::uint64_t calls = clark_calls.value() - before;
        const auto expected = oracle_build(fw.datapath_model(), cfg.spec, config, program,
                                           *profile, last.control);
        EXPECT_EQ(differing_slots(built, expected), 0u);
        EXPECT_LE(calls, distinct_class_triples(config, program, *profile, last.control));
      }
    }
  }
}

}  // namespace
}  // namespace terrors::core
