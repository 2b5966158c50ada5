#include "core/marginal.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/fault_injection.hpp"
#include "support/check.hpp"

namespace terrors::core {

using isa::BlockId;

SparseMatrix SparseMatrix::from_dense(const std::vector<double>& a, std::size_t n) {
  TE_REQUIRE(a.size() == n * n, "matrix size mismatch");
  SparseMatrix m;
  m.rows.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < n; ++c) {
      if (a[i * n + c] != 0.0) m.rows[i].push_back({static_cast<std::uint32_t>(c), a[i * n + c]});
    }
  }
  return m;
}

std::vector<double> SparseLu::solve(const SparseMatrix& a, const std::vector<double>& b) {
  const std::size_t n = b.size();
  TE_REQUIRE(a.size() == n, "matrix size mismatch");
  static obs::Counter& solves = obs::MetricsRegistry::instance().counter("solver.linear_solves");
  solves.increment();

  rows_.resize(n);
  col_rows_.resize(n);
  row_at_.resize(n);
  pos_of_.resize(n);
  for (auto& rows : col_rows_) rows.clear();
  // Singularity threshold relative to the system's scale: a uniformly
  // scaled matrix (e.g. tiny edge weights) must solve exactly like its
  // well-scaled counterpart instead of tripping an absolute cutoff.
  double max_abs = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    rows_[i].assign(a.rows[i].begin(), a.rows[i].end());
    for (std::size_t k = 0; k < rows_[i].size(); ++k) {
      const SparseMatrix::Entry& e = rows_[i][k];
      TE_REQUIRE(e.col < n && (k == 0 || rows_[i][k - 1].col < e.col),
                 "sparse row entries must have increasing columns below n");
      col_rows_[e.col].push_back(i);
      max_abs = std::max(max_abs, std::fabs(e.value));
    }
    row_at_[i] = pos_of_[i] = i;
  }
  TE_REQUIRE(max_abs > 0.0, "singular system");
  const double pivot_tol = 1e-14 * max_abs;
  b_.assign(b.begin(), b.end());

  // Invariant: at step `col`, no row at position >= col holds an entry
  // left of `col`, so a row with an entry in column `col` starts with it.
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot: the largest |entry| at or below the diagonal, the
    // topmost on a tie (what a top-down scan for a strictly larger entry
    // picks).  Rows without an entry in the column hold zeros there.
    const auto& top = rows_[row_at_[col]];
    std::size_t pivot = col;
    double best = !top.empty() && top.front().col == col ? std::fabs(top.front().value) : 0.0;
    for (const std::uint32_t r : col_rows_[col]) {
      const std::size_t pos = pos_of_[r];
      if (pos <= col) continue;
      const double v = std::fabs(rows_[r].front().value);
      if (v > best || (v == best && pos < pivot)) {
        best = v;
        pivot = pos;
      }
    }
    TE_REQUIRE(best > pivot_tol, "singular system");
    if (pivot != col) {
      std::swap(row_at_[col], row_at_[pivot]);
      pos_of_[row_at_[col]] = static_cast<std::uint32_t>(col);
      pos_of_[row_at_[pivot]] = static_cast<std::uint32_t>(pivot);
    }
    const std::uint32_t p = row_at_[col];
    const auto& prow = rows_[p];
    const double inv = 1.0 / prow.front().value;
    for (const std::uint32_t r : col_rows_[col]) {
      if (pos_of_[r] <= col) continue;
      auto& row = rows_[r];
      const double f = row.front().value * inv;
      if (f == 0.0) {
        row.erase(row.begin());
        continue;
      }
      // row -= f * prow right of `col`: the entries only the pivot row
      // holds fill in as 0 - f * p, those only `row` holds stay as they
      // are, and the eliminated entry itself is never read again.
      merged_.clear();
      auto ri = row.begin() + 1;
      auto pi = prow.begin() + 1;
      while (ri != row.end() || pi != prow.end()) {
        if (pi == prow.end() || (ri != row.end() && ri->col < pi->col)) {
          merged_.push_back(*ri++);
        } else if (ri == row.end() || pi->col < ri->col) {
          merged_.push_back({pi->col, 0.0 - f * pi->value});
          col_rows_[pi->col].push_back(r);
          ++pi;
        } else {
          merged_.push_back({ri->col, ri->value - f * pi->value});
          ++ri;
          ++pi;
        }
      }
      row.swap(merged_);
      b_[r] -= f * b_[p];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t pos = n; pos-- > 0;) {
    const auto& row = rows_[row_at_[pos]];
    double s = b_[row_at_[pos]];
    for (std::size_t k = 1; k < row.size(); ++k) s -= row[k].value * x[row[k].col];
    x[pos] = s / row.front().value;
  }
  return x;
}

namespace {

/// Row i of A x, summed over the stored entries in column order.
double row_dot(const std::vector<SparseMatrix::Entry>& row, const std::vector<double>& x) {
  double ax = 0.0;
  for (const SparseMatrix::Entry& e : row) ax += e.value * x[e.col];
  return ax;
}

double max_residual_of(const SparseMatrix& a, const std::vector<double>& b,
                       const std::vector<double>& x) {
  double r = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i)
    r = std::max(r, std::fabs(row_dot(a.rows[i], x) - b[i]));
  return r;
}

bool all_finite(const std::vector<double>& x) {
  for (const double v : x) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

RobustSolveResult solve_scc_robust(SparseLu& lu, const SparseMatrix& a,
                                   const std::vector<double>& b,
                                   std::optional<std::uint64_t> fault_key) {
  const std::size_t n = b.size();
  TE_REQUIRE(a.size() == n, "matrix size mismatch");
  // Acceptance threshold, relative to the right-hand side's scale.
  // Healthy probability systems land near 1e-16, so the direct result is
  // accepted bit-identically; only genuinely sick solves go further.
  double b_scale = 1.0;
  for (const double v : b) b_scale = std::max(b_scale, std::fabs(v));
  const double accept = 1e-8 * b_scale;

  RobustSolveResult out;
  bool solved = false;
  try {
    if (fault_key.has_value()) robust::maybe_fault("solver.pivot", *fault_key);
    out.x = lu.solve(a, b);
    solved = all_finite(out.x);
    if (solved) {
      out.residual = max_residual_of(a, b, out.x);
      if (out.residual > accept) {
        // One step of iterative refinement: solve A dx = b - A x.
        // Registered lazily: a healthy run's metrics stay exactly as before.
        obs::MetricsRegistry::instance().counter("solver.refinements").increment();
        out.degraded = true;
        std::vector<double> r(n, 0.0);
        for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - row_dot(a.rows[i], out.x);
        const std::vector<double> dx = lu.solve(a, r);
        std::vector<double> refined = out.x;
        for (std::size_t i = 0; i < n; ++i) refined[i] += dx[i];
        if (all_finite(refined)) {
          const double res = max_residual_of(a, b, refined);
          if (res < out.residual) {
            out.x = std::move(refined);
            out.residual = res;
          }
        }
        solved = out.residual <= accept;
      }
    }
  } catch (const std::exception&) {
    solved = false;  // singular (or injected) — fall through to fixed point
  }
  if (solved) return out;

  // Bounded fixed-point fallback.  The marginal systems have the form
  // x = C x + r with C = I - A the weighted predecessor mixing (row sums
  // of |C| <= 1 for probability weights), so the iteration contracts;
  // clamping to [0,1] keeps every iterate a probability even when the
  // inputs are degenerate, and the iteration cap bounds the work.
  obs::MetricsRegistry::instance().counter("solver.fixed_point_fallbacks").increment();
  out.degraded = true;
  std::vector<double> x(n, 0.0);
  std::vector<double> next(n, 0.0);
  for (int iter = 0; iter < 256; ++iter) {
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      // C's nonzeros in column order: -a_ic off the diagonal, and 1 - a_ii
      // on it, stored or not.
      double v = b[i];
      const auto term = [&](std::size_t c, double cij) {
        if (cij != 0.0) v += cij * x[c];
      };
      const auto& row = a.rows[i];
      auto e = row.begin();
      for (; e != row.end() && e->col < i; ++e) term(e->col, -e->value);
      if (e != row.end() && e->col == i) {
        term(i, 1.0 - e->value);
        ++e;
      } else {
        term(i, 1.0);
      }
      for (; e != row.end(); ++e) term(e->col, -e->value);
      if (!std::isfinite(v)) v = 0.0;
      v = std::clamp(v, 0.0, 1.0);
      delta = std::max(delta, std::fabs(v - x[i]));
      next[i] = v;
    }
    x.swap(next);
    if (delta < 1e-12) break;
  }
  out.x = std::move(x);
  out.residual = max_residual_of(a, b, out.x);
  return out;
}

MarginalSolver::MarginalSolver(const isa::Program& program, const isa::Cfg& cfg,
                               const isa::ProgramProfile& profile)
    : program_(program), cfg_(cfg), profile_(profile) {
  TE_REQUIRE(profile.blocks.size() == program.block_count(), "profile/program mismatch");
}

std::vector<BlockMarginals> MarginalSolver::solve(
    const std::vector<BlockErrorDistributions>& cond, std::vector<SccSolveDiag>* sccs) const {
  const std::size_t nb = program_.block_count();
  TE_REQUIRE(cond.size() == nb, "conditional distributions/program mismatch");
  obs::ScopedSpan span("marginal.solve");
  span.counter("blocks", static_cast<double>(nb));
  span.counter("sccs", static_cast<double>(cfg_.scc_topo_order().size()));
  static obs::Counter& sccs_metric =
      obs::MetricsRegistry::instance().counter("solver.sccs_processed");
  std::size_t m = 0;
  for (const auto& bd : cond) {
    if (!bd.instr.empty()) {
      m = bd.instr[0].p_correct.size();
      break;
    }
  }
  TE_REQUIRE(m > 0, "no instruction distributions");
  span.counter("samples", static_cast<double>(m));

  std::vector<BlockMarginals> out(nb);
  for (BlockId b = 0; b < nb; ++b) {
    out[b].p_in = stat::Samples(m, 0.0);
    out[b].instr.assign(program_.block(b).size(), stat::Samples(m, 0.0));
    out[b].executed = cond[b].executed;
  }

  // Edge weights (activation probabilities + entry pseudo-edge).
  auto entry_weight = [&](BlockId b) {
    const auto& bp = profile_.blocks[b];
    return bp.executions == 0
               ? 0.0
               : static_cast<double>(bp.entry_count) / static_cast<double>(bp.executions);
  };
  auto edge_weight = [&](BlockId b, std::size_t j) {
    const auto& bp = profile_.blocks[b];
    return bp.executions == 0
               ? 0.0
               : static_cast<double>(bp.edge_counts[j]) / static_cast<double>(bp.executions);
  };
  std::vector<std::uint8_t> scc_executed(cfg_.scc_count(), 0);
  for (std::uint32_t scc = 0; scc < cfg_.scc_count(); ++scc) {
    const auto& members = cfg_.scc_members(scc);
    scc_executed[scc] = std::any_of(members.begin(), members.end(),
                                    [&](BlockId b) { return cond[b].executed; });
  }

  // Cyclic SCC: x_i - sum_{t in scc} w_ij beta_t x_t = rhs_i.  Row i's
  // shape is the same in every world: the diagonal plus one column per
  // in-SCC predecessor with a nonzero weight.  It is built here once;
  // each world only fills in the values.
  constexpr std::uint32_t kOutside = ~std::uint32_t{0};
  struct Term {
    BlockId from = isa::kNoBlock;
    double w = 0.0;
    std::uint32_t slot = kOutside;  ///< index into Row::shape; kOutside: t is outside the SCC
  };
  // An unexecuted block's row keeps entry 0 and no terms: the x = 0 row.
  struct Row {
    double entry = 0.0;                        ///< entry pseudo-edge weight
    std::vector<SparseMatrix::Entry> shape;    ///< by column: 1 on the diagonal, else 0
    std::vector<Term> terms;                   ///< in predecessor order
  };
  struct CyclicSystem {
    std::vector<Row> rows;
    SparseMatrix mat;
    std::vector<double> rhs;
  };
  std::vector<CyclicSystem> systems(cfg_.scc_count());
  std::vector<std::uint32_t> local(nb, kOutside);
  for (std::uint32_t scc = 0; scc < cfg_.scc_count(); ++scc) {
    if (!cfg_.scc_is_cyclic(scc) || !scc_executed[scc]) continue;
    const auto& members = cfg_.scc_members(scc);
    const std::size_t n = members.size();
    for (std::size_t i = 0; i < n; ++i) local[members[i]] = static_cast<std::uint32_t>(i);
    CyclicSystem& sys = systems[scc];
    sys.rows.resize(n);
    sys.mat.rows.resize(n);
    sys.rhs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const BlockId b = members[i];
      Row& row = sys.rows[i];
      std::vector<std::uint32_t> cols = {static_cast<std::uint32_t>(i)};
      if (cond[b].executed) {
        row.entry = entry_weight(b);
        const auto& preds = cfg_.predecessors(b);
        for (std::size_t j = 0; j < preds.size(); ++j) {
          const double w = edge_weight(b, j);
          if (w == 0.0) continue;
          const BlockId t = preds[j].from;
          row.terms.push_back({t, w, local[t]});
          if (local[t] != kOutside) cols.push_back(local[t]);
        }
        std::sort(cols.begin(), cols.end());
        cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
      }
      const auto slot_of = [&](std::uint32_t col) {
        return static_cast<std::uint32_t>(std::lower_bound(cols.begin(), cols.end(), col) -
                                          cols.begin());
      };
      for (const std::uint32_t c : cols) row.shape.push_back({c, c == i ? 1.0 : 0.0});
      for (Term& term : row.terms) {
        if (term.slot != kOutside) term.slot = slot_of(term.slot);
      }
    }
    for (const BlockId b : members) local[b] = kOutside;
  }

  // Per-sample scalar solve.
  std::vector<double> alpha(nb, 0.0);
  std::vector<double> beta(nb, 0.0);
  std::vector<double> p_in(nb, 0.0);
  SparseLu lu;
  // Per-SCC diagnostics, aggregated across the M sample worlds.
  std::vector<double> scc_residual(cfg_.scc_count(), 0.0);
  std::vector<std::uint8_t> scc_degraded(cfg_.scc_count(), 0);
  for (std::size_t s = 0; s < m; ++s) {
    // Affine fold of Eq. (1): p_out = alpha + beta * p_in.
    for (BlockId b = 0; b < nb; ++b) {
      if (!cond[b].executed) {
        alpha[b] = 0.0;
        beta[b] = 0.0;
        continue;
      }
      double a = 0.0;
      double bb = 1.0;
      for (const auto& d : cond[b].instr) {
        const double pc = d.p_correct[s];
        const double pe = d.p_error[s];
        const double diff = pe - pc;
        a = pc + diff * a;
        bb = diff * bb;
      }
      alpha[b] = a;
      beta[b] = bb;
    }

    // Solve SCCs in topological order.
    std::fill(p_in.begin(), p_in.end(), 0.0);
    sccs_metric.increment(cfg_.scc_topo_order().size());
    for (std::uint32_t scc : cfg_.scc_topo_order()) {
      if (!scc_executed[scc]) continue;
      const auto& members = cfg_.scc_members(scc);
      if (!cfg_.scc_is_cyclic(scc)) {
        const BlockId b = members[0];
        if (!cond[b].executed) continue;
        double v = entry_weight(b) * 1.0;  // flushed state at program start
        const auto& preds = cfg_.predecessors(b);
        for (std::size_t j = 0; j < preds.size(); ++j) {
          const BlockId t = preds[j].from;
          v += edge_weight(b, j) * (alpha[t] + beta[t] * p_in[t]);
        }
        p_in[b] = v;
        continue;
      }

      // Fill in this world's values in predecessor order and drop the
      // exact zeros.  beta_t is the product of t's p^e - p^c, so one
      // instruction with p^e = p^c zeroes its column; on the generated
      // programs that leaves every system the identity (DESIGN §3b).
      CyclicSystem& sys = systems[scc];
      for (std::size_t i = 0; i < members.size(); ++i) {
        const Row& row = sys.rows[i];
        auto& entries = sys.mat.rows[i];
        entries.assign(row.shape.begin(), row.shape.end());
        double r = row.entry;  // flushed state at program start
        for (const Term& term : row.terms) {
          const BlockId t = term.from;
          if (term.slot != kOutside) {
            entries[term.slot].value -= term.w * beta[t];
            r += term.w * alpha[t];
          } else {
            r += term.w * (alpha[t] + beta[t] * p_in[t]);
          }
        }
        std::erase_if(entries, [](const SparseMatrix::Entry& e) { return e.value == 0.0; });
        sys.rhs[i] = r;
      }
      // Degradation-aware solve (DESIGN §5f): the direct sparse LU on
      // healthy systems, iterative refinement / bounded fixed-point on
      // singular or ill-conditioned ones.  The solver.pivot injection site
      // is keyed by SCC id so fault decisions are thread-count independent.
      const RobustSolveResult solved =
          solve_scc_robust(lu, sys.mat, sys.rhs, static_cast<std::uint64_t>(scc));
      if (solved.degraded) scc_degraded[scc] = 1;
      scc_residual[scc] = std::max(scc_residual[scc], solved.residual);
      for (std::size_t i = 0; i < members.size(); ++i) p_in[members[i]] = solved.x[i];
    }

    // Recover per-instruction marginals via the recurrence.
    for (BlockId b = 0; b < nb; ++b) {
      if (!cond[b].executed) continue;
      out[b].p_in[s] = p_in[b];
      double prev = p_in[b];
      for (std::size_t k = 0; k < cond[b].instr.size(); ++k) {
        const double pc = cond[b].instr[k].p_correct[s];
        const double pe = cond[b].instr[k].p_error[s];
        prev = pe * prev + pc * (1.0 - prev);
        out[b].instr[k][s] = prev;
      }
    }
  }

  if (sccs != nullptr) {
    sccs->clear();
    for (std::uint32_t scc : cfg_.scc_topo_order()) {
      if (!scc_executed[scc]) continue;
      sccs->push_back({scc, cfg_.scc_members(scc).size(), cfg_.scc_is_cyclic(scc),
                       scc_residual[scc], scc_degraded[scc] != 0});
    }
  }
  return out;
}

}  // namespace terrors::core
