#include "core/marginal.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/degrade.hpp"
#include "robust/fault_injection.hpp"
#include "support/check.hpp"

namespace terrors::core {

using isa::BlockId;

std::vector<double> solve_dense(std::vector<double> a, std::vector<double> b) {
  const std::size_t n = b.size();
  TE_REQUIRE(a.size() == n * n, "matrix size mismatch");
  static obs::Counter& solves = obs::MetricsRegistry::instance().counter("solver.linear_solves");
  solves.increment();
  // Singularity threshold relative to the system's scale: a uniformly
  // scaled matrix (e.g. tiny edge weights) must solve exactly like its
  // well-scaled counterpart instead of tripping an absolute cutoff.
  double max_abs = 0.0;
  for (const double v : a) max_abs = std::max(max_abs, std::fabs(v));
  TE_REQUIRE(max_abs > 0.0, "singular system");
  const double pivot_tol = 1e-14 * max_abs;
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
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

namespace {

double max_residual_of(const std::vector<double>& a, const std::vector<double>& b,
                       const std::vector<double>& x) {
  const std::size_t n = b.size();
  double r = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double ax = 0.0;
    for (std::size_t c = 0; c < n; ++c) ax += a[i * n + c] * x[c];
    r = std::max(r, std::fabs(ax - b[i]));
  }
  return r;
}

bool all_finite(const std::vector<double>& x) {
  for (const double v : x) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

RobustSolveResult solve_scc_robust(const std::vector<double>& a, const std::vector<double>& b,
                                   std::optional<std::uint64_t> fault_key) {
  const std::size_t n = b.size();
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
    out.x = solve_dense(a, b);
    solved = all_finite(out.x);
    if (solved) {
      out.residual = max_residual_of(a, b, out.x);
      if (out.residual > accept) {
        // One step of iterative refinement: solve A dx = b - A x.
        // Registered lazily: a healthy run's metrics stay exactly as before.
        obs::MetricsRegistry::instance().counter("solver.refinements").increment();
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

  // Per-sample scalar solve.
  std::vector<double> alpha(nb, 0.0);
  std::vector<double> beta(nb, 0.0);
  std::vector<double> p_in(nb, 0.0);
  // Per-SCC diagnostics, aggregated across the M sample worlds.
  std::vector<double> scc_residual(cfg_.scc_count(), 0.0);
  std::vector<std::uint8_t> scc_degraded(cfg_.scc_count(), 0);
  const auto scc_executed = [&](std::uint32_t scc) {
    const auto& members = cfg_.scc_members(scc);
    return std::any_of(members.begin(), members.end(),
                       [&](BlockId b) { return cond[b].executed; });
  };
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

    // Solve SCCs in topological order.
    std::fill(p_in.begin(), p_in.end(), 0.0);
    sccs_metric.increment(cfg_.scc_topo_order().size());
    for (std::uint32_t scc : cfg_.scc_topo_order()) {
      if (!scc_executed(scc)) continue;
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

      // Cyclic SCC: x_i - sum_{t in scc} w_ij beta_t x_t = rhs_i.
      const std::size_t n = members.size();
      std::vector<std::size_t> local(nb, n);
      for (std::size_t i = 0; i < n; ++i) local[members[i]] = i;
      std::vector<double> mat(n * n, 0.0);
      std::vector<double> rhs(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const BlockId b = members[i];
        mat[i * n + i] = 1.0;
        if (!cond[b].executed) continue;  // x = 0 row
        double r = entry_weight(b) * 1.0;
        const auto& preds = cfg_.predecessors(b);
        for (std::size_t j = 0; j < preds.size(); ++j) {
          const BlockId t = preds[j].from;
          const double w = edge_weight(b, j);
          if (w == 0.0) continue;
          if (local[t] < n) {
            mat[i * n + local[t]] -= w * beta[t];
            r += w * alpha[t];
          } else {
            r += w * (alpha[t] + beta[t] * p_in[t]);
          }
        }
        rhs[i] = r;
      }
      // Degradation-aware solve (DESIGN §5f): bit-identical to solve_dense
      // on healthy systems, iterative refinement / bounded fixed-point on
      // singular or ill-conditioned ones.  The solver.pivot injection site
      // is keyed by SCC id so fault decisions are thread-count independent.
      const RobustSolveResult solved =
          solve_scc_robust(mat, rhs, static_cast<std::uint64_t>(scc));
      if (solved.degraded && !scc_degraded[scc]) {
        scc_degraded[scc] = 1;
        robust::note_degraded(
            "solver", "scc " + std::to_string(scc) +
                          " direct solve rejected; served refinement/fixed-point result");
      }
      scc_residual[scc] = std::max(scc_residual[scc], solved.residual);
      for (std::size_t i = 0; i < n; ++i) p_in[members[i]] = solved.x[i];
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
      if (!scc_executed(scc)) continue;
      sccs->push_back({scc, cfg_.scc_members(scc).size(), cfg_.scc_is_cyclic(scc),
                       scc_residual[scc], scc_degraded[scc] != 0});
    }
  }
  return out;
}

}  // namespace terrors::core
