// Validation of the limit-theorem machinery (Section 5) by Monte Carlo on
// small programs — the check the paper could not afford on its slow
// baseline simulator.  The two approximation steps are validated
// separately:
//
//  A. Poisson step (Chen-Stein, Eq. 9): with the data world pinned,
//     N_E | lambda(world) is simulated by walking the recorded block
//     traces and drawing each instruction's error Bernoulli with the
//     paper's Markov correction dependence; the observed Kolmogorov
//     distance to Poisson(lambda(world)) must respect the bound.
//
//  B. Normal step (Stein, Thm 5.2): the empirical distribution of
//     lambda over data worlds is compared against its Gaussian fit.
//     The Stein bound assumes the paper's chain-dependence model;
//     common program inputs correlate far-apart instructions, so the
//     observed distance can exceed it — this run quantifies that gap
//     (the inter-instruction-correlation effect the paper's footnote
//     acknowledges).
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/common.hpp"
#include "core/monte_carlo.hpp"
#include "support/math.hpp"

using namespace terrors;

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  std::printf("Limit-theorem validation vs Monte Carlo (working point %.1f MHz)\n",
              bench::working_spec().frequency_mhz());

  auto cfg = bench::default_config();
  cfg.executor.record_block_trace = true;
  cfg.executor.max_instructions = 12000;  // small programs: MC is affordable
  core::ErrorRateFramework framework(bench::pipeline(), cfg);
  auto cfg_ext = cfg;
  cfg_ext.chen_stein_radius = 6;  // full Chen-Stein terms, Markov-propagated
  core::ErrorRateFramework framework_ext(bench::pipeline(), cfg_ext);

  std::printf("\nA. Poisson approximation per data world (Chen-Stein, Eq. 9)\n");
  std::printf("('Eq.7-8' is the paper's literal bound with radius-1 adjacent pairs;\n"
              " 'extended' uses the full Chen-Stein terms with Markov-propagated\n"
              " E[XaXb] over a radius-6 neighbourhood)\n");
  std::printf("%-14s %6s %10s %10s %12s %10s %10s %8s\n", "Benchmark", "world", "lambda(w)",
              "MC mean", "observed d_K", "Eq.7-8", "extended", "holds");
  bench::hr(90);

  struct LambdaCheck {
    std::string name;
    double observed;
    double stein;
  };
  std::vector<LambdaCheck> lambda_checks;

  for (std::size_t idx : {3u, 0u, 11u, 7u}) {
    const auto& spec = workloads::mibench_specs()[idx];
    const isa::Program program = workloads::generate_program(spec);
    const auto r = framework.analyze(program, workloads::generate_inputs(spec, 2, 2026));
    const auto r_ext =
        framework_ext.analyze(program, workloads::generate_inputs(spec, 2, 2026));
    const auto& est = r.estimate;
    const auto& profile = framework.last().executor->profile();
    const auto& cond = framework.last().conditionals;

    // Per-world lambda values.
    const std::size_t worlds = cond.front().instr.empty()
                                   ? framework.config().error_model.mixed_samples
                                   : cond.front().instr.front().p_correct.size();
    // Reconstruct lambda per world directly from the marginals.
    std::vector<double> lam(worlds, 0.0);
    for (isa::BlockId b = 0; b < program.block_count(); ++b) {
      const auto& bm = framework.last().marginals[b];
      if (!bm.executed) continue;
      const double e_i = static_cast<double>(profile.blocks[b].executions) /
                         static_cast<double>(profile.runs);
      for (const auto& instr : bm.instr)
        for (std::size_t w = 0; w < worlds; ++w) lam[w] += e_i * instr[w];
    }

    for (std::size_t world : {std::size_t{0}, std::size_t{worlds / 2}}) {
      support::Rng rng(4242 + world);
      const auto counts =
          core::monte_carlo_error_counts(profile, cond, 4000, rng,
                                         static_cast<std::ptrdiff_t>(world));
      double mc_mean = 0.0;
      std::uint64_t mc_max = 0;
      for (auto c : counts) {
        mc_mean += static_cast<double>(c);
        mc_max = std::max(mc_max, c);
      }
      mc_mean /= static_cast<double>(counts.size());
      double dk = 0.0;
      for (std::uint64_t k = 0; k <= mc_max + 3; ++k) {
        dk = std::max(dk, std::fabs(core::empirical_cdf(counts, k) -
                                    support::poisson_cdf(static_cast<std::int64_t>(k),
                                                         lam[world])));
      }
      const bool holds = dk <= r_ext.estimate.dk_count + 0.03;  // + MC noise margin
      std::printf("%-14s %6zu %10.2f %10.2f %12.4f %10.4f %10.4f %8s\n", spec.name.c_str(),
                  world, lam[world], mc_mean, dk, est.dk_count, r_ext.estimate.dk_count,
                  holds ? "yes" : "NO");
    }

    // Normal step: empirical lambda distribution vs Gaussian fit.
    stat::Gaussian fit{est.lambda.mean, est.lambda.sd};
    std::vector<double> sorted = lam;
    std::sort(sorted.begin(), sorted.end());
    double dk_norm = 0.0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      const double emp = static_cast<double>(i + 1) / static_cast<double>(sorted.size());
      dk_norm = std::max(dk_norm, std::fabs(emp - fit.cdf(sorted[i])));
    }
    lambda_checks.push_back({spec.name, dk_norm, est.dk_lambda});
  }

  std::printf("\nB. Normal approximation of lambda (Stein, Thm 5.2)\n");
  std::printf("%-14s %14s %14s\n", "Benchmark", "observed d_K", "Stein (chain)");
  bench::hr(46);
  for (const auto& c : lambda_checks)
    std::printf("%-14s %14.4f %14.4f\n", c.name.c_str(), c.observed, c.stein);
  std::printf("\nThe Stein bound certifies normality under the paper's D=2 chain\n"
              "dependence; the observed distance additionally contains the\n"
              "long-range correlation induced by the common program input, i.e.\n"
              "the inter-instruction-correlation effect of Section 5.\n"
              "\nFindings: (1) the literal Eq. 7-8 bound omits the p^2 self-terms\n"
              "and truncates the Markov dependence at distance one, so it can\n"
              "undercut the observed distance when p^e >> p^c produces error\n"
              "bursts; (2) the rigorous extended-neighbourhood bound is always\n"
              "valid here but loose at this (scaled-down) lambda.\n");
  return 0;
}
