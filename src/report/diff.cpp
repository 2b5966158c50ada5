#include "report/diff.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <ostream>
#include <stdexcept>

#include "robust/error.hpp"

namespace terrors::report {

namespace {

constexpr double kEps = 1e-12;

double rel_delta(double before, double after) {
  return std::abs(after - before) / std::max(std::abs(before), kEps);
}

}  // namespace

DiffResult diff_reports(const RunReport& before, const RunReport& after,
                        const DiffOptions& options) {
  if (before.schema_version != after.schema_version) {
    robust::raise(robust::Category::kInput, "diff: schema versions differ (" +
                             std::to_string(before.schema_version) + " vs " +
                             std::to_string(after.schema_version) + ")");
  }
  if (before.program != after.program) {
    robust::raise(robust::Category::kInput,
                  "diff: reports are for different programs ('" + before.program +
                             "' vs '" + after.program + "')");
  }

  DiffResult result;
  const auto relative = [&](const char* field, double b, double a) {
    DiffEntry e;
    e.field = field;
    e.old_value = b;
    e.new_value = a;
    e.delta = rel_delta(b, a);
    e.limit = options.max_rel_delta;
    e.regression = e.delta > e.limit;
    result.entries.push_back(std::move(e));
  };
  const auto exact = [&](const char* field, double b, double a) {
    DiffEntry e;
    e.field = field;
    e.old_value = b;
    e.new_value = a;
    e.delta = std::abs(a - b);
    e.limit = 0.0;
    e.regression = e.delta != 0.0;
    result.entries.push_back(std::move(e));
  };

  // Structural identity: the gate compares like with like or not at all.
  exact("period_ps", before.period_ps, after.period_ps);
  exact("instructions", static_cast<double>(before.instructions),
        static_cast<double>(after.instructions));
  exact("basic_blocks", static_cast<double>(before.basic_blocks),
        static_cast<double>(after.basic_blocks));

  // Headline accuracy fields within the relative tolerance.
  relative("rate_mean", before.rate_mean, after.rate_mean);
  relative("rate_sd", before.rate_sd, after.rate_sd);
  relative("lambda_mean", before.lambda_mean, after.lambda_mean);
  relative("lambda_sd", before.lambda_sd, after.lambda_sd);
  relative("dk_lambda", before.dk_lambda, after.dk_lambda);
  relative("dk_count", before.dk_count, after.dk_count);

  // Attribution drift: a block whose error-mass share moved more than the
  // tolerance indicates the *composition* changed even if the headline
  // happens to cancel out.
  std::map<std::uint32_t, double> old_share;
  for (const BlockAttribution& b : before.blocks) old_share[b.block] = b.share;
  double worst_drift = 0.0;
  std::uint32_t worst_block = 0;
  double worst_old = 0.0;
  double worst_new = 0.0;
  std::map<std::uint32_t, double> new_share;
  for (const BlockAttribution& b : after.blocks) new_share[b.block] = b.share;
  const auto consider = [&](std::uint32_t block, double o, double n) {
    const double drift = std::abs(n - o);
    if (drift > worst_drift) {
      worst_drift = drift;
      worst_block = block;
      worst_old = o;
      worst_new = n;
    }
  };
  for (const auto& [block, o] : old_share) {
    const auto it = new_share.find(block);
    consider(block, o, it == new_share.end() ? 0.0 : it->second);
  }
  for (const auto& [block, n] : new_share) {
    if (old_share.find(block) == old_share.end()) consider(block, 0.0, n);
  }
  {
    DiffEntry e;
    e.field = "block_share[" + std::to_string(worst_block) + "]";
    e.old_value = worst_old;
    e.new_value = worst_new;
    e.delta = worst_drift;
    e.limit = options.max_share_drift;
    e.regression = worst_drift > options.max_share_drift;
    result.entries.push_back(std::move(e));
  }

  std::stable_sort(result.entries.begin(), result.entries.end(),
                   [](const DiffEntry& a, const DiffEntry& b) {
                     return a.regression && !b.regression;
                   });
  return result;
}

void write_diff(const DiffResult& result, std::ostream& os) {
  const std::ios_base::fmtflags flags = os.flags();
  os << std::scientific << std::setprecision(6);
  for (const DiffEntry& e : result.entries) {
    os << (e.regression ? "REGRESSION " : "ok         ") << std::setw(24) << std::left << e.field
       << std::right << "  old " << e.old_value << "  new " << e.new_value << "  delta "
       << std::setprecision(3) << e.delta << " (limit " << e.limit << ")"
       << std::setprecision(6) << "\n";
  }
  os << (result.ok() ? "PASS" : "FAIL") << ": " << result.regressions() << " regression(s) in "
     << result.entries.size() << " compared field(s)\n";
  os.flags(flags);
}

}  // namespace terrors::report
