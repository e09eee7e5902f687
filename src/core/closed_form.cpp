#include "core/closed_form.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace eefei::core {

namespace {

// Clamp helper that respects the open feasibility boundary: value is pulled
// strictly inside (lo, hi) when it sits on an infeasible edge.
double clamp_open_upper(double v, double lo, double hi) {
  const double margin = std::max(1e-9, 1e-9 * std::abs(hi));
  const double upper = hi - margin;
  return std::clamp(v, lo, std::max(lo, upper));
}

}  // namespace

Result<double> k_star(const EnergyObjective& objective, double e) {
  const auto& bound = objective.bound();
  const auto& c = bound.constants();
  const double c1 = bound.epsilon() - c.a2 * (e - 1.0);
  if (c1 <= 0.0) {
    return Error::infeasible("k_star: E too large for the accuracy target");
  }
  const double k_unconstrained = 2.0 * c.a1 / c1;
  const double k_lower = std::max(1.0, c.a1 / c1 * (1.0 + 1e-9));
  const double k_upper = static_cast<double>(objective.n());
  if (k_lower > k_upper) {
    return Error::infeasible("k_star: even K = N cannot meet the target");
  }
  return std::clamp(k_unconstrained, k_lower, k_upper);
}

Result<double> e_star_exact(const EnergyObjective& objective, double k) {
  const auto& bound = objective.bound();
  const auto& c = bound.constants();
  const double b0 = objective.b0();
  const double b1 = objective.b1();
  const double c4 = bound.epsilon() * k - c.a1 + c.a2 * k;  // C4
  const auto e_max = bound.max_feasible_epochs(k);
  if (!e_max.has_value()) {
    return Error::infeasible("e_star: no feasible E for this K");
  }

  // ∂Ê/∂E = 0  ⇔  A2KB0·E² + 2A2KB1·E − B1·C4 = 0.
  const double qa = c.a2 * k * b0;
  const double qb = 2.0 * c.a2 * k * b1;
  const double qc = -b1 * c4;
  double root;
  if (qa <= 0.0) {
    // Degenerate B0 = 0: linear equation.
    root = -qc / qb;
  } else {
    const double disc = qb * qb - 4.0 * qa * qc;
    root = (-qb + std::sqrt(std::max(disc, 0.0))) / (2.0 * qa);
  }
  return clamp_open_upper(root, 1.0, *e_max);
}

Result<double> e_star_paper(const EnergyObjective& objective, double k) {
  const auto& bound = objective.bound();
  const auto& c = bound.constants();
  const double b0 = objective.b0();
  const double b1 = objective.b1();
  const double c4 = bound.epsilon() * k - c.a1 + c.a2 * k;
  const auto e_max = bound.max_feasible_epochs(k);
  if (!e_max.has_value()) {
    return Error::infeasible("e_star: no feasible E for this K");
  }
  // Eq. 17 as printed.
  const double e = (c4 * b1 - c.a2 * b0 * k) / (2.0 * c.a2 * b1 * k);
  return clamp_open_upper(e, 1.0, *e_max);
}

namespace {

Result<std::size_t> pick_best(
    double lo_d, double hi_d,
    const std::function<Result<double>(double)>& eval) {
  const auto lo = static_cast<std::size_t>(std::max(1.0, lo_d));
  const auto hi = static_cast<std::size_t>(std::max(1.0, hi_d));
  Result<double> at_lo = eval(static_cast<double>(lo));
  Result<double> at_hi = eval(static_cast<double>(hi));
  if (!at_lo.ok() && !at_hi.ok()) {
    return Error::infeasible("integer rounding: both neighbours infeasible");
  }
  if (!at_hi.ok()) return lo;
  if (!at_lo.ok()) return hi;
  return at_lo.value() <= at_hi.value() ? lo : hi;
}

}  // namespace

Result<std::size_t> best_integer_k(const EnergyObjective& objective,
                                   double k_cont, double e) {
  k_cont = std::clamp(k_cont, 1.0, static_cast<double>(objective.n()));
  return pick_best(std::floor(k_cont), std::ceil(k_cont),
                   [&](double k) { return objective.value(k, e); });
}

Result<std::size_t> best_integer_e(const EnergyObjective& objective, double k,
                                   double e_cont) {
  e_cont = std::max(e_cont, 1.0);
  return pick_best(std::floor(e_cont), std::ceil(e_cont),
                   [&](double e) { return objective.value(k, e); });
}

}  // namespace eefei::core
