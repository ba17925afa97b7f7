// KKT optimality certificate for lp::Solver results — an oracle that shares
// nothing with the simplex it checks (no pricing, ratio test, tolerances or
// factorization). It reads only the lp::Problem data, the primal point the
// solver returned, and the row duals y from lp::Solver::RowDuals(), and
// verifies the three conditions that together prove optimality of
//
//   minimize c^T x  s.t.  a_i^T x (<= | >= | =) b_i,  lo <= x <= hi:
//
//   1. primal feasibility — every bound and every row holds;
//   2. dual feasibility — each row dual has the sign its row type allows
//      (<= rows y_i <= 0, >= rows y_i >= 0, = rows free), and each reduced
//      cost d_j = c_j - y^T A_j has the sign the bound x_j rests on allows
//      (at lower d_j >= 0, at upper d_j <= 0, strictly between |d_j| = 0);
//   3. complementary slackness — a row that is not tight carries y_i = 0
//      (the interior-variable case of 2 is the bound half of it).
//
// Tolerances are relative to the magnitudes each condition sums, so one
// setting serves LPs with unit costs and routing LPs with 1e6 penalties.
// Shared by the LP test suites and tools/bench_to_json's lp_lu sweep.
#ifndef LDR_TESTS_KKT_H_
#define LDR_TESTS_KKT_H_

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "lp/lp.h"

namespace ldr::lp {

// Returns "" when (x, y) certifies optimality of `p`, otherwise a
// description of the first violated condition.
inline std::string KktViolation(const Problem& p, const std::vector<double>& x,
                                const std::vector<double>& y,
                                double tol = 1e-6) {
  const size_t n = p.VariableCount();
  const size_t m = p.RowCount();
  std::ostringstream why;
  if (x.size() != n || y.size() != m) {
    why << "size mismatch: " << x.size() << " values for " << n
        << " variables, " << y.size() << " duals for " << m << " rows";
    return why.str();
  }
  const std::vector<double>& lo = p.lower_bounds();
  const std::vector<double>& hi = p.upper_bounds();
  const std::vector<double>& c = p.objective();

  // 1. Primal feasibility: bounds.
  for (size_t j = 0; j < n; ++j) {
    double t = tol * (1 + std::abs(x[j]));
    if (!std::isfinite(x[j]) || x[j] < lo[j] - t || x[j] > hi[j] + t) {
      why << "primal: x" << j << " = " << x[j] << " outside [" << lo[j]
          << ", " << hi[j] << "]";
      return why.str();
    }
  }

  // Reduced costs d = c - A^T y, with the magnitude each sums for scaling.
  std::vector<double> d = c;
  std::vector<double> d_scale(n);
  for (size_t j = 0; j < n; ++j) d_scale[j] = 1 + std::abs(c[j]);
  for (size_t i = 0; i < m; ++i) {
    const Row& row = p.rows()[i];
    double lhs = 0, lhs_scale = 1 + std::abs(row.rhs);
    for (const auto& [v, a] : row.coeffs) {
      size_t j = static_cast<size_t>(v);
      lhs += a * x[j];
      lhs_scale += std::abs(a * x[j]);
      d[j] -= a * y[i];
      d_scale[j] += std::abs(a * y[i]);
    }
    // 1. Primal feasibility: rows.
    double t = tol * lhs_scale;
    double r = lhs - row.rhs;  // > 0 over a <= row, < 0 under a >= row
    bool feasible = row.type == RowType::kLe   ? r <= t
                    : row.type == RowType::kGe ? r >= -t
                                               : std::abs(r) <= t;
    if (!feasible) {
      why << "primal: row " << i << " lhs " << lhs << " vs rhs " << row.rhs;
      return why.str();
    }
    // 2. Row-dual sign (the reduced cost -y_i of the row's slack).
    double dt = tol * (1 + std::abs(y[i]));
    if (!std::isfinite(y[i]) || (row.type == RowType::kLe && y[i] > dt) ||
        (row.type == RowType::kGe && y[i] < -dt)) {
      why << "dual: row " << i << " dual " << y[i] << " has the wrong sign";
      return why.str();
    }
    // 3. Complementary slackness: a slack row carries no dual.
    if (std::abs(r) > t && std::abs(y[i]) > dt) {
      why << "slackness: row " << i << " has slack " << -r << " and dual "
          << y[i];
      return why.str();
    }
  }

  // 2 + 3. Reduced-cost signs against the bound each variable rests on.
  for (size_t j = 0; j < n; ++j) {
    double t = tol * (1 + std::abs(x[j]));
    double dt = tol * d_scale[j];
    bool at_lo = std::isfinite(lo[j]) && x[j] <= lo[j] + t;
    bool at_hi = std::isfinite(hi[j]) && x[j] >= hi[j] - t;
    bool ok = (at_lo && at_hi) || (at_lo && d[j] >= -dt) ||
              (at_hi && d[j] <= dt) || std::abs(d[j]) <= dt;
    if (!ok) {
      why << "reduced cost: x" << j << " = " << x[j] << " in [" << lo[j]
          << ", " << hi[j] << "] has d = " << d[j];
      return why.str();
    }
  }
  return "";
}

// Certificate of the solver's current optimal solve.
inline std::string KktViolation(const Problem& p, const Solution& s,
                                Solver* solver, double tol = 1e-6) {
  if (!s.ok()) return "status " + ToString(s.status);
  return KktViolation(p, s.values, solver->RowDuals(), tol);
}

}  // namespace ldr::lp

#endif  // LDR_TESTS_KKT_H_
