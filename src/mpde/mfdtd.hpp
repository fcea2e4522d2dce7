// MFDTD — Multivariate Finite Difference Time Domain (Section 2.2,
// method 1a).
//
// The MPDE  ∂q/∂t1 + ∂q/∂t2 + f(x̂) = b̂(t1, t2)  is discretized with
// backward differences on a biperiodic (m1 × m2) grid; the resulting
// coupled nonlinear system over all grid points is solved by Newton with a
// sparse-LU linear solver (the Jacobian has the near block-diagonal
// structure the paper notes makes iterative methods attractive; both paths
// are available).
#pragma once

#include "circuit/mna.hpp"
#include "diag/convergence.hpp"
#include "diag/resilience.hpp"
#include "mpde/bivariate.hpp"
#include "perf/perf.hpp"

namespace rfic::mpde {

using circuit::MnaSystem;

struct MFDTDOptions {
  std::size_t m1 = 16;  ///< slow-axis grid points
  std::size_t m2 = 32;  ///< fast-axis grid points
  std::size_t maxNewton = 60;
  Real tolerance = 1e-9;
  bool useIterativeSolver = false;  ///< GMRES + Jacobi instead of sparse LU
  /// Retry ladder depth: a failed Newton run is re-attempted from the DC
  /// point with the inner GMRES tolerance tightened 100× and its iteration
  /// cap doubled per rung (iterative path; the sparse-LU path has no inner
  /// tolerance and retries are a plain restart).
  std::size_t maxRetries = 1;
  /// Optional cooperative budget (Newton + GMRES iterations charged; a trip
  /// returns SolverStatus::BudgetExceeded with the partial grid and
  /// suppresses retries).
  diag::RunBudget* budget = nullptr;
};

struct MFDTDResult {
  bool converged = false;
  /// Converged, MaxIterations, Stagnated (inner GMRES failed), Breakdown
  /// (singular grid Jacobian), or BudgetExceeded.
  diag::SolverStatus status = diag::SolverStatus::NotRun;
  BivariateGrid grid;
  std::size_t newtonIterations = 0;
  std::size_t retries = 0;      ///< tightened-tolerance re-attempts
  std::size_t jacobianNnz = 0;  ///< assembled sparse Jacobian size
  perf::Snapshot perf;          ///< this run's counters
};

MFDTDResult runMFDTD(const MnaSystem& sys, Real slowFreq, Real fastFreq,
                     const numeric::RVec& dcOp, const MFDTDOptions& opts = {});

}  // namespace rfic::mpde
