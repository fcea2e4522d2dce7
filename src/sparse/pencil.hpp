// Pencil: the matrix pencil G + s·C over one sparsity pattern, factored at
// many shifts s.
//
// Every frequency-domain analysis solves (G + jωC)·x = b for many ω on one
// fixed pattern: the .ac and .noise sweeps, S-parameter sweeps, the HB
// block preconditioner (one block per retained harmonic, Section 2.1) and
// the descriptor systems of the reduced-order models (Section 5). A Pencil
// views a CSR pattern and the G and C value arrays over it — the packed
// form MnaWorkspace::pattern()/gValues()/cValues() already is — combines
// them per point as Complex(g_p + Re(s)·c_p, Im(s)·c_p), and factors that
// with CSymbolicLU:
//  - the first factor() runs the full analysis: the pivot ordering (AMD
//    timed inside the factorization), fill discovery and the replay
//    program;
//  - every later factor() replays the recorded program on the new values,
//    with the usual repivot fallback when a recorded pivot fails its
//    threshold (diag::SolverStatus::Repivoted).
// Every factorization, refactorization and solve is booked on
// perf::global(), so a sweep shows up in its analysis' and job's counters.
#pragma once

#include <vector>

#include "diag/convergence.hpp"
#include "sparse/ordering.hpp"
#include "sparse/sparse_matrix.hpp"
#include "sparse/symbolic_lu.hpp"

namespace rfic::sparse {

class Pencil {
 public:
  /// Views `pattern` (its values are ignored) and the G and C value arrays
  /// over it. All three must outlive the pencil and keep their sizes.
  /// The ordering is effectiveOrdering() on the constructing thread, so a
  /// per-job ScopedOrderingOverride applies even when factor() runs on a
  /// pool lane.
  Pencil(const RCSR& pattern, const std::vector<Real>& g,
         const std::vector<Real>& c);

  /// Factor G + s·C from the current G and C values: a full analysis on the
  /// first call (or after one threw), a refactorization afterwards.
  /// Returns Converged, or Repivoted when the recorded pivots failed and a
  /// fresh factorization ran. Allocation-free once analyzed, unless it
  /// repivots. Throws NumericalError when G + s·C is singular.
  diag::SolverStatus factor(Complex s);

  /// x = (G + sC)⁻¹·b at the last factored shift.
  numeric::CVec solve(const numeric::CVec& b) const;
  /// x = (G + sC)⁻ᵀ·b (plain transpose, no conjugation) — the adjoint
  /// solve of noise analysis, on the same factors.
  numeric::CVec solveTransposed(const numeric::CVec& b) const;

  /// The factorization: its statistics, and the allocation-free solve for
  /// hot loops that book their own solves (the HB preconditioner books one
  /// block-diagonal apply as one solve).
  const CSymbolicLU& lu() const { return lu_; }

 private:
  const RCSR& pattern_;
  const std::vector<Real>& g_;
  const std::vector<Real>& c_;
  Ordering ordering_;
  std::vector<Complex> vals_;  ///< G + s·C of the last factor(), grow-once
  CSymbolicLU lu_;
};

/// G and C triplets gathered onto their union pattern, duplicates summed:
/// the storage a Pencil views when a caller starts from triplets.
struct PencilMatrices {
  RCSR pattern;
  std::vector<Real> g, c;
};
PencilMatrices packPencil(const RTriplets& g, const RTriplets& c);

}  // namespace rfic::sparse
