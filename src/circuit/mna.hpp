// MnaSystem: the evaluation interface between a Circuit and the analyses.
//
// Presents the circuit as the DAE  d/dt q(x) + f(x) = b(t)  (paper eq. 3)
// and, for the multi-time analyses of Section 2.2, as its bivariate
// generalization with sources split across the two time axes (eq. 4).
#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "numeric/dense.hpp"
#include "sparse/sparse_matrix.hpp"

namespace rfic::circuit {

using numeric::RMat;
using numeric::RVec;

/// One full evaluation of the circuit equations at a point (x, t).
struct MnaEval {
  RVec f;                ///< resistive currents f(x)
  RVec q;                ///< charges/fluxes q(x)
  RVec b;                ///< excitation b(t)
  sparse::RTriplets G;   ///< ∂f/∂x (only when requested)
  sparse::RTriplets C;   ///< ∂q/∂x (only when requested)
};

class MnaSystem {
 public:
  explicit MnaSystem(const Circuit& ckt) : ckt_(ckt), n_(ckt.numUnknowns()) {}

  std::size_t dim() const { return n_; }
  const Circuit& circuit() const { return ckt_; }

  /// Univariate evaluation at time t (both axes read t).
  void eval(const RVec& x, Real t, MnaEval& e, bool wantMatrices,
            const RVec* xPrev = nullptr) const {
    evalBivariate(x, t, t, e, wantMatrices, xPrev);
  }

  /// Bivariate evaluation: slow sources read t1, fast sources read t2.
  void evalBivariate(const RVec& x, Real t1, Real t2, MnaEval& e,
                     bool wantMatrices, const RVec* xPrev = nullptr) const;

  /// Collect all device noise generators at operating point x.
  std::vector<NoiseSource> noiseSources(const RVec& x) const;

 private:
  const Circuit& ckt_;
  std::size_t n_;
};

/// Newton residual for the algebraic (DC) problem: r = f(x) − b.
/// Shared helper used by several analyses.
RVec dcResidual(const MnaEval& e);

}  // namespace rfic::circuit
