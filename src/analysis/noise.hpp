// Stationary small-signal noise analysis via the adjoint method.
//
// For each frequency one adjoint solve (G + jωC)ᵀ w = e_out yields the
// transfer from *every* device noise generator to the output at once; the
// output PSD is then  Σ_sources |w(n+) − w(n−)|² · S_source(f). The sweep
// analyzes the pencil once and refactors it per frequency
// (sparse/pencil.hpp); the transposed solve reuses the same factors.
// This is the per-source sensitivity capability the paper highlights in
// Sections 3 and 5, in its simplest (non-cyclostationary) form; the
// oscillator-specific machinery lives in src/phasenoise.
#pragma once

#include <string>
#include <vector>

#include "circuit/mna.hpp"

namespace rfic::analysis {

using circuit::MnaSystem;
using numeric::RVec;

struct NoiseContribution {
  std::string label;
  Real psd = 0;  ///< contribution to output PSD [V²/Hz]
};

struct NoiseResult {
  std::vector<Real> freq;
  std::vector<Real> totalPsd;  ///< output voltage PSD per frequency [V²/Hz]
  std::vector<std::vector<NoiseContribution>> contributions;
};

/// Output-referred noise PSD at `outNode`, linearized at xop.
NoiseResult noiseAnalysis(const MnaSystem& sys, const RVec& xop, int outNode,
                          const std::vector<Real>& freqs);

}  // namespace rfic::analysis
