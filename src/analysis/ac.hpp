// Small-signal AC analysis: linearize at an operating point and solve
// (G + jωC)·x = u over a frequency sweep. G and C come from one
// MnaWorkspace evaluation at the operating point; the sweep analyzes the
// pencil once and refactors it at every further frequency
// (sparse/pencil.hpp).
#pragma once

#include <vector>

#include "circuit/mna.hpp"
#include "circuit/sources.hpp"

namespace rfic::analysis {

using circuit::MnaSystem;
using numeric::CVec;
using numeric::RVec;

struct ACResult {
  std::vector<Real> freq;
  std::vector<CVec> x;  ///< one solution vector per frequency
};

/// Solve (G + j·2πf·C) x = u at every frequency, with G, C linearized at
/// operating point xop: one analysis at the first point, one numeric
/// refactorization per further point.
ACResult acSweep(const MnaSystem& sys, const RVec& xop,
                 const std::vector<Real>& freqs, const CVec& stimulus);

/// Unit AC stimulus applied through an existing voltage source (its branch
/// equation right-hand side becomes `amplitude`).
CVec acStimulusVSource(const MnaSystem& sys, const circuit::VSource& src,
                       Complex amplitude = {1.0, 0.0});

/// Unit AC current injected between two nodes (np → nm through the source,
/// SPICE convention).
CVec acStimulusCurrent(const MnaSystem& sys, int nodePlus, int nodeMinus,
                       Complex amplitude = {1.0, 0.0});

/// Logarithmically spaced frequency grid [fStart, fStop] with n points.
std::vector<Real> logspace(Real fStart, Real fStop, std::size_t n);

}  // namespace rfic::analysis
