#include "analysis/ac.hpp"

#include <cmath>

#include "circuit/mna_workspace.hpp"
#include "sparse/pencil.hpp"

namespace rfic::analysis {

ACResult acSweep(const MnaSystem& sys, const RVec& xop,
                 const std::vector<Real>& freqs, const CVec& stimulus) {
  RFIC_REQUIRE(stimulus.size() == sys.dim(), "acSweep: stimulus size mismatch");
  circuit::MnaWorkspace ws(sys);
  ws.eval(xop, 0.0, true);
  sparse::Pencil pencil(ws.pattern(), ws.gValues(), ws.cValues());
  ACResult out;
  out.freq = freqs;
  out.x.reserve(freqs.size());
  for (const Real f : freqs) {
    pencil.factor({0.0, kTwoPi * f});
    out.x.push_back(pencil.solve(stimulus));
  }
  return out;
}

CVec acStimulusVSource(const MnaSystem& sys, const circuit::VSource& src,
                       Complex amplitude) {
  CVec u(sys.dim());
  u[static_cast<std::size_t>(src.branch())] = amplitude;
  return u;
}

CVec acStimulusCurrent(const MnaSystem& sys, int nodePlus, int nodeMinus,
                       Complex amplitude) {
  CVec u(sys.dim());
  if (nodePlus >= 0) u[static_cast<std::size_t>(nodePlus)] -= amplitude;
  if (nodeMinus >= 0) u[static_cast<std::size_t>(nodeMinus)] += amplitude;
  return u;
}

std::vector<Real> logspace(Real fStart, Real fStop, std::size_t n) {
  RFIC_REQUIRE(fStart > 0 && fStop > fStart && n >= 2,
               "logspace: need 0 < fStart < fStop and n >= 2");
  std::vector<Real> f(n);
  const Real l0 = std::log10(fStart), l1 = std::log10(fStop);
  for (std::size_t i = 0; i < n; ++i)
    f[i] = std::pow(10.0, l0 + (l1 - l0) * static_cast<Real>(i) /
                              static_cast<Real>(n - 1));
  return f;
}

}  // namespace rfic::analysis
