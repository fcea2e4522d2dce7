#include "analysis/noise.hpp"

#include <cmath>

#include "circuit/mna_workspace.hpp"
#include "sparse/pencil.hpp"

namespace rfic::analysis {

NoiseResult noiseAnalysis(const MnaSystem& sys, const RVec& xop, int outNode,
                          const std::vector<Real>& freqs) {
  RFIC_REQUIRE(outNode >= 0, "noiseAnalysis: output node must not be ground");
  const std::size_t n = sys.dim();

  circuit::MnaWorkspace ws(sys);
  ws.eval(xop, 0.0, true);
  sparse::Pencil pencil(ws.pattern(), ws.gValues(), ws.cValues());
  const auto sources = sys.noiseSources(xop);
  numeric::CVec rhs(n);
  rhs[static_cast<std::size_t>(outNode)] = 1.0;

  NoiseResult out;
  out.freq = freqs;
  out.totalPsd.reserve(freqs.size());
  out.contributions.reserve(freqs.size());

  for (const Real f : freqs) {
    // Adjoint: Aᵀ·y = e_out gives y_i = ∂v_out/∂(current injected at i)
    // for A = G + jωC (the Aᴴ adjoint is its conjugate; |·|² agrees).
    pencil.factor({0.0, kTwoPi * f});
    const numeric::CVec adj = pencil.solveTransposed(rhs);

    Real total = 0;
    std::vector<NoiseContribution> contribs;
    contribs.reserve(sources.size());
    for (const auto& src : sources) {
      const Complex hp =
          src.nodePlus >= 0 ? adj[static_cast<std::size_t>(src.nodePlus)] : 0.0;
      const Complex hm = src.nodeMinus >= 0
                             ? adj[static_cast<std::size_t>(src.nodeMinus)]
                             : 0.0;
      const Real gain2 = std::norm(hp - hm);
      const Real s = src.white + (f > 0 ? src.flicker / f : 0.0);
      const Real psd = gain2 * s;
      total += psd;
      contribs.push_back({src.label, psd});
    }
    out.totalPsd.push_back(total);
    out.contributions.push_back(std::move(contribs));
  }
  return out;
}

}  // namespace rfic::analysis
