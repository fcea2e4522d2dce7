#include "analysis/sparams.hpp"

#include <cmath>

#include "circuit/mna_workspace.hpp"
#include "numeric/eig.hpp"
#include "numeric/lu.hpp"
#include "sparse/pencil.hpp"

namespace rfic::analysis {

using numeric::CMat;
using numeric::CVec;

Real SParameters::magDb(std::size_t i, std::size_t j) const {
  const Real m = std::abs(s(i, j));
  return m > 0 ? 20.0 * std::log10(m) : -400.0;
}

namespace {

// S = (Z − Z0 I)(Z + Z0 I)⁻¹ of one frequency point.
SParameters fromZ(const CMat& z, Real z0, Real freqHz) {
  const std::size_t np = z.rows();
  CMat num = z, den = z;
  for (std::size_t i = 0; i < np; ++i) {
    num(i, i) -= z0;
    den(i, i) += z0;
  }
  SParameters out;
  out.freq = freqHz;
  // Solve (Z + Z0)ᵀ Xᵀ = (Z − Z0)ᵀ  ⇔  X = num · den⁻¹.
  const numeric::CLU lu(den.transposed());  // NOLINT (small dense)
  out.s = CMat(np, np);
  CVec col(np);
  const CMat numT = num.transposed();
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t k = 0; k < np; ++k) col[k] = numT(k, i);
    const CVec row = lu.solve(col);
    for (std::size_t k = 0; k < np; ++k) out.s(i, k) = row[k];
  }
  return out;
}

}  // namespace

SParameters sParameters(const MnaSystem& sys, const numeric::RVec& xop,
                        const std::vector<Port>& ports, Real freqHz,
                        Real z0) {
  return sParameterSweep(sys, xop, ports, {freqHz}, z0).front();
}

std::vector<SParameters> sParameterSweep(const MnaSystem& sys,
                                         const numeric::RVec& xop,
                                         const std::vector<Port>& ports,
                                         const std::vector<Real>& freqs,
                                         Real z0) {
  RFIC_REQUIRE(!ports.empty(), "sParameters: at least one port");
  RFIC_REQUIRE(z0 > 0, "sParameters: positive reference impedance");
  const std::size_t np = ports.size();

  // Z-matrix: inject 1 A into port j (others open), read port voltages.
  // One factorization per frequency serves all ports. Tiny shunt
  // conductances at the port nodes regularize networks that float when
  // every port is open (e.g. a bare series element) — the |S| error is
  // ~Z0·gminPort ≈ 5e-11. The workspace pattern holds every diagonal.
  circuit::MnaWorkspace ws(sys);
  ws.eval(xop, 0.0, true);
  const sparse::RCSR& pat = ws.pattern();
  std::vector<Real> g = ws.gValues();
  const Real gminPort = 1e-12;
  const auto shunt = [&](int node) {
    if (node < 0) return;
    const auto i = static_cast<std::size_t>(node);
    for (std::size_t p = pat.rowPtr()[i]; p < pat.rowPtr()[i + 1]; ++p)
      if (pat.colIdx()[p] == i) g[p] += gminPort;
  };
  std::vector<CVec> stimuli;
  for (const auto& p : ports) {
    shunt(p.nodePlus);
    shunt(p.nodeMinus);
    stimuli.push_back(acStimulusCurrent(sys, p.nodeMinus, p.nodePlus));
  }
  sparse::Pencil pencil(pat, g, ws.cValues());

  const auto portVoltage = [&](const CVec& x, const Port& p) {
    const Complex vp =
        p.nodePlus >= 0 ? x[static_cast<std::size_t>(p.nodePlus)] : 0.0;
    const Complex vm =
        p.nodeMinus >= 0 ? x[static_cast<std::size_t>(p.nodeMinus)] : 0.0;
    return vp - vm;
  };
  std::vector<SParameters> out;
  out.reserve(freqs.size());
  for (const Real f : freqs) {
    pencil.factor({0.0, kTwoPi * f});
    CMat z(np, np);
    for (std::size_t j = 0; j < np; ++j) {
      const CVec x = pencil.solve(stimuli[j]);
      for (std::size_t i = 0; i < np; ++i) z(i, j) = portVoltage(x, ports[i]);
    }
    out.push_back(fromZ(z, z0, f));
  }
  return out;
}

bool isPassiveSample(const SParameters& sp, Real tol) {
  // Eigenvalues of the Hermitian matrix I − SᴴS must be ≥ −tol.
  const std::size_t n = sp.s.rows();
  CMat m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      Complex acc = (i == j) ? Complex(1.0, 0.0) : Complex(0.0, 0.0);
      for (std::size_t k = 0; k < n; ++k)
        acc -= std::conj(sp.s(k, i)) * sp.s(k, j);
      m(i, j) = acc;
    }
  }
  const numeric::CVec eig = numeric::eigenvalues(m);
  for (std::size_t i = 0; i < n; ++i)
    if (eig[i].real() < -tol) return false;
  return true;
}

}  // namespace rfic::analysis
