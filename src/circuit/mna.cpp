#include "circuit/mna.hpp"

namespace rfic::circuit {

void MnaSystem::evalBivariate(const RVec& x, Real t1, Real t2, MnaEval& e,
                              bool wantMatrices, const RVec* xPrev) const {
  RFIC_REQUIRE(x.size() == n_, "MnaSystem::eval: state size mismatch");
  e.f.assign(n_, 0.0);
  e.q.assign(n_, 0.0);
  e.b.assign(n_, 0.0);
  if (wantMatrices) {
    // reset() keeps the entry buffers' capacity, so a reused MnaEval stops
    // paying for triplet allocation after the first evaluation.
    e.G.reset(n_, n_);
    e.C.reset(n_, n_);
  }
  Stamp s(e.f, e.q, e.b, wantMatrices ? &e.G : nullptr,
          wantMatrices ? &e.C : nullptr, t1, t2);
  for (const auto& dev : ckt_.devices()) dev->stamp(x, xPrev, s);
}

std::vector<NoiseSource> MnaSystem::noiseSources(const RVec& x) const {
  std::vector<NoiseSource> out;
  for (const auto& dev : ckt_.devices()) dev->noiseSources(x, out);
  return out;
}

RVec dcResidual(const MnaEval& e) {
  RVec r = e.f;
  r -= e.b;
  return r;
}

}  // namespace rfic::circuit
