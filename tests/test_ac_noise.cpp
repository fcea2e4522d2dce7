// Small-signal AC and stationary noise analyses against closed forms.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <string>

#include "analysis/ac.hpp"
#include "analysis/dc.hpp"
#include "analysis/noise.hpp"
#include "circuit/devices.hpp"
#include "circuit/mna_workspace.hpp"
#include "circuit/semiconductors.hpp"
#include "circuit/sources.hpp"
#include "sparse/ordering.hpp"
#include "sparse/symbolic_lu.hpp"

namespace rfic::analysis {
namespace {

using namespace rfic::circuit;
using numeric::RVec;

// The one-point AC solve: a sweep of a single frequency.
CVec acAt(const MnaSystem& sys, const RVec& xop, Real f, const CVec& u) {
  return acSweep(sys, xop, {f}, u).x.front();
}

class RCLowpassFreqs : public ::testing::TestWithParam<Real> {};

TEST_P(RCLowpassFreqs, TransferMatchesAnalytic) {
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  auto& vs = c.add<VSource>("V1", in, -1, br, std::make_shared<DCWave>(0.0));
  c.add<Resistor>("R1", in, out, 1000.0);
  c.add<Capacitor>("C1", out, -1, 1e-9);  // fc = 159 kHz
  MnaSystem sys(c);
  const Real f = GetParam();
  const auto u = acStimulusVSource(sys, vs);
  const auto y = acAt(sys, RVec(sys.dim(), 0.0), f, u);
  const Complex h = y[static_cast<std::size_t>(out)];
  const Complex href = 1.0 / Complex(1.0, kTwoPi * f * 1e-6);
  EXPECT_NEAR(std::abs(h - href), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Freqs, RCLowpassFreqs,
                         ::testing::Values(1e2, 1e4, 159154.9, 1e6, 1e8));

TEST(AC, RLCResonanceAndQ) {
  // Series RLC driven by a voltage source; voltage across C peaks near f0
  // with magnification ≈ Q.
  Circuit c;
  const int in = c.node("in"), m = c.node("m"), out = c.node("out");
  const int brv = c.allocBranch("V1"), brl = c.allocBranch("L1");
  auto& vs = c.add<VSource>("V1", in, -1, brv, std::make_shared<DCWave>(0.0));
  c.add<Resistor>("R1", in, m, 10.0);
  c.add<Inductor>("L1", m, out, brl, 1e-6);
  c.add<Capacitor>("C1", out, -1, 1e-9);
  MnaSystem sys(c);
  const Real f0 = 1.0 / (kTwoPi * std::sqrt(1e-6 * 1e-9));  // ≈ 5.03 MHz
  const Real q = std::sqrt(1e-6 / 1e-9) / 10.0;              // ≈ 3.16
  const auto u = acStimulusVSource(sys, vs);
  const auto y = acAt(sys, RVec(sys.dim(), 0.0), f0, u);
  EXPECT_NEAR(std::abs(y[static_cast<std::size_t>(out)]), q, 0.02 * q);
}

TEST(AC, LinearizedDiodeSmallSignalResistance) {
  // Biased diode behaves as rd = nVt/Id in small signal.
  Circuit c;
  const int in = c.node("in"), a = c.node("a");
  const int br = c.allocBranch("V1");
  auto& vs = c.add<VSource>("V1", in, -1, br, std::make_shared<DCWave>(5.0));
  c.add<Resistor>("R1", in, a, 10000.0);
  c.add<Diode>("D1", a, -1, Diode::Params{});
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  ASSERT_TRUE(dc.converged);
  const Real vd = dc.x[static_cast<std::size_t>(a)];
  const Real id = (5.0 - vd) / 10000.0;
  const Real rd = kVt300 / id;
  const auto u = acStimulusVSource(sys, vs);
  const auto y = acAt(sys, dc.x, 1.0, u);  // low frequency
  const Real hExp = rd / (rd + 10000.0);
  EXPECT_NEAR(std::abs(y[static_cast<std::size_t>(a)]), hExp, 1e-3 * hExp);
}

TEST(AC, SweepReturnsOnePointPerFrequency) {
  Circuit c;
  const int in = c.node("in");
  const int br = c.allocBranch("V1");
  auto& vs = c.add<VSource>("V1", in, -1, br, std::make_shared<DCWave>(0.0));
  c.add<Resistor>("R1", in, -1, 50.0);
  MnaSystem sys(c);
  const auto freqs = logspace(1e3, 1e9, 25);
  const auto sweep = acSweep(sys, RVec(sys.dim(), 0.0), freqs,
                             acStimulusVSource(sys, vs));
  EXPECT_EQ(sweep.freq.size(), 25u);
  EXPECT_EQ(sweep.x.size(), 25u);
}

// k×k RC mesh driven at one corner — the tools/gen_mesh.py topology with
// deterministic ±25% value spread.
void buildRcMesh(Circuit& c, std::size_t k) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<Real> spread(0.75, 1.25);
  std::vector<int> node(k * k);
  for (std::size_t u = 0; u < k * k; ++u)
    node[u] = c.node("n" + std::to_string(u));
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", node[0], -1, br, std::make_shared<DCWave>(0.0));
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t u = i * k + j;
      const std::string id = std::to_string(u);
      if (j + 1 < k)
        c.add<Resistor>("Rh" + id, node[u], node[u + 1], 1e3 * spread(rng));
      if (i + 1 < k)
        c.add<Resistor>("Rv" + id, node[u], node[u + k], 1e3 * spread(rng));
      c.add<Capacitor>("C" + id, node[u], -1, 1e-12 * spread(rng));
    }
}

TEST(AC, PencilSweepMatchesFreshFactorizationPerPoint) {
  // acSweep analyzes the (G + jωC) pencil once and refactors it per point;
  // a fresh CSymbolicLU analysis at every point is the oracle. Two circuit
  // families: a generated RC mesh, and a diode linearized at its DC point.
  Circuit mesh;
  buildRcMesh(mesh, 10);
  Circuit diode;
  {
    const int in = diode.node("in"), a = diode.node("a");
    const int br = diode.allocBranch("V1");
    diode.add<VSource>("V1", in, -1, br, std::make_shared<DCWave>(0.7));
    diode.add<Resistor>("R1", in, a, 100.0);
    diode.add<Diode>("D1", a, -1, Diode::Params{});
    diode.add<Capacitor>("C1", a, -1, 1e-9);
  }
  const auto freqs = logspace(1e3, 1e10, 8);
  for (Circuit* c : {&mesh, &diode}) {
    MnaSystem sys(*c);
    const auto dc = dcOperatingPoint(sys);
    ASSERT_TRUE(dc.converged);
    const auto* vs = dynamic_cast<const VSource*>(c->devices().front().get());
    ASSERT_NE(vs, nullptr);
    const CVec u = acStimulusVSource(sys, *vs);
    MnaWorkspace ws(sys);
    ws.eval(dc.x, 0.0, true);
    for (const sparse::Ordering ord :
         {sparse::Ordering::Natural, sparse::Ordering::Amd}) {
      const sparse::ScopedOrderingOverride scoped(ord);
      const auto sweep = acSweep(sys, dc.x, freqs, u);
      for (std::size_t k = 0; k < freqs.size(); ++k) {
        const Real w = kTwoPi * freqs[k];
        std::vector<Complex> vals(ws.gValues().size());
        for (std::size_t p = 0; p < vals.size(); ++p)
          vals[p] = Complex(ws.gValues()[p], w * ws.cValues()[p]);
        const sparse::CSymbolicLU fresh(sparse::CCSR(ws.pattern(), vals),
                                        {.ordering = ord});
        const CVec xf = fresh.solve(u);
        Real err = 0, ref = 0;
        for (std::size_t i = 0; i < xf.size(); ++i) {
          err = std::max(err, std::abs(sweep.x[k][i] - xf[i]));
          ref = std::max(ref, std::abs(xf[i]));
        }
        EXPECT_LE(err, 1e-12 * ref)
            << sparse::toString(ord) << " n=" << sys.dim() << " f=" << freqs[k];
      }
    }
  }
}

TEST(AC, Logspace) {
  const auto f = logspace(1.0, 1e6, 7);
  ASSERT_EQ(f.size(), 7u);
  EXPECT_NEAR(f.front(), 1.0, 1e-12);
  EXPECT_NEAR(f.back(), 1e6, 1e-6);
  EXPECT_NEAR(f[1] / f[0], 10.0, 1e-9);
  EXPECT_THROW(logspace(0.0, 10.0, 5), InvalidArgument);
  EXPECT_THROW(logspace(1.0, 10.0, 1), InvalidArgument);
}

TEST(Noise, ResistorDividerOutputPSD) {
  // Two resistors to ground at the output: total output noise is
  // 4kT·Re{Zout} = 4kT·(R1 ∥ R2).
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<DCWave>(0.0));
  c.add<Resistor>("R1", in, out, 1000.0);
  c.add<Resistor>("R2", out, -1, 3000.0);
  MnaSystem sys(c);
  const auto nr = noiseAnalysis(sys, RVec(sys.dim(), 0.0), out, {1e3});
  const Real rpar = 1000.0 * 3000.0 / 4000.0;
  const Real expct = 4.0 * 1.380649e-23 * 300.0 * rpar;
  ASSERT_EQ(nr.totalPsd.size(), 1u);
  EXPECT_NEAR(nr.totalPsd[0], expct, 1e-3 * expct);
}

TEST(Noise, ContributionsSumToTotal) {
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<DCWave>(5.0));
  c.add<Resistor>("R1", in, out, 2000.0);
  c.add<Diode>("D1", out, -1, Diode::Params{});
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  const auto nr = noiseAnalysis(sys, dc.x, out, {1e3, 1e6});
  for (std::size_t k = 0; k < nr.freq.size(); ++k) {
    Real sum = 0;
    for (const auto& cb : nr.contributions[k]) sum += cb.psd;
    EXPECT_NEAR(sum, nr.totalPsd[k], 1e-12 * nr.totalPsd[k]);
  }
}

TEST(Noise, RCFilterShapesResistorNoise) {
  // Output PSD of R with shunt C rolls off as 1/(1+(2πfRC)²); integrates to
  // kT/C. Check the shape at two points.
  Circuit c;
  const int out = c.node("out");
  c.add<Resistor>("R1", out, -1, 100000.0);
  c.add<Capacitor>("C1", out, -1, 1e-12);
  MnaSystem sys(c);
  const Real fc = 1.0 / (kTwoPi * 1e5 * 1e-12);  // 1.59 MHz
  const auto nr = noiseAnalysis(sys, RVec(sys.dim(), 0.0), out, {1.0, fc});
  const Real flat = 4.0 * 1.380649e-23 * 300.0 * 1e5;
  EXPECT_NEAR(nr.totalPsd[0], flat, 1e-3 * flat);
  EXPECT_NEAR(nr.totalPsd[1], flat / 2.0, 1e-2 * flat);
}

TEST(Noise, FlickerRisesTowardLowFrequency) {
  Circuit c;
  const int in = c.node("in"), a = c.node("a");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<DCWave>(5.0));
  c.add<Resistor>("R1", in, a, 1000.0);
  Diode::Params p;
  p.kf = 1e-12;
  c.add<Diode>("D1", a, -1, p);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  const auto nr = noiseAnalysis(sys, dc.x, a, {10.0, 1e6});
  EXPECT_GT(nr.totalPsd[0], 10.0 * nr.totalPsd[1]);
}

TEST(Noise, GroundOutputRejected) {
  Circuit c;
  c.add<Resistor>("R1", c.node("a"), -1, 1000.0);
  MnaSystem sys(c);
  EXPECT_THROW(noiseAnalysis(sys, RVec(1, 0.0), -1, {1e3}), InvalidArgument);
}

}  // namespace
}  // namespace rfic::analysis
