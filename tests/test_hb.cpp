// Harmonic balance: exact linear answers, cross-validation against
// shooting, two-tone intermodulation against perturbation theory, solver
// ablation (direct vs matrix-implicit GMRES), and spectrum utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analysis/dc.hpp"
#include "analysis/shooting.hpp"
#include "circuit/devices.hpp"
#include "circuit/semiconductors.hpp"
#include "circuit/sources.hpp"
#include "fft/fft.hpp"
#include "fft/plan.hpp"
#include "hb/harmonic_balance.hpp"
#include "hb/spectrum.hpp"
#include "perf/perf.hpp"
#include "perf/thread_pool.hpp"

namespace rfic::hb {
namespace {

using namespace rfic::circuit;
using analysis::dcOperatingPoint;
using numeric::RVec;

TEST(HB, LinearRCMatchesAnalytic) {
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(1.0, 1000.0));
  c.add<Resistor>("R1", in, out, 1000.0);
  c.add<Capacitor>("C1", out, -1, 1e-6);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  HarmonicBalance hb(sys, {{1000.0, 4}});
  const auto sol = hb.solve(dc.x);
  ASSERT_TRUE(sol.converged);
  const Complex h = 1.0 / Complex(1.0, kTwoPi * 1000.0 * 1e-3);
  EXPECT_NEAR(lineAmplitude(sol, static_cast<std::size_t>(out), 1),
              std::abs(h), 1e-8);
  // No spurious harmonics in a linear circuit.
  for (int k = 2; k <= 4; ++k)
    EXPECT_LT(lineAmplitude(sol, static_cast<std::size_t>(out), k), 1e-10);
}

TEST(HB, SingleToneMatchesShootingOnRectifier) {
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(1.0, 1e4));
  Diode::Params dp;
  c.add<Diode>("D1", in, out, dp);
  c.add<Resistor>("RL", out, -1, 1e4);
  c.add<Capacitor>("CL", out, -1, 1e-8);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  HBOptions ho;
  ho.continuationSteps = 4;
  HarmonicBalance hb(sys, {{1e4, 12}}, ho);
  const auto sol = hb.solve(dc.x);
  ASSERT_TRUE(sol.converged);

  analysis::ShootingOptions so;
  so.stepsPerPeriod = 3000;
  const auto pss = analysis::shootingPSS(sys, 1e-4, RVec(sys.dim(), 0.0), so);
  ASSERT_TRUE(pss.converged);
  Real avg = 0;
  for (std::size_t k = 0; k + 1 < pss.trajectory.size(); ++k)
    avg += pss.trajectory[k][static_cast<std::size_t>(out)];
  avg /= static_cast<Real>(pss.trajectory.size() - 1);
  EXPECT_NEAR(sol.at(static_cast<std::size_t>(out), 0).real(), avg, 2e-3);
}

TEST(HB, TwoToneIM3MatchesPerturbationTheory) {
  // Series Rs into g1·v + g3·v³: IM3 voltage ≈ (3/4)·g3·A³/(gs + g1) for
  // per-tone amplitude A at the nonlinear node.
  Circuit c;
  const int a = c.node("a"), s2 = c.node("s2"), b = c.node("b");
  const int br1 = c.allocBranch("V1"), br2 = c.allocBranch("V2");
  c.add<VSource>("V1", a, -1, br1, std::make_shared<SineWave>(0.06, 1.0e6),
                 TimeAxis::slow);
  c.add<VSource>("V2", s2, a, br2, std::make_shared<SineWave>(0.06, 1.3e6),
                 TimeAxis::fast);
  c.add<Resistor>("Rs", s2, b, 1000.0);
  c.add<CubicConductance>("GN", b, -1, 1e-3, 1e-2);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  HarmonicBalance hb(sys, {{1.0e6, 3}, {1.3e6, 3}});
  const auto sol = hb.solve(dc.x);
  ASSERT_TRUE(sol.converged);
  const auto bIdx = static_cast<std::size_t>(b);
  const Real aTone = lineAmplitude(sol, bIdx, 1, 0);
  const Real im3 = lineAmplitude(sol, bIdx, -1, 2);  // 2f2 − f1
  const Real predicted = 0.75 * 1e-2 * aTone * aTone * aTone / (2e-3);
  EXPECT_NEAR(im3, predicted, 0.15 * predicted);
  // IM3 on the other side (2f1 − f2) has the same magnitude by symmetry.
  EXPECT_NEAR(lineAmplitude(sol, bIdx, 2, -1), im3, 0.05 * im3);
}

TEST(HB, DirectAndIterativeSolversAgree) {
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(0.8, 1e5));
  c.add<Resistor>("Rs", in, out, 500.0);
  c.add<Diode>("D1", out, -1, Diode::Params{});
  c.add<Resistor>("RL", out, -1, 2000.0);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);

  HBOptions direct;
  direct.useDirectSolver = true;
  direct.continuationSteps = 2;
  HBOptions iterative;
  iterative.continuationSteps = 2;

  const auto sd = HarmonicBalance(sys, {{1e5, 8}}, direct).solve(dc.x);
  const auto si = HarmonicBalance(sys, {{1e5, 8}}, iterative).solve(dc.x);
  ASSERT_TRUE(sd.converged);
  ASSERT_TRUE(si.converged);
  for (int k = 0; k <= 8; ++k) {
    const Complex d = sd.at(static_cast<std::size_t>(out), k);
    const Complex i = si.at(static_cast<std::size_t>(out), k);
    EXPECT_NEAR(std::abs(d - i), 0.0, 1e-7) << "harmonic " << k;
  }
  EXPECT_GT(si.gmresIterations, 0u);
  EXPECT_EQ(sd.gmresIterations, 0u);
}

TEST(HB, ConjugateSymmetryAtNegativeIndex) {
  Circuit c;
  const int in = c.node("in");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(1.0, 1e3));
  c.add<Resistor>("R1", in, -1, 50.0);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  const auto sol = HarmonicBalance(sys, {{1e3, 3}}).solve(dc.x);
  ASSERT_TRUE(sol.converged);
  const Complex plus = sol.at(0, 1);
  const Complex minus = sol.at(0, -1);
  EXPECT_NEAR(std::abs(minus - std::conj(plus)), 0.0, 1e-15);
  // Outside the truncation box: exactly zero.
  EXPECT_EQ(sol.at(0, 9), Complex(0.0, 0.0));
}

TEST(HB, EvaluateReconstructsWaveform) {
  Circuit c;
  const int in = c.node("in");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(2.0, 1e3, 0.3));
  c.add<Resistor>("R1", in, -1, 50.0);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  const auto sol = HarmonicBalance(sys, {{1e3, 3}}).solve(dc.x);
  ASSERT_TRUE(sol.converged);
  for (Real t : {0.0, 1e-4, 3.7e-4, 9e-4}) {
    EXPECT_NEAR(sol.evaluate(static_cast<std::size_t>(in), t, t),
                2.0 * std::sin(kTwoPi * 1e3 * t + 0.3), 1e-8);
  }
}

TEST(HB, UnknownCountsScaleWithTonesAndHarmonics) {
  Circuit c;
  const int in = c.node("in");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(1.0, 1e3));
  c.add<Resistor>("R1", in, -1, 50.0);
  MnaSystem sys(c);
  const HarmonicBalance h1(sys, {{1e3, 5}});
  EXPECT_EQ(h1.numRealUnknowns(), 2u * (2 * 5 + 1));
  const HarmonicBalance h2(sys, {{1e3, 5}, {1.7e3, 5}});
  EXPECT_EQ(h2.numRealUnknowns(), 2u * (2 * 5 + 1) * (2 * 5 + 1));
}

TEST(HB, InvalidTonesThrow) {
  Circuit c;
  c.add<Resistor>("R1", c.node("a"), -1, 50.0);
  MnaSystem sys(c);
  EXPECT_THROW(HarmonicBalance(sys, {}), InvalidArgument);
  EXPECT_THROW(HarmonicBalance(sys, {{0.0, 3}}), InvalidArgument);
  EXPECT_THROW(HarmonicBalance(sys, {{1e3, 0}}), InvalidArgument);
  EXPECT_THROW(HarmonicBalance(sys, {{1e3, 1}, {2e3, 1}, {3e3, 1}}),
               InvalidArgument);
}

TEST(HB, SquareWaveFourierContent) {
  // Square drive into a resistor: HB must reproduce the 4/π odd-harmonic
  // series and vanishing even harmonics.
  Circuit c;
  const int in = c.node("in");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br,
                 std::make_shared<SquareWave>(-1.0, 1.0, 1e6, 0.01));
  c.add<Resistor>("R1", in, -1, 50.0);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  HBOptions ho;
  ho.oversample = 8;  // resolve the fast edges
  const auto sol = HarmonicBalance(sys, {{1e6, 9}}, ho).solve(dc.x);
  ASSERT_TRUE(sol.converged);
  const auto u = static_cast<std::size_t>(in);
  const Real a1 = lineAmplitude(sol, u, 1);
  // Finite rise time softens the ideal 4/π slightly.
  EXPECT_NEAR(a1, 4.0 / kPi, 0.02);
  EXPECT_NEAR(lineAmplitude(sol, u, 3) / a1, 1.0 / 3.0, 0.02);
  EXPECT_NEAR(lineAmplitude(sol, u, 5) / a1, 1.0 / 5.0, 0.03);
  EXPECT_LT(lineAmplitude(sol, u, 2), 1e-6);
  EXPECT_LT(lineAmplitude(sol, u, 4), 1e-6);
}

TEST(HB, SteadyStateSolveIsAllocationFree) {
  // The zero-allocation contract of the spectral hot path, checked by
  // counters (ISSUE 4): the engine-owned workspace grows while the first
  // solve warms up, then a second identical solve reuses every buffer
  // (workspaceGrowth flat), replays the cached plans (no new PlanCache
  // misses), and still does real spectral work (fftCount advances).
  Circuit c;
  const int a = c.node("a"), s2 = c.node("s2"), b = c.node("b");
  const int br1 = c.allocBranch("V1"), br2 = c.allocBranch("V2");
  c.add<VSource>("V1", a, -1, br1, std::make_shared<SineWave>(0.06, 1.0e6),
                 TimeAxis::slow);
  c.add<VSource>("V2", s2, a, br2, std::make_shared<SineWave>(0.06, 1.3e6),
                 TimeAxis::fast);
  c.add<Resistor>("Rs", s2, b, 1000.0);
  c.add<CubicConductance>("GN", b, -1, 1e-3, 1e-2);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  HarmonicBalance eng(sys, {{1.0e6, 4}, {1.3e6, 4}});

  const auto warm = eng.solve(dc.x);
  ASSERT_TRUE(warm.converged);
  const std::uint64_t growsAfterWarmup = eng.workspaceGrowth();
  EXPECT_GT(growsAfterWarmup, 0u);  // the first solve did size the buffers

  const auto missesBefore = fft::PlanCache::global().misses();
  const auto fftsBefore = perf::global().snapshot().fftCount;
  const auto again = eng.solve(dc.x);
  ASSERT_TRUE(again.converged);
  EXPECT_EQ(eng.workspaceGrowth(), growsAfterWarmup);
  EXPECT_EQ(fft::PlanCache::global().misses(), missesBefore);
  EXPECT_GT(perf::global().snapshot().fftCount, fftsBefore);
  // And the per-solution counters saw the spectral work too.
  EXPECT_GT(again.perf.fftCount, 0u);
}

TEST(HB, SolveCountersSeeThePlanCache) {
  // The solve looks its spectral plans up inside its own CounterScope, so
  // HBSolution::perf accounts for the plan cache even when the engine was
  // built outside that scope (every solve after the first is all hits).
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(0.5, 1e6));
  c.add<Resistor>("R1", in, out, 1000.0);
  c.add<Diode>("D1", out, -1, Diode::Params{});
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  const HarmonicBalance eng(sys, {{1e6, 5}});
  for (int rep = 0; rep < 2; ++rep) {
    const auto sol = eng.solve(dc.x);
    ASSERT_TRUE(sol.converged);
    EXPECT_GT(sol.perf.planCacheHits + sol.perf.planCacheMisses, 0u);
    if (rep == 1) {
      EXPECT_EQ(sol.perf.planCacheMisses, 0u);
    }
  }
}

// ---------- Spectral transforms: paired, column-pruned vs full grid -----

// Grid bin of harmonic k on an axis of length m (|k| < m).
std::size_t wrapBin(int k, std::size_t m) {
  return static_cast<std::size_t>((k + static_cast<int>(m)) %
                                  static_cast<int>(m));
}

// The transforms the engine ran before unknowns were paired: one complex
// m1×m2 transformGrid2D per real signal, over the whole grid.
numeric::RMat referenceToTime(const HarmonicBalance& eng, std::size_t m1,
                              std::size_t m2, const CMat& coeffs) {
  const auto& idx = eng.retainedIndices();
  const std::size_t ms = m1 * m2;
  const auto rowPlan = fft::PlanCache::global().get(m2);
  const auto colPlan = fft::PlanCache::global().get(m1);
  numeric::RMat samples(coeffs.rows(), ms);
  std::vector<Complex> grid(ms);
  for (std::size_t u = 0; u < coeffs.rows(); ++u) {
    std::fill(grid.begin(), grid.end(), Complex{});
    for (std::size_t j = 0; j < idx.size(); ++j) {
      const int k1 = idx[j][0], k2 = idx[j][1];
      grid[wrapBin(k1, m1) * m2 + wrapBin(k2, m2)] +=
          coeffs(u, j) * static_cast<Real>(ms);
      if (j != 0)
        grid[wrapBin(-k1, m1) * m2 + wrapBin(-k2, m2)] +=
            std::conj(coeffs(u, j)) * static_cast<Real>(ms);
    }
    fft::transformGrid2D(*rowPlan, *colPlan, grid.data(), m1, m2, true);
    for (std::size_t s = 0; s < ms; ++s) samples(u, s) = grid[s].real();
  }
  return samples;
}

CMat referenceToSpectrum(const HarmonicBalance& eng, std::size_t m1,
                         std::size_t m2, const numeric::RMat& samples) {
  const auto& idx = eng.retainedIndices();
  const std::size_t ms = m1 * m2;
  const auto rowPlan = fft::PlanCache::global().get(m2);
  const auto colPlan = fft::PlanCache::global().get(m1);
  CMat coeffs(samples.rows(), idx.size());
  std::vector<Complex> grid(ms);
  for (std::size_t u = 0; u < samples.rows(); ++u) {
    for (std::size_t s = 0; s < ms; ++s) grid[s] = samples(u, s);
    fft::transformGrid2D(*rowPlan, *colPlan, grid.data(), m1, m2, false);
    for (std::size_t j = 0; j < idx.size(); ++j) {
      const std::size_t bin =
          wrapBin(idx[j][0], m1) * m2 + wrapBin(idx[j][1], m2);
      coeffs(u, j) = grid[bin] / static_cast<Real>(ms);
    }
  }
  return coeffs;
}

struct SpectralCase {
  std::vector<std::size_t> harmonics;  ///< one entry per tone
  std::size_t oversample;              ///< 1 → smallest grid, m = 2^⌈lg(2H+2)⌉
  std::size_t unknowns;
};

std::string spectralCaseName(const SpectralCase& sc) {
  std::string name = "H" + std::to_string(sc.harmonics[0]);
  for (std::size_t t = 1; t < sc.harmonics.size(); ++t)
    name += "x" + std::to_string(sc.harmonics[t]);
  return name + "_os" + std::to_string(sc.oversample) + "_n" +
         std::to_string(sc.unknowns);
}

void PrintTo(const SpectralCase& sc, std::ostream* os) {
  *os << spectralCaseName(sc);
}

class HBSpectral : public ::testing::TestWithParam<SpectralCase> {};

TEST_P(HBSpectral, PairedTransformsMatchFullGrid) {
  const SpectralCase& sc = GetParam();
  // A resistor ladder with no sources: exactly `unknowns` node voltages.
  Circuit c;
  int prev = -1;
  for (std::size_t i = 0; i < sc.unknowns; ++i) {
    const int nd = c.node("n" + std::to_string(i));
    c.add<Resistor>("Rg" + std::to_string(i), nd, -1, 1e3);
    if (prev >= 0) c.add<Resistor>("Rs" + std::to_string(i), prev, nd, 1e2);
    prev = nd;
  }
  MnaSystem sys(c);
  ASSERT_EQ(sys.dim(), sc.unknowns);
  std::vector<Tone> tones;
  for (std::size_t t = 0; t < sc.harmonics.size(); ++t)
    tones.push_back({1e6 * static_cast<Real>(t + 1) * 1.3, sc.harmonics[t]});
  HBOptions opts;
  opts.oversample = sc.oversample;
  const HarmonicBalance eng(sys, tones, opts);
  // The grid the engine sizes: m = 2^⌈lg max(oversample·H, 2H+2)⌉ per tone.
  const auto gridLen = [&](std::size_t h) {
    return fft::nextPowerOfTwo(std::max(sc.oversample * h, 2 * h + 2));
  };
  const std::size_t m1 = gridLen(sc.harmonics[0]);
  const std::size_t m2 = tones.size() == 2 ? gridLen(sc.harmonics[1]) : 1;
  ASSERT_EQ(eng.numTimeSamples(), m1 * m2);
  const std::size_t n = sc.unknowns, nidx = eng.retainedIndices().size();

  // Random retained spectrum; the DC entries carry a nonzero imaginary part,
  // which the transform must ignore (the samples are real).
  std::mt19937_64 rng(17 + n + nidx);
  std::uniform_real_distribution<Real> dist(-1.0, 1.0);
  CMat coeffs(n, nidx);
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t j = 0; j < nidx; ++j)
      coeffs(u, j) = Complex(dist(rng), dist(rng));

  // Inverse: spectrum → time.
  numeric::RMat samples(n, m1 * m2);
  eng.spectrumToTime(coeffs, samples);
  const numeric::RMat refSamples = referenceToTime(eng, m1, m2, coeffs);
  const Real tolT = 1e-13 * static_cast<Real>(2 * nidx);
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t s = 0; s < m1 * m2; ++s)
      ASSERT_NEAR(samples(u, s), refSamples(u, s), tolT) << "u=" << u;

  // Forward: time → spectrum, on independent random samples.
  numeric::RMat x(n, m1 * m2);
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t s = 0; s < m1 * m2; ++s) x(u, s) = dist(rng);
  CMat spec(n, nidx);
  eng.timeToSpectrum(x, spec);
  const CMat refSpec = referenceToSpectrum(eng, m1, m2, x);
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t j = 0; j < nidx; ++j)
      ASSERT_NEAR(std::abs(spec(u, j) - refSpec(u, j)), 0.0, 1e-14)
          << "u=" << u << " j=" << j;

  // Round trip: the retained spectrum comes back, with Re of the DC entry.
  CMat back(n, nidx);
  eng.timeToSpectrum(samples, back);
  for (std::size_t u = 0; u < n; ++u) {
    EXPECT_NEAR(back(u, 0).real(), coeffs(u, 0).real(), 1e-13);
    EXPECT_EQ(back(u, 0).imag(), 0.0);
    for (std::size_t j = 1; j < nidx; ++j)
      ASSERT_NEAR(std::abs(back(u, j) - coeffs(u, j)), 0.0, 1e-13)
          << "u=" << u << " j=" << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, HBSpectral,
    ::testing::Values(SpectralCase{{5}, 4, 4},     // one tone, even n
                      SpectralCase{{3}, 1, 3},     // one tone, smallest grid
                      SpectralCase{{1}, 1, 1},     // lone unknown paired w/ 0
                      SpectralCase{{4, 3}, 4, 5},  // two tones, odd n
                      SpectralCase{{2, 2}, 1, 2},  // two tones, smallest grid
                      SpectralCase{{3, 1}, 1, 1}),
    [](const ::testing::TestParamInfo<SpectralCase>& info) {
      return spectralCaseName(info.param);
    });

TEST(HB, SolveIsBitwiseIdenticalAcrossLaneCounts) {
  // Each paired grid is transformed start to finish by one lane, so a
  // solve on one lane and on four (capped by the pool's size) must agree
  // to the last bit — iteration counts and every coefficient.
  Circuit c;
  const int a = c.node("a"), s2 = c.node("s2"), b = c.node("b");
  const int br1 = c.allocBranch("V1"), br2 = c.allocBranch("V2");
  c.add<VSource>("V1", a, -1, br1, std::make_shared<SineWave>(0.3, 10e6),
                 TimeAxis::slow);
  c.add<VSource>("V2", s2, a, br2, std::make_shared<SineWave>(0.3, 13e6),
                 TimeAxis::fast);
  c.add<Resistor>("Rs", s2, b, 500.0);
  c.add<Diode>("D1", b, -1, Diode::Params{});
  c.add<Resistor>("RL", b, -1, 2000.0);
  c.add<Capacitor>("CL", b, -1, 1e-12);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  const auto solveOn = [&](std::size_t lanes) {
    const perf::ThreadPool::ScopedLaneCap cap(lanes);
    const HarmonicBalance eng(sys, {{10e6, 6}, {13e6, 6}});
    return eng.solve(dc.x);
  };
  const auto one = solveOn(1);
  const auto four = solveOn(4);
  ASSERT_TRUE(one.converged);
  ASSERT_TRUE(four.converged);
  EXPECT_EQ(one.newtonIterations, four.newtonIterations);
  EXPECT_EQ(one.gmresIterations, four.gmresIterations);
  ASSERT_EQ(one.coeffs.rows(), four.coeffs.rows());
  ASSERT_EQ(one.coeffs.cols(), four.coeffs.cols());
  for (std::size_t u = 0; u < one.coeffs.rows(); ++u)
    for (std::size_t j = 0; j < one.coeffs.cols(); ++j) {
      ASSERT_EQ(one.coeffs(u, j).real(), four.coeffs(u, j).real());
      ASSERT_EQ(one.coeffs(u, j).imag(), four.coeffs(u, j).imag());
    }
}

TEST(Spectrum, DbcReferencesStrongestLine) {
  Circuit c;
  const int in = c.node("in");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(1.0, 1e6));
  c.add<Resistor>("Rs", in, -1, 50.0);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  const auto sol = HarmonicBalance(sys, {{1e6, 3}}).solve(dc.x);
  const auto lines = spectrumOf(sol, static_cast<std::size_t>(in));
  // Find the fundamental: dbc = 0 there.
  bool foundCarrier = false;
  for (const auto& l : lines) {
    if (l.k1 == 1) {
      EXPECT_NEAR(l.dbc, 0.0, 1e-9);
      foundCarrier = true;
    }
  }
  EXPECT_TRUE(foundCarrier);
}

TEST(Spectrum, ToDbHandlesZeros) {
  EXPECT_NEAR(toDb(10.0, 1.0), 20.0, 1e-12);
  EXPECT_EQ(toDb(0.0, 1.0), -400.0);
  EXPECT_EQ(toDb(1.0, 0.0), -400.0);
}

TEST(Spectrum, TransientSpectrumFindsTone) {
  const Real fs = 1e6, f0 = 12e3;
  std::vector<Real> samples(4096);
  for (std::size_t i = 0; i < samples.size(); ++i)
    samples[i] = 0.7 * std::sin(kTwoPi * f0 * static_cast<Real>(i) / fs);
  const auto sp = transientSpectrum(samples, fs);
  EXPECT_NEAR(amplitudeNear(sp, f0), 0.7, 0.02);
  EXPECT_LT(amplitudeNear(sp, 300e3), 1e-3);
}

}  // namespace
}  // namespace rfic::hb
