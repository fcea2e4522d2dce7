// Fig. 6 reproduction — IES³ solver time and memory vs problem size
// (Section 4: "time and memory requirements scale only slightly faster
// than linearly").
//
// Sweep of a multi-conductor bus-crossing extraction: the dense solver's
// O(n²) memory / O(n³) time against the IES³-compressed solver. The fitted
// scaling exponents are the reproducible "shape"; the crossover point is
// hardware-dependent.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "extraction/ies3.hpp"
#include "extraction/mom.hpp"
#include "numeric/qr.hpp"
#include "perf/thread_pool.hpp"

using namespace rfic;
using namespace rfic::bench;
using namespace rfic::extraction;

namespace {

Real fitExponent(const std::vector<Real>& n, const std::vector<Real>& y) {
  // log y = a + p log n
  numeric::RMat a(n.size(), 2);
  numeric::RVec b(n.size());
  for (std::size_t i = 0; i < n.size(); ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = std::log(n[i]);
    b[i] = std::log(y[i]);
  }
  return numeric::leastSquares(a, b)[1];
}

}  // namespace

int main() {
  header("Fig. 6 — IES3 electromagnetic-solver scaling");
  JsonReporter rep("fig6_ies3_scaling");
  std::printf("%-8s %-10s %-10s %-9s %-10s %-9s %-9s %-9s %-7s\n", "panels",
              "dense MB", "ies3 MB", "compr %", "dense s", "build s",
              "solve s", "total s", "gmres");
  rule();

  std::vector<Real> ns, iesMem, iesTime, denseTime;
  std::vector<std::size_t> sweep{16, 32, 64, 128, 256};
  if (quickMode()) sweep = {16, 32, 64};
  IES3Options opts;       // accuracy-relaxed settings for the scaling study
  opts.tolerance = 1e-5;  // (library default 1e-6 trades memory for digits)
  for (const std::size_t m : sweep) {
    const auto mesh = makeBusCrossing(6, 1.0, 3.0, 18.0, 1.0, m);
    const std::size_t n = mesh.panels.size();

    Real denseSeconds = -1.0, denseMB = 8.0 * n * n / 1e6;
    Real c01Dense = 0;
    if (n <= 1600) {  // dense cost explodes beyond this
      Stopwatch sw;
      const auto dense = extractCapacitanceDense(mesh);
      denseSeconds = sw.seconds();
      c01Dense = dense.matrix(0, 1);
    }

    Stopwatch sw;
    const auto comp = extractCapacitanceIES3(mesh, opts);
    const Real iesSeconds = sw.seconds();
    const Real iesMB = 8.0 * comp.storedEntries / 1e6;
    const Real buildSeconds = comp.buildStats.buildNs * 1e-9;
    const Real solveSeconds = comp.solveNs * 1e-9;

    ns.push_back(static_cast<Real>(n));
    iesMem.push_back(iesMB);
    iesTime.push_back(iesSeconds);
    if (denseSeconds > 0) denseTime.push_back(denseSeconds);

    std::printf("%-8zu %-10.2f %-10.2f %-9.1f ", n, denseMB, iesMB,
                100.0 * comp.storedEntries / (static_cast<Real>(n) * n));
    if (denseSeconds > 0)
      std::printf("%-10.2f ", denseSeconds);
    else
      std::printf("%-10s ", "(skipped)");
    std::printf("%-9.2f %-9.2f %-9.2f %-7zu", buildSeconds, solveSeconds,
                iesSeconds, comp.gmresIterations);
    if (denseSeconds > 0) {
      const Real err = std::abs(comp.matrix(0, 1) - c01Dense) /
                       std::abs(c01Dense);
      std::printf("  relerr=%.1e", err);
    }
    std::printf("\n");

    // Per-sweep JSON: last-write-wins keeps the largest point on record.
    rep.metric("ies3_build_s", buildSeconds);
    rep.metric("ies3_solve_s", solveSeconds);
    rep.metric("ies3_total_s", iesSeconds);
    rep.count("gmres_iterations", comp.gmresIterations);
    rep.count("matvecs", static_cast<std::size_t>(comp.matvecs));
    rep.metric("compression_ratio", comp.buildStats.compressionRatio);
    rep.count("rank_max", comp.buildStats.rankMax);
    rep.metric("rank_mean", comp.buildStats.rankMean);
    rep.count("low_rank_blocks", comp.buildStats.lowRankBlockCount);
    rep.count("dense_blocks", comp.buildStats.denseBlockCount);
  }
  rule();
  const Real memExp = fitExponent(ns, iesMem);
  const Real timeExp = fitExponent(ns, iesTime);
  rep.count("max_panels", static_cast<std::size_t>(ns.back()));
  rep.count("threads", perf::ThreadPool::global().concurrency());
  rep.metric("ies3_memory_exponent", memExp);
  rep.metric("ies3_time_exponent", timeExp);
  rep.counters("perf", perf::global().snapshot());
  std::printf("fitted IES3 memory exponent: n^%.2f  (dense: n^2)\n", memExp);
  std::printf("fitted IES3 time exponent:   n^%.2f  (dense LU: n^3)\n",
              timeExp);
  std::printf("paper: both \"scale only slightly faster than linearly\"\n");
  return 0;
}
