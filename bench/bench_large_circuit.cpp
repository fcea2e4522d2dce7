// Large-circuit scaling bench: fill-reducing ordering plus level-scheduled
// parallel refactorization (DESIGN.md §13) against the natural Markowitz
// reference on synthetic RC interconnect matrices — the 2-D mesh (power
// grid / substrate network) and the 1-D ladder (long RC line), the two
// canonical sparsity shapes parasitic-dominated RF layouts produce. The
// same topologies are available as netlists via tools/gen_mesh.py; the
// bench builds the MNA-shaped matrices directly so it measures exactly the
// factor/refactor/solve pipeline and nothing else.
//
// Reported per case: analysis (ordering + factor) wall time, fill-in ratio
// and factor nnz, level count of the recorded replay program, serial and
// pool-parallel refactor time, solve time, and the headline speedups of
// AMD vs natural for the full factor and for the Newton-loop steady state
// (refactor + solve). Quick mode (RFIC_BENCH_QUICK=1, the CI perf-smoke
// setting) trims the node counts; the full run goes to a ~50k-node mesh
// for the natural/AMD comparison and ~100k nodes AMD-only (the natural
// analysis scan is O(n²) — the very cost the ordering stage removes).
//
// The mesh_ac row runs a whole analysis instead: the 7-point
// `.ac dec 2 1k 1meg` sweep of a 48×48 RC mesh circuit through acSweep
// under AMD — one (G + jωC) pencil analysis plus one refactorization per
// further point — reporting time per point and the sweep's ledger.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analysis/ac.hpp"
#include "bench_util.hpp"
#include "circuit/devices.hpp"
#include "circuit/sources.hpp"
#include "perf/perf.hpp"
#include "perf/thread_pool.hpp"
#include "sparse/ordering.hpp"
#include "sparse/sparse_matrix.hpp"
#include "sparse/symbolic_lu.hpp"

using namespace rfic;
using namespace rfic::bench;

namespace {

// k×k resistive grid with capacitive ground leak folded into the diagonal:
// the G + C/dt matrix a transient step factors. Deterministic values.
sparse::RCSR gridMesh(std::size_t k, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> g(0.5, 1.5);
  const std::size_t n = k * k;
  sparse::RTriplets t(n, n);
  std::vector<Real> diag(n, 0.1);
  const auto couple = [&](std::size_t a, std::size_t b) {
    const Real gv = g(rng);
    t.add(a, b, -gv);
    t.add(b, a, -gv);
    diag[a] += gv;
    diag[b] += gv;
  };
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t u = i * k + j;
      if (j + 1 < k) couple(u, u + 1);
      if (i + 1 < k) couple(u, u + k);
    }
  for (std::size_t i = 0; i < n; ++i) t.add(i, i, diag[i]);
  return sparse::RCSR(t);
}

// n-node RC ladder (tridiagonal): the other extreme — no fill at all, so
// it isolates the per-step overhead of the replay program.
sparse::RCSR ladder(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> g(0.5, 1.5);
  sparse::RTriplets t(n, n);
  std::vector<Real> diag(n, 0.1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Real gv = g(rng);
    t.add(i, i + 1, -gv);
    t.add(i + 1, i, -gv);
    diag[i] += gv;
    diag[i + 1] += gv;
  }
  for (std::size_t i = 0; i < n; ++i) t.add(i, i, diag[i]);
  return sparse::RCSR(t);
}

struct CaseResult {
  std::size_t n = 0;
  std::size_t factorNnz = 0;
  std::size_t levels = 0;
  Real fill = 0;
  Real factorMs = 0;       ///< full analysis (ordering included)
  Real refactorMs = 0;     ///< serial replay, per refactor
  Real refactorParMs = 0;  ///< pool-parallel replay, per refactor
  Real solveMs = 0;        ///< per solve
};

CaseResult runCase(const char* label, const sparse::RCSR& a,
                   sparse::Ordering ord, std::size_t reps) {
  CaseResult res;
  res.n = a.rows();

  sparse::RSymbolicLU::Options o;
  o.ordering = ord;
  o.parallelMinFlops = 0;  // measure the parallel path even on small cases

  Stopwatch sw;
  sparse::RSymbolicLU lu(a, o);
  res.factorMs = sw.seconds() * 1e3;
  res.factorNnz = lu.factorNnz();
  res.fill = lu.fillRatio();
  res.levels = lu.levelCount();

  // Perturbed values over the same pattern — the Newton-loop steady state.
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<Real> u(0.9, 1.1);
  std::vector<Real> vals = a.values();
  for (auto& v : vals) v *= u(rng);

  sw.reset();
  for (std::size_t r = 0; r < reps; ++r) (void)lu.refactor(vals);
  res.refactorMs = sw.seconds() * 1e3 / static_cast<Real>(reps);

  lu.setPool(&perf::ThreadPool::global());
  (void)lu.refactor(vals);  // warm the pool before timing
  sw.reset();
  for (std::size_t r = 0; r < reps; ++r) (void)lu.refactor(vals);
  res.refactorParMs = sw.seconds() * 1e3 / static_cast<Real>(reps);

  numeric::RVec b(res.n), x, y, z;
  std::uniform_real_distribution<Real> ub(-1, 1);
  for (auto& v : b) v = ub(rng);
  sw.reset();
  for (std::size_t r = 0; r < reps; ++r) lu.solve(b, x, y, z);
  res.solveMs = sw.seconds() * 1e3 / static_cast<Real>(reps);

  std::printf("%-14s %8zu %9zu %6.2f %7zu %10.2f %10.3f %10.3f %8.3f\n",
              label, res.n, res.factorNnz, res.fill, res.levels, res.factorMs,
              res.refactorMs, res.refactorParMs, res.solveMs);
  return res;
}

struct AcSweepResult {
  std::size_t n = 0;       ///< circuit unknowns
  std::size_t points = 0;
  Real msPerPoint = 0;     ///< best of the repetitions
  perf::Snapshot perf;     ///< one sweep's counters
};

// k×k RC mesh circuit (the tools/gen_mesh.py defaults: 100 Ω edges, 1 pF
// to ground, ±25% spread) driven at one corner, swept like the netlist
// card `.ac dec 2 1k 1meg` with AMD ordering.
AcSweepResult runMeshAc(std::size_t k, std::size_t reps) {
  circuit::Circuit c;
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<Real> spread(0.75, 1.25);
  std::vector<int> node(k * k);
  for (std::size_t u = 0; u < k * k; ++u)
    node[u] = c.node("n" + std::to_string(u));
  const int br = c.allocBranch("V1");
  const auto& vs = c.add<circuit::VSource>(
      "V1", node[0], -1, br, std::make_shared<circuit::DCWave>(0.0));
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t u = i * k + j;
      const std::string id = std::to_string(u);
      if (j + 1 < k)
        c.add<circuit::Resistor>("Rh" + id, node[u], node[u + 1],
                                 100.0 * spread(rng));
      if (i + 1 < k)
        c.add<circuit::Resistor>("Rv" + id, node[u], node[u + k],
                                 100.0 * spread(rng));
      c.add<circuit::Capacitor>("C" + id, node[u], -1, 1e-12 * spread(rng));
    }
  const circuit::MnaSystem sys(c);
  // Linear circuit: the small-signal matrices do not depend on the
  // operating point, so the zero state stands in for it.
  const numeric::RVec xop(sys.dim(), 0.0);
  const auto freqs = analysis::logspace(1e3, 1e6, 7);
  const auto u = analysis::acStimulusVSource(sys, vs);
  const sparse::ScopedOrderingOverride amd(sparse::Ordering::Amd);

  AcSweepResult res;
  res.n = sys.dim();
  res.points = freqs.size();
  res.msPerPoint = std::numeric_limits<Real>::max();
  for (std::size_t r = 0; r < reps; ++r) {
    perf::Counters counters;
    Stopwatch sw;
    {
      const perf::CounterScope scope(counters);
      (void)analysis::acSweep(sys, xop, freqs, u);
    }
    res.msPerPoint = std::min(
        res.msPerPoint, sw.seconds() * 1e3 / static_cast<Real>(res.points));
    res.perf = counters.snapshot();
  }
  std::printf("%-14s %8zu %8zu pts %10.3f ms/pt  factor %llu  refactor %llu"
              "  solves %llu\n",
              "mesh_ac/amd", res.n, res.points, res.msPerPoint,
              static_cast<unsigned long long>(res.perf.factorizations),
              static_cast<unsigned long long>(res.perf.refactorizations),
              static_cast<unsigned long long>(res.perf.solves));
  return res;
}

}  // namespace

int main() {
  const bool quick = quickMode();
  JsonReporter json("large_circuit");
  json.count("threads", perf::ThreadPool::global().concurrency());

  header("large-circuit scaling: ordering + level-parallel refactor");
  std::printf("%-14s %8s %9s %6s %7s %10s %10s %10s %8s\n", "case", "n",
              "fnnz", "fill", "levels", "factor_ms", "refac_ms", "refacP_ms",
              "solve_ms");
  rule();

  // Mesh sizes: natural's analysis scan is O(n²), so the head-to-head stops
  // at ~50k nodes and the largest case runs AMD only.
  const std::size_t kCmp = quick ? 48 : 224;     // 2.3k / 50.2k nodes
  const std::size_t kBig = quick ? 80 : 316;     // 6.4k / 99.9k nodes
  const std::size_t reps = quick ? 10 : 5;

  const sparse::RCSR mesh = gridMesh(kCmp, 1);
  const auto nat = runCase("mesh/natural", mesh, sparse::Ordering::Natural,
                           reps);
  const auto amd = runCase("mesh/amd", mesh, sparse::Ordering::Amd, reps);

  const sparse::RCSR big = gridMesh(kBig, 2);
  const auto amdBig = runCase("mesh-big/amd", big, sparse::Ordering::Amd,
                              reps);

  const sparse::RCSR lad = ladder(quick ? 10000 : 100000, 3);
  const auto ladAmd = runCase("ladder/amd", lad, sparse::Ordering::Amd, reps);

  const auto meshAc = runMeshAc(48, quick ? 3 : 5);

  rule();
  const Real natLoop = nat.refactorMs + nat.solveMs;
  const Real amdLoop =
      std::min(amd.refactorMs, amd.refactorParMs) + amd.solveMs;
  const Real speedupLoop = natLoop / amdLoop;
  const Real speedupFactor = nat.factorMs / amd.factorMs;
  const Real speedupPar = amdBig.refactorMs / amdBig.refactorParMs;
  std::printf("mesh %zu nodes: factor speedup %.2fx, refactor+solve speedup "
              "%.2fx (natural %.3f ms vs amd %.3f ms)\n",
              nat.n, speedupFactor, speedupLoop, natLoop, amdLoop);
  std::printf("mesh %zu nodes: parallel refactor speedup %.2fx over serial "
              "replay (%zu lanes)\n",
              amdBig.n, speedupPar,
              perf::ThreadPool::global().concurrency());

  // Wall-clock keys end in _s so tools/bench_compare.py ratio-checks them.
  json.count("mesh.n", nat.n);
  json.metric("mesh.natural.fill", nat.fill);
  json.metric("mesh.natural.factor_s", nat.factorMs * 1e-3);
  json.metric("mesh.natural.refactor_s", nat.refactorMs * 1e-3);
  json.metric("mesh.natural.solve_s", nat.solveMs * 1e-3);
  json.metric("mesh.amd.fill", amd.fill);
  json.count("mesh.amd.levels", amd.levels);
  json.metric("mesh.amd.factor_s", amd.factorMs * 1e-3);
  json.metric("mesh.amd.refactor_s", amd.refactorMs * 1e-3);
  json.metric("mesh.amd.refactor_parallel_s", amd.refactorParMs * 1e-3);
  json.metric("mesh.amd.solve_s", amd.solveMs * 1e-3);
  json.metric("mesh.speedup_factor", speedupFactor);
  json.metric("mesh.speedup_refactor_solve", speedupLoop);
  json.count("mesh_big.n", amdBig.n);
  json.metric("mesh_big.amd.fill", amdBig.fill);
  json.count("mesh_big.amd.levels", amdBig.levels);
  json.metric("mesh_big.amd.factor_s", amdBig.factorMs * 1e-3);
  json.metric("mesh_big.amd.refactor_s", amdBig.refactorMs * 1e-3);
  json.metric("mesh_big.amd.refactor_parallel_s", amdBig.refactorParMs * 1e-3);
  json.metric("mesh_big.speedup_parallel", speedupPar);
  json.count("mesh_ac.n", meshAc.n);
  json.count("mesh_ac.points", meshAc.points);
  json.metric("mesh_ac.per_point_s", meshAc.msPerPoint * 1e-3);
  json.count("mesh_ac.factorizations", meshAc.perf.factorizations);
  json.count("mesh_ac.refactorizations", meshAc.perf.refactorizations);
  json.count("mesh_ac.solves", meshAc.perf.solves);
  json.count("ladder.n", ladAmd.n);
  json.metric("ladder.amd.fill", ladAmd.fill);
  json.metric("ladder.amd.refactor_s", ladAmd.refactorMs * 1e-3);
  json.metric("ladder.amd.solve_s", ladAmd.solveMs * 1e-3);
  return 0;
}
