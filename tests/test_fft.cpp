// FFT kernels: roundtrips, reference DFT comparison, Parseval, the 2-D
// transform used by two-tone HB, and the Plan/PlanCache layer the hot loops
// replay.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <thread>

#include "fft/fft.hpp"
#include "fft/plan.hpp"
#include "perf/perf.hpp"
#include "perf/thread_pool.hpp"

namespace rfic::fft {
namespace {

std::vector<Complex> randomSignal(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> u(-1.0, 1.0);
  std::vector<Complex> x(n);
  for (auto& v : x) v = {u(rng), u(rng)};
  return x;
}

// Whole-vector 1-D transform through the process plan cache.
void transform(std::vector<Complex>& x, bool inverse = false) {
  transformColumns(*PlanCache::global().get(x.size()), x.data(), 1, inverse);
}

// Whole-grid 2-D transform of a rows×cols row-major grid.
void transformGrid(std::vector<Complex>& x, std::size_t rows,
                   std::size_t cols, bool inverse = false) {
  auto& cache = PlanCache::global();
  transformGrid2D(*cache.get(cols), *cache.get(rows), x.data(), rows, cols,
                  inverse);
}

std::vector<Complex> referenceDFT(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex s = 0;
    for (std::size_t m = 0; m < n; ++m) {
      const Real ang = -kTwoPi * static_cast<Real>(k * m) / static_cast<Real>(n);
      s += x[m] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = s;
  }
  return out;
}

class FFTLengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FFTLengths, MatchesReferenceDFT) {
  const std::size_t n = GetParam();
  auto x = randomSignal(n, 10 + n);
  const auto ref = referenceDFT(x);
  transform(x);
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(x[k] - ref[k]), 0.0, 1e-9 * static_cast<Real>(n))
        << "bin " << k << " length " << n;
}

TEST_P(FFTLengths, RoundTripIdentity) {
  const std::size_t n = GetParam();
  const auto orig = randomSignal(n, 20 + n);
  auto x = orig;
  transform(x);
  transform(x, /*inverse=*/true);
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(x[k] - orig[k]), 0.0, 1e-11);
}

TEST_P(FFTLengths, Parseval) {
  const std::size_t n = GetParam();
  auto x = randomSignal(n, 30 + n);
  Real timeEnergy = 0;
  for (const auto& v : x) timeEnergy += std::norm(v);
  transform(x);
  Real freqEnergy = 0;
  for (const auto& v : x) freqEnergy += std::norm(v);
  EXPECT_NEAR(freqEnergy / static_cast<Real>(n), timeEnergy,
              1e-9 * timeEnergy);
}

INSTANTIATE_TEST_SUITE_P(Lengths, FFTLengths,
                         ::testing::Values(1, 2, 4, 8, 64, 256,  // pow2
                                           3, 5, 7, 12, 15, 100, 127,
                                           243));  // Bluestein

TEST(FFT, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  std::vector<Complex> x(n);
  for (std::size_t m = 0; m < n; ++m)
    x[m] = std::exp(Complex(0, kTwoPi * 5.0 * static_cast<Real>(m) /
                                   static_cast<Real>(n)));
  transform(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == 5)
      EXPECT_NEAR(std::abs(x[k]), static_cast<Real>(n), 1e-9);
    else
      EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-9);
  }
}

TEST(FFT, LinearityHolds) {
  const std::size_t n = 48;
  auto a = randomSignal(n, 1);
  auto b = randomSignal(n, 2);
  std::vector<Complex> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  transform(a);
  transform(b);
  transform(sum);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(sum[i] - (2.0 * a[i] + 3.0 * b[i])), 0.0, 1e-10);
}

TEST(FFT2, SeparableToneInOneBin) {
  const std::size_t rows = 8, cols = 16;
  std::vector<Complex> x(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      x[r * cols + c] =
          std::exp(Complex(0, kTwoPi * (2.0 * static_cast<Real>(r) /
                                            static_cast<Real>(rows) +
                                        3.0 * static_cast<Real>(c) /
                                            static_cast<Real>(cols))));
  transformGrid(x, rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const Real expected = (r == 2 && c == 3)
                                ? static_cast<Real>(rows * cols)
                                : 0.0;
      EXPECT_NEAR(std::abs(x[r * cols + c]), expected, 1e-8);
    }
  }
}

TEST(FFT2, RoundTrip) {
  const std::size_t rows = 12, cols = 10;  // non-pow2 both dims
  auto x = randomSignal(rows * cols, 7);
  const auto orig = x;
  transformGrid(x, rows, cols);
  transformGrid(x, rows, cols, /*inverse=*/true);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(x[i] - orig[i]), 0.0, 1e-10);
}

class PlanLengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlanLengths, ForwardMatchesReferenceDFT) {
  const std::size_t n = GetParam();
  const Plan plan(n);
  EXPECT_EQ(plan.size(), n);
  EXPECT_EQ(plan.usesBluestein(), !isPowerOfTwo(n));
  auto x = randomSignal(n, 40 + n);
  const auto ref = referenceDFT(x);
  std::vector<Complex> scratch(plan.scratchSize());
  plan.forward(x.data(), scratch.data());
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(x[k] - ref[k]), 0.0, 1e-9 * static_cast<Real>(n))
        << "bin " << k << " length " << n;
}

TEST_P(PlanLengths, InverseUndoesForward) {
  const std::size_t n = GetParam();
  const Plan plan(n);
  const auto orig = randomSignal(n, 50 + n);
  auto x = orig;
  std::vector<Complex> scratch(plan.scratchSize());
  plan.forward(x.data(), scratch.data());
  plan.inverse(x.data(), scratch.data());
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(x[k] - orig[k]), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Lengths, PlanLengths,
                         ::testing::Values(1, 2, 4, 8, 64, 256,  // pow2
                                           3, 5, 7, 12, 15, 100, 127,
                                           243));  // Bluestein

TEST(Plan, LargePrimeBluesteinToneLandsInOneBin) {
  // Exercises the incremental k²-mod-2n chirp indexing far past where a
  // naive k*k would overflow intermediate arithmetic carelessly written in
  // 32 bits; the overflow guard admits any n ≤ SIZE_MAX/4.
  const std::size_t n = 104729;  // the 10000th prime
  const Plan plan(n);
  ASSERT_TRUE(plan.usesBluestein());
  const std::size_t bin = 4211;
  std::vector<Complex> x(n);
  for (std::size_t m = 0; m < n; ++m)
    x[m] = std::exp(Complex(0, kTwoPi * static_cast<Real>(bin) *
                                   static_cast<Real>(m) /
                                   static_cast<Real>(n)));
  std::vector<Complex> scratch(plan.scratchSize());
  plan.forward(x.data(), scratch.data());
  EXPECT_NEAR(std::abs(x[bin]), static_cast<Real>(n), 1e-5 * n);
  // Every other bin is numerically empty relative to the tone.
  Real worst = 0;
  for (std::size_t k = 0; k < n; ++k)
    if (k != bin) worst = std::max(worst, std::abs(x[k]));
  EXPECT_LT(worst, 1e-6 * static_cast<Real>(n));
}

TEST(Plan, TransformColumnsMatchesPerColumnFFT) {
  const std::size_t n = 24, cols = 7;
  const Plan plan(n);
  std::vector<Complex> batch(n * cols);
  std::vector<std::vector<Complex>> separate(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    separate[c] = randomSignal(n, 60 + c);
    std::copy(separate[c].begin(), separate[c].end(),
              batch.begin() + static_cast<std::ptrdiff_t>(c * n));
  }
  transformColumns(plan, batch.data(), cols, /*inverse=*/false);
  for (auto& col : separate) transform(col);
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t k = 0; k < n; ++k)
      EXPECT_NEAR(std::abs(batch[c * n + k] - separate[c][k]), 0.0, 1e-10);
  // And the inverse restores the batch through the same entry point.
  transformColumns(plan, batch.data(), cols, /*inverse=*/true);
  for (auto& col : separate) transform(col, /*inverse=*/true);
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t k = 0; k < n; ++k)
      EXPECT_NEAR(std::abs(batch[c * n + k] - separate[c][k]), 0.0, 1e-10);
}

TEST(Plan, BatchedTransformsNestInsidePoolTasks) {
  // Reentrancy audit for the thread_local scratch (DESIGN.md §9): the
  // batched entry points run their lambdas on pool workers, and a
  // parallelFor issued from such a worker executes inline on it. A user
  // pipeline that calls transformColumns from inside its own pool task
  // therefore runs the whole transform — including the ScratchLease claim
  // of tlScratch — on a worker thread, nested below another dispatch.
  // Distinct Bluestein lengths per task force scratch buffers of different
  // sizes to be claimed on whichever worker picks the task up; every
  // result must still match the serial reference.
  const std::size_t kTasks = 6;
  const std::size_t lengths[kTasks] = {23, 31, 37, 41, 43, 47};  // Bluestein
  const std::size_t cols = 5;

  std::vector<std::vector<Complex>> batches(kTasks);
  std::vector<std::vector<Complex>> expected(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) {
    const std::size_t n = lengths[t];
    batches[t].resize(n * cols);
    expected[t].resize(n * cols);
    for (std::size_t c = 0; c < cols; ++c) {
      auto col = randomSignal(n, 900 + t * cols + c);
      std::copy(col.begin(), col.end(),
                batches[t].begin() + static_cast<std::ptrdiff_t>(c * n));
      transform(col);  // serial reference, computed before any pool activity
      std::copy(col.begin(), col.end(),
                expected[t].begin() + static_cast<std::ptrdiff_t>(c * n));
    }
  }

  perf::ThreadPool::global().parallelFor(kTasks, [&](std::size_t t) {
    const Plan plan(lengths[t]);
    transformColumns(plan, batches[t].data(), cols, /*inverse=*/false);
  });

  for (std::size_t t = 0; t < kTasks; ++t)
    for (std::size_t i = 0; i < batches[t].size(); ++i)
      EXPECT_NEAR(std::abs(batches[t][i] - expected[t][i]), 0.0, 1e-9)
          << "task " << t << " index " << i;
}

TEST(Plan, Grid2DNestsInsidePoolTasks) {
  // Same audit for transformGrid2D, whose column pass holds TWO leases at
  // once (tlColumn for the gather/scatter and tlScratch for Bluestein).
  const std::size_t rows = 6, colsN = 10;
  std::vector<Complex> grid = randomSignal(rows * colsN, 1234);
  std::vector<Complex> expected = grid;
  {
    const Plan rowPlan(colsN), colPlan(rows);
    transformGrid2D(rowPlan, colPlan, expected.data(), rows, colsN,
                    /*inverse=*/false);
  }
  // Two tasks so that (with workers available) at least one grid transform
  // runs nested-inline on a pool worker rather than on the caller.
  std::vector<Complex> nested[2] = {grid, grid};
  perf::ThreadPool::global().parallelFor(2, [&](std::size_t t) {
    const Plan rowPlan(colsN), colPlan(rows);
    transformGrid2D(rowPlan, colPlan, nested[t].data(), rows, colsN,
                    /*inverse=*/false);
  });
  for (std::size_t t = 0; t < 2; ++t)
    for (std::size_t i = 0; i < grid.size(); ++i)
      EXPECT_NEAR(std::abs(nested[t][i] - expected[i]), 0.0, 1e-9)
          << "task " << t << " index " << i;
}

// transformGridBatch against transformGrid2D, one grid at a time. The
// inverse input is zero outside the live columns, so skipping the dead
// columns skips only transforms of zeros; the forward output is compared
// in the live columns, the only ones the batch defines. The forward runs
// the same passes in the same order as transformGrid2D and must match it
// to the last bit; the inverse runs the columns first, so it matches to
// rounding. Either way the result must not depend on the lane count.
struct GridCase {
  std::size_t rows, cols;
  std::vector<std::size_t> live;
};

std::string gridCaseName(const GridCase& gc) {
  return std::to_string(gc.rows) + "x" + std::to_string(gc.cols) + "_live" +
         std::to_string(gc.live.size());
}

void PrintTo(const GridCase& gc, std::ostream* os) { *os << gridCaseName(gc); }

class GridBatchCases : public ::testing::TestWithParam<GridCase> {};

TEST_P(GridBatchCases, MatchesGrid2DOnLiveColumns) {
  const GridCase& gc = GetParam();
  const std::size_t rows = gc.rows, cols = gc.cols, cells = rows * cols;
  const std::size_t count = 3;
  const Plan rowPlan(cols), colPlan(rows);
  std::vector<bool> isLive(cols, false);
  for (const std::size_t c : gc.live) isLive[c] = true;
  const std::uint64_t perGrid =
      (cols > 1 ? rows : 0) + (rows > 1 ? gc.live.size() : 0);

  for (const bool inverse : {true, false}) {
    std::vector<Complex> input = randomSignal(count * cells, 900 + cells);
    if (inverse)
      for (std::size_t i = 0; i < input.size(); ++i)
        if (!isLive[i % cols]) input[i] = Complex{};
    std::vector<Complex> expected = input;
    for (std::size_t g = 0; g < count; ++g)
      transformGrid2D(rowPlan, colPlan, expected.data() + g * cells, rows,
                      cols, inverse);

    std::vector<Complex> oneLane;
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
      const perf::ThreadPool::ScopedLaneCap cap(lanes);
      std::vector<Complex> got = input;
      perf::Counters counters;
      const perf::CounterScope scope(counters);
      transformGridBatch(rowPlan, colPlan, got.data(), count, rows, cols,
                         gc.live.data(), gc.live.size(), inverse);
      EXPECT_EQ(counters.snapshot().fftCount, count * perGrid);
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (!inverse && !isLive[i % cols]) continue;
        if (inverse) {
          ASSERT_NEAR(std::abs(got[i] - expected[i]), 0.0, 1e-14)
              << "lanes=" << lanes << " i=" << i;
        } else {
          ASSERT_EQ(got[i], expected[i]) << "lanes=" << lanes << " i=" << i;
        }
      }
      if (lanes == 1) {
        oneLane = got;
      } else {
        for (std::size_t i = 0; i < got.size(); ++i)
          ASSERT_EQ(got[i], oneLane[i]) << "inverse=" << inverse << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GridBatchCases,
    ::testing::Values(GridCase{8, 1, {0}},                  // one tone
                      GridCase{16, 16, {0, 1, 2, 14, 15}},  // two tones, H2=2
                      GridCase{32, 8, {0, 1, 2, 3, 5, 6, 7}},
                      GridCase{6, 10, {0, 3, 9}},           // Bluestein axes
                      GridCase{4, 4, {}}),                  // rows only
    [](const ::testing::TestParamInfo<GridCase>& info) {
      return gridCaseName(info.param);
    });

TEST(Plan, GridBatchRejectsBadLiveColumns) {
  const Plan rowPlan(4), colPlan(4);
  std::vector<Complex> grid(16);
  const std::size_t bad[] = {4};
  EXPECT_THROW(transformGridBatch(rowPlan, colPlan, grid.data(), 1, 4, 4, bad,
                                  1, false),
               InvalidArgument);
  EXPECT_THROW(transformGridBatch(rowPlan, colPlan, grid.data(), 1, 4, 8, bad,
                                  1, false),
               InvalidArgument);
}

TEST(PlanCache, SecondRequestIsASharedHit) {
  auto& cache = PlanCache::global();
  cache.clear();
  const std::uint64_t h0 = cache.hits(), m0 = cache.misses();
  const auto a = cache.get(97);
  const auto b = cache.get(97);
  EXPECT_EQ(a.get(), b.get());  // one immutable plan, shared
  EXPECT_EQ(cache.misses(), m0 + 1);
  EXPECT_GE(cache.hits(), h0 + 1);
}

TEST(PlanCache, ConcurrentGetsYieldOnePlanPerLength) {
  // Hammer the cache from many threads over a few lengths: every caller
  // must receive a working plan and all callers of one length must agree
  // on the same instance once the cache settles. Run under
  // RFIC_SANITIZE=thread this validates the lock discipline.
  auto& cache = PlanCache::global();
  cache.clear();
  constexpr std::size_t kThreads = 8, kLengths = 4;
  const std::size_t lengths[kLengths] = {33, 64, 101, 128};
  std::vector<std::shared_ptr<const Plan>> got(kThreads * kLengths);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t j = 0; j < kLengths; ++j)
        got[t * kLengths + j] = cache.get(lengths[(t + j) % kLengths]);
    });
  for (auto& th : threads) th.join();
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NE(got[i], nullptr);
    EXPECT_GT(got[i]->size(), 0u);
  }
  // After the race settles, the cache serves one canonical plan per length.
  for (const std::size_t n : lengths) {
    const auto canonical = cache.get(n);
    EXPECT_EQ(cache.get(n).get(), canonical.get());
    EXPECT_EQ(canonical->size(), n);
  }
}

TEST(FFTUtil, PowerOfTwoHelpers) {
  EXPECT_TRUE(isPowerOfTwo(1));
  EXPECT_TRUE(isPowerOfTwo(64));
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_FALSE(isPowerOfTwo(12));
  EXPECT_EQ(nextPowerOfTwo(1), 1u);
  EXPECT_EQ(nextPowerOfTwo(17), 32u);
  EXPECT_EQ(nextPowerOfTwo(64), 64u);
}

}  // namespace
}  // namespace rfic::fft
