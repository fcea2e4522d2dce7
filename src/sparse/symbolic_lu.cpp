#include "sparse/symbolic_lu.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "diag/resilience.hpp"
#include "perf/perf.hpp"
#include "perf/thread_pool.hpp"

namespace rfic::sparse {

namespace {

constexpr std::uint32_t kNoSlot = 0xffffffffu;

// Lock-free running max of a non-negative Real shared by the parallel
// replay lanes. Non-negative IEEE doubles order the same as their bit
// patterns, so a CAS-max on the bits is a CAS-max on the values (the same
// trick perf::Counters::noteMemPeak uses for its gauge).
void casMaxNonneg(std::uint64_t& bits, Real v) {
  const std::uint64_t nb = std::bit_cast<std::uint64_t>(v);
  std::atomic_ref<std::uint64_t> ref(bits);
  std::uint64_t cur = ref.load(std::memory_order_relaxed);
  while (nb > cur &&
         !ref.compare_exchange_weak(cur, nb, std::memory_order_relaxed)) {
  }
}

}  // namespace

template <class T>
SymbolicLU<T>::SymbolicLU(const CSR<T>& a, const Options& opts) {
  factor(a, opts);
}

template <class T>
void SymbolicLU<T>::factor(const CSR<T>& a, const Options& opts) {
  RFIC_REQUIRE(a.rows() == a.cols(), "SymbolicLU: square matrix required");
  opts_ = opts;
  n_ = a.rows();
  nnz_ = a.nnz();
  aRowPtr_ = a.rowPtr();
  aColIdx_.assign(a.colIdx().begin(), a.colIdx().end());
  colOrder_.clear();
  resolved_ = resolveOrdering(opts.ordering);
  if (resolved_ == Ordering::Amd) {
    const perf::Timer timer;
    colOrder_ = amdOrder(n_, aRowPtr_, aColIdx_);
    perf::global().addOrdering(timer.ns());
  }
  analyzeFromValues(a.values().data());
}

// Full elimination recording the slot-level update program for later
// replay. Pivot choice depends on the ordering: Natural runs the classic
// full Markowitz/threshold search (bit-for-bit the same pivots as before
// the ordering stage existed); Amd eliminates columns in
// the precomputed fill-reducing sequence and only chooses the pivot *row*
// numerically — threshold first, then the shortest active row (the
// Markowitz count with the column fixed), ties to the larger magnitude.
template <class T>
void SymbolicLU<T>::analyzeFromValues(const T* vals) {
  analyzed_ = false;

  // Dynamic structure: per-row map col -> workspace slot. Slots [0, nnz_)
  // are the input CSR positions in order; fill-in appends.
  std::vector<std::unordered_map<std::size_t, std::uint32_t>> work(n_);
  std::vector<std::unordered_set<std::size_t>> colRows(n_);
  // Slot of each (i, i): turns the natural diagonal scan's per-candidate
  // hash lookup into an array read (same pivot choices — the cache is
  // consulted only while row i and column i are both still active, where
  // it agrees with work[i].find(i) exactly).
  std::vector<std::uint32_t> diagSlot(n_, kNoSlot);
  w_.assign(nnz_, T{});
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t p = aRowPtr_[r]; p < aRowPtr_[r + 1]; ++p) {
      const std::size_t c = aColIdx_[p];
      const auto [it, inserted] =
          work[r].try_emplace(c, static_cast<std::uint32_t>(p));
      RFIC_REQUIRE(inserted, "SymbolicLU: duplicate position in CSR");
      colRows[c].insert(r);
      if (c == r) diagSlot[r] = static_cast<std::uint32_t>(p);
      w_[p] = vals[p];
    }
  }

  std::vector<char> rowActive(n_, 1), colActive(n_, 1);
  pivRow_.resize(n_);
  pivCol_.resize(n_);
  pivVal_.resize(n_);
  pivSlot_.resize(n_);
  lPtr_.assign(n_ + 1, 0);
  uPtr_.assign(n_ + 1, 0);
  stepUpdBase_.assign(n_, 0);
  lRow_.clear();
  uCol_.clear();
  lVal_.clear();
  uVal_.clear();
  lSlot_.clear();
  uSlot_.clear();
  updTarget_.clear();

  auto columnMax = [&](std::size_t c) {
    Real m = 0;
    for (std::size_t r : colRows[c])
      m = std::max(m, std::abs(w_[work[r].at(c)]));
    return m;
  };

  for (std::size_t k = 0; k < n_; ++k) {
    // --- Pivot selection.
    std::size_t bestR = n_, bestC = n_;

    if (!colOrder_.empty()) {
      // Pre-ordered column: only the row is a numeric decision.
      const std::size_t pc = colOrder_[k];
      const Real cmax = columnMax(pc);
      if (cmax > 0) {
        bestC = pc;
        if (opts_.preferDiagonal && rowActive[pc] &&
            diagSlot[pc] != kNoSlot) {
          const Real mag = std::abs(w_[diagSlot[pc]]);
          if (mag > 0 && mag >= opts_.pivotThreshold * cmax) bestR = pc;
        }
        if (bestR == n_) {
          std::size_t bestLen = std::numeric_limits<std::size_t>::max();
          Real bestMag = 0;
          for (std::size_t r : colRows[pc]) {
            const Real mag = std::abs(w_[work[r].at(pc)]);
            if (mag < opts_.pivotThreshold * cmax) continue;
            const std::size_t len = work[r].size();
            if (len < bestLen || (len == bestLen && mag > bestMag)) {
              bestR = r;
              bestLen = len;
              bestMag = mag;
            }
          }
        }
      }
      if (bestR == n_)
        failNumerical("SymbolicLU: matrix is singular");
    } else {
      // Natural: minimize the Markowitz product among entries passing the
      // relative threshold.
      std::size_t bestMark = std::numeric_limits<std::size_t>::max();
      Real bestMag = 0;

      if (opts_.preferDiagonal) {
        for (std::size_t j = 0; j < n_; ++j) {
          if (!colActive[j] || !rowActive[j]) continue;
          const std::uint32_t ds = diagSlot[j];
          if (ds == kNoSlot || w_[ds] == T{}) continue;
          const std::size_t mark =
              (work[j].size() - 1) * (colRows[j].size() - 1);
          if (mark > bestMark) continue;
          const Real mag = std::abs(w_[ds]);
          if (mark == bestMark && mag <= bestMag) continue;
          if (mag < opts_.pivotThreshold * columnMax(j)) continue;
          bestR = bestC = j;
          bestMark = mark;
          bestMag = mag;
        }
      }
      if (bestR == n_) {
        for (std::size_t j = 0; j < n_; ++j) {
          if (!colActive[j]) continue;
          const Real cmax = columnMax(j);
          if (cmax == 0) continue;
          for (std::size_t r : colRows[j]) {
            const T v = w_[work[r].at(j)];
            const Real mag = std::abs(v);
            if (mag < opts_.pivotThreshold * cmax) continue;
            const std::size_t mark =
                (work[r].size() - 1) * (colRows[j].size() - 1);
            if (mark < bestMark || (mark == bestMark && mag > bestMag)) {
              bestR = r;
              bestC = j;
              bestMark = mark;
              bestMag = mag;
            }
          }
        }
      }
      if (bestR == n_) failNumerical("SymbolicLU: matrix is singular");
    }

    const std::size_t pr = bestR, pc = bestC;
    const std::uint32_t pslot = work[pr].at(pc);
    const T p = w_[pslot];
    pivRow_[k] = static_cast<std::uint32_t>(pr);
    pivCol_[k] = static_cast<std::uint32_t>(pc);
    pivSlot_[k] = pslot;
    pivVal_[k] = p;

    // Record the U row (pivot entry excluded) and detach the pivot row.
    for (const auto& [c, slot] : work[pr]) {
      colRows[c].erase(pr);
      if (c == pc) continue;
      uCol_.push_back(static_cast<std::uint32_t>(c));
      uSlot_.push_back(slot);
      uVal_.push_back(w_[slot]);
    }
    uPtr_[k + 1] = uVal_.size();
    stepUpdBase_[k] = updTarget_.size();

    // Eliminate below the pivot, recording L entries and the flattened
    // (target -= m·source) program. The numeric update runs here too so
    // later pivot choices see the true partial values.
    const std::size_t u0 = uPtr_[k], u1 = uPtr_[k + 1];
    std::vector<std::size_t> below(colRows[pc].begin(), colRows[pc].end());
    for (std::size_t i : below) {
      const std::uint32_t numSlot = work[i].at(pc);
      const T m = w_[numSlot] / p;
      lRow_.push_back(static_cast<std::uint32_t>(i));
      lSlot_.push_back(numSlot);
      lVal_.push_back(m);
      work[i].erase(pc);
      for (std::size_t q = u0; q < u1; ++q) {
        const std::size_t c = uCol_[q];
        auto [it, inserted] =
            work[i].try_emplace(c, static_cast<std::uint32_t>(w_.size()));
        if (inserted) {
          if (c == i) diagSlot[i] = it->second;  // diagonal fill-in
          w_.push_back(T{});
          colRows[c].insert(i);
        }
        w_[it->second] -= m * w_[uSlot_[q]];
        updTarget_.push_back(it->second);
      }
    }
    lPtr_[k + 1] = lVal_.size();
    colRows[pc].clear();
    work[pr].clear();
    rowActive[pr] = 0;
    colActive[pc] = 0;
  }

  buildLevels();
  analyzed_ = true;
  perf::global().noteFactorFill(factorNnz());
  perf::global().noteRefactorLevels(levelCount());
}

// Partition the recorded program into elimination-dependency levels.
// Greedy in step order: a step's level is one past the deepest level that
// wrote a slot it reads (RAW), or read/wrote a slot it updates (WAR/WAW).
// Two consequences, both load-bearing for the parallel replay:
//  * steps sharing a level touch pairwise-disjoint {written} ∩ {touched}
//    slots, so any execution order — hence any thread count and any
//    chunking — produces bitwise-identical results;
//  * for every slot, the serial step order and the level order agree, so
//    the parallel replay is bitwise identical to the serial one.
template <class T>
void SymbolicLU<T>::buildLevels() {
  const std::size_t nslots = w_.size();
  std::vector<std::uint32_t> readLvl(nslots, 0), writeLvl(nslots, 0);
  std::vector<std::uint32_t> stepLvl(n_, 0);
  std::uint32_t maxLvl = 0;
  for (std::size_t k = 0; k < n_; ++k) {
    std::uint32_t lvl = 0;
    const auto dependRead = [&](std::uint32_t s) {
      if (writeLvl[s] > lvl) lvl = writeLvl[s];
    };
    dependRead(pivSlot_[k]);
    for (std::size_t q = uPtr_[k]; q < uPtr_[k + 1]; ++q)
      dependRead(uSlot_[q]);
    for (std::size_t li = lPtr_[k]; li < lPtr_[k + 1]; ++li)
      dependRead(lSlot_[li]);
    const std::size_t ulen = uPtr_[k + 1] - uPtr_[k];
    const std::size_t t0 = stepUpdBase_[k];
    const std::size_t t1 = t0 + ulen * (lPtr_[k + 1] - lPtr_[k]);
    for (std::size_t t = t0; t < t1; ++t) {
      const std::uint32_t s = updTarget_[t];
      if (writeLvl[s] > lvl) lvl = writeLvl[s];
      if (readLvl[s] > lvl) lvl = readLvl[s];
    }
    ++lvl;
    stepLvl[k] = lvl;
    if (lvl > maxLvl) maxLvl = lvl;
    const auto noteRead = [&](std::uint32_t s) {
      if (lvl > readLvl[s]) readLvl[s] = lvl;
    };
    noteRead(pivSlot_[k]);
    for (std::size_t q = uPtr_[k]; q < uPtr_[k + 1]; ++q) noteRead(uSlot_[q]);
    for (std::size_t li = lPtr_[k]; li < lPtr_[k + 1]; ++li)
      noteRead(lSlot_[li]);
    for (std::size_t t = t0; t < t1; ++t) {
      const std::uint32_t s = updTarget_[t];
      if (lvl > writeLvl[s]) writeLvl[s] = lvl;
    }
  }

  // Counting sort by level, step order preserved within each level.
  levelPtr_.assign(static_cast<std::size_t>(maxLvl) + 1, 0);
  for (std::size_t k = 0; k < n_; ++k) ++levelPtr_[stepLvl[k]];
  for (std::size_t b = 1; b <= maxLvl; ++b) levelPtr_[b] += levelPtr_[b - 1];
  // levelPtr_[b] is now the *end* of level b (1-based); the exclusive
  // prefix in slot b−1 is its start, so the final layout is the usual
  // [levelPtr_[b], levelPtr_[b+1]) with levelPtr_[0] == 0.
  stepOrder_.resize(n_);
  std::vector<std::size_t> cursor(levelPtr_.begin(), levelPtr_.end() - 1);
  for (std::size_t k = 0; k < n_; ++k)
    stepOrder_[cursor[stepLvl[k] - 1]++] = static_cast<std::uint32_t>(k);

  // Charge the schedule's footprint against the job's byte budget the same
  // grow-once way MnaWorkspace charges its value arrays.
  const std::uint64_t bytes = stepOrder_.size() * sizeof(std::uint32_t) +
                              levelPtr_.size() * sizeof(std::size_t) +
                              stepUpdBase_.size() * sizeof(std::size_t);
  if (bytes > levelBytesCharged_) {
    diag::memCharge(bytes - levelBytesCharged_);
    levelBytesCharged_ = bytes;
  }
}

// Pure numeric pass: zero the workspace, scatter the new values, replay the
// recorded flop sequence. Returns false when the pivots recorded at
// analysis time are no longer numerically acceptable for these values.
template <class T>
bool SymbolicLU<T>::replay(const T* vals) {
  w_.assign(w_.size(), T{});  // rt: allow(rt-alloc) same-size overwrite of
  // the analysis-sized slot workspace — never reallocates
  Real maxIn = 0;
  for (std::size_t p = 0; p < nnz_; ++p) {
    w_[p] = vals[p];
    maxIn = std::max(maxIn, std::abs(vals[p]));
  }
  if (!(maxIn > 0) || !std::isfinite(maxIn)) return false;
  const Real floor = opts_.pivotFloor * maxIn;
  const Real cap = opts_.growthLimit * maxIn;

  Real maxU = 0;
  std::size_t up = 0;  // cursor into updTarget_
  for (std::size_t k = 0; k < n_; ++k) {
    const T p = w_[pivSlot_[k]];
    const Real pm = std::abs(p);
    if (!(pm > floor)) return false;  // tiny, zero, or NaN pivot
    pivVal_[k] = p;
    const std::size_t u0 = uPtr_[k], u1 = uPtr_[k + 1];
    for (std::size_t q = u0; q < u1; ++q) {
      const T u = w_[uSlot_[q]];
      uVal_[q] = u;
      maxU = std::max(maxU, std::abs(u));
    }
    maxU = std::max(maxU, pm);
    if (!(maxU <= cap)) return false;  // growth or non-finite
    const std::size_t ulen = u1 - u0;
    for (std::size_t li = lPtr_[k]; li < lPtr_[k + 1]; ++li) {
      const T m = w_[lSlot_[li]] / p;
      lVal_[li] = m;
      if (m == T{}) {
        up += ulen;
        continue;
      }
      for (std::size_t q = u0; q < u1; ++q)
        w_[updTarget_[up++]] -= m * w_[uSlot_[q]];
    }
  }
  return true;
}

// Level-scheduled parallel form of replay(): one parallelFor per level,
// guard checks at level boundaries. Accept/reject agrees with the serial
// replay — max|U| is monotone over the program, so any prefix exceeding
// the growth cap leaves the final max above it too, and a floor-failing
// pivot has the same value in both replays (its slot's writers all ran in
// earlier levels). On the accept path the results are bitwise identical to
// the serial replay for any pool size (see buildLevels). A failing step
// skips its divisions entirely, so the guard is FE-trap safe.
template <class T>
bool SymbolicLU<T>::replayParallel(const T* vals) {
  w_.assign(w_.size(), T{});  // rt: allow(rt-alloc) same-size overwrite of
  // the analysis-sized slot workspace — never reallocates
  Real maxIn = 0;
  for (std::size_t p = 0; p < nnz_; ++p) {
    w_[p] = vals[p];
    maxIn = std::max(maxIn, std::abs(vals[p]));
  }
  if (!(maxIn > 0) || !std::isfinite(maxIn)) return false;
  const Real floor = opts_.pivotFloor * maxIn;
  const Real cap = opts_.growthLimit * maxIn;

  std::atomic_ref<std::uint64_t>(maxUBits_).store(0, std::memory_order_relaxed);
  std::atomic_ref<std::uint32_t>(replayBad_).store(0, std::memory_order_relaxed);

  const std::size_t lanes = pool_->concurrency();
  const std::size_t levels = levelCount();
  for (std::size_t b = 0; b < levels; ++b) {
    const std::size_t s0 = levelPtr_[b], s1 = levelPtr_[b + 1];
    const std::size_t grain =
        std::max<std::size_t>(1, (s1 - s0) / (4 * lanes));
    const auto runStep = [&](std::size_t idx) {
      const std::size_t k = stepOrder_[s0 + idx];
      const T p = w_[pivSlot_[k]];
      const Real pm = std::abs(p);
      if (!(pm > floor)) {  // tiny, zero, or NaN pivot
        std::atomic_ref<std::uint32_t>(replayBad_)
            .store(1, std::memory_order_relaxed);
        return;  // skip the divisions; the level-end check aborts
      }
      pivVal_[k] = p;
      Real localMax = pm;
      const std::size_t u0 = uPtr_[k], u1 = uPtr_[k + 1];
      for (std::size_t q = u0; q < u1; ++q) {
        const T u = w_[uSlot_[q]];
        uVal_[q] = u;
        localMax = std::max(localMax, std::abs(u));
      }
      casMaxNonneg(maxUBits_, localMax);
      const std::size_t ulen = u1 - u0;
      std::size_t up = stepUpdBase_[k];
      for (std::size_t li = lPtr_[k]; li < lPtr_[k + 1]; ++li) {
        const T m = w_[lSlot_[li]] / p;
        lVal_[li] = m;
        if (m == T{}) {
          up += ulen;
          continue;
        }
        for (std::size_t q = u0; q < u1; ++q)
          w_[updTarget_[up++]] -= m * w_[uSlot_[q]];
      }
    };
    pool_->parallelFor(s1 - s0, runStep, grain);
    if (std::atomic_ref<std::uint32_t>(replayBad_)
            .load(std::memory_order_relaxed) != 0)
      return false;
    const Real maxU =
        std::bit_cast<Real>(std::atomic_ref<std::uint64_t>(maxUBits_)
                                .load(std::memory_order_relaxed));
    if (!(maxU <= cap)) return false;  // growth or non-finite
  }
  return true;
}

template <class T>
bool SymbolicLU<T>::wantParallel() const {
  return pool_ != nullptr && levelCount() > 1 &&
         programFlops() >= opts_.parallelMinFlops && pool_->concurrency() > 1;
}

template <class T>
RFIC_REALTIME diag::SolverStatus SymbolicLU<T>::refactor(
    const std::vector<T>& values) {
  RFIC_REQUIRE(analyzed_, "SymbolicLU::refactor before factor");
  RFIC_REQUIRE(values.size() == nnz_,
               "SymbolicLU::refactor value count mismatch");
  // factor-repivot fault point: pretend the replayed pivots went bad so the
  // fresh-analysis fallback below runs (and callers see Repivoted).
  const bool forceRepivot =
      diag::FaultInjector::global().fire(diag::FaultPoint::FactorRepivot);
  bool ok = false;
  if (!forceRepivot) {
    if (wantParallel()) {
      const perf::Timer timer;
      ok = replayParallel(values.data());
      perf::global().addRefactorParallel(timer.ns());
    } else {
      ok = replay(values.data());
    }
  }
  if (ok) return diag::SolverStatus::Converged;
  // Pivot growth (or a sign/topology change in the values) invalidated the
  // recorded pivot order — redo the full analysis with fresh pivots.
  analyzeFromValues(values.data());  // rt: allow(rt-alloc) cold Repivoted
  // fallback — runs only when the recorded pivots went numerically bad;
  // callers observe it through the returned status and perf counters
  return diag::SolverStatus::Repivoted;
}

template <class T>
Vec<T> SymbolicLU<T>::solve(const Vec<T>& b) const {
  RFIC_REQUIRE(analyzed_, "SymbolicLU::solve before factor");
  RFIC_REQUIRE(b.size() == n_, "SymbolicLU::solve size mismatch");
  // Forward: replay the elimination on the right-hand side.
  Vec<T> y = b;
  Vec<T> z(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const T zk = y[pivRow_[k]];
    z[k] = zk;
    if (zk == T{}) continue;
    for (std::size_t q = lPtr_[k]; q < lPtr_[k + 1]; ++q)
      y[lRow_[q]] -= lVal_[q] * zk;
  }
  // Backward: solve U in elimination order, scatter by the column perm.
  Vec<T> x(n_);
  for (std::size_t k = n_; k-- > 0;) {
    T s = z[k];
    for (std::size_t q = uPtr_[k]; q < uPtr_[k + 1]; ++q)
      s -= uVal_[q] * x[uCol_[q]];
    x[pivCol_[k]] = s / pivVal_[k];
  }
  return x;
}

template <class T>
RFIC_REALTIME void SymbolicLU<T>::solve(const Vec<T>& b, Vec<T>& x,
                                        Vec<T>& scratchY,
                                        Vec<T>& scratchZ) const {
  RFIC_REQUIRE(analyzed_, "SymbolicLU::solve before factor");
  RFIC_REQUIRE(b.size() == n_, "SymbolicLU::solve size mismatch");
  // Zero-allocation variant for hot loops: the scratch vectors (and x)
  // grow on first use and are reused verbatim afterwards.
  scratchY.resize(n_);  // rt: allow(rt-alloc) grow-once caller scratch
  scratchZ.resize(n_);  // rt: allow(rt-alloc) grow-once caller scratch
  x.resize(n_);         // rt: allow(rt-alloc) grow-once caller solution
  Vec<T>& y = scratchY;
  Vec<T>& z = scratchZ;
  for (std::size_t i = 0; i < n_; ++i) y[i] = b[i];
  for (std::size_t k = 0; k < n_; ++k) {
    const T zk = y[pivRow_[k]];
    z[k] = zk;
    if (zk == T{}) continue;
    for (std::size_t q = lPtr_[k]; q < lPtr_[k + 1]; ++q)
      y[lRow_[q]] -= lVal_[q] * zk;
  }
  for (std::size_t k = n_; k-- > 0;) {
    T s = z[k];
    for (std::size_t q = uPtr_[k]; q < uPtr_[k + 1]; ++q)
      s -= uVal_[q] * x[uCol_[q]];
    x[pivCol_[k]] = s / pivVal_[k];
  }
}

// The factors satisfy Ã = L̃·Ũ for Ã(k, j) = A(pivRow_[k], pivCol_[j]), so
// Aᵀ·x = b is Ũᵀ·t = (b at pivCol_) forward, then L̃ᵀ·v = t backward with
// x[pivRow_[k]] = v_k — the two triangular passes of solve() run transposed.
template <class T>
Vec<T> SymbolicLU<T>::solveTransposed(const Vec<T>& b) const {
  RFIC_REQUIRE(analyzed_, "SymbolicLU::solveTransposed before factor");
  RFIC_REQUIRE(b.size() == n_, "SymbolicLU::solveTransposed size mismatch");
  // Forward with Ũᵀ: column-oriented over the U rows, w indexed by column.
  Vec<T> w = b;
  Vec<T> t(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const T tk = w[pivCol_[k]] / pivVal_[k];
    t[k] = tk;
    if (tk == T{}) continue;
    for (std::size_t q = uPtr_[k]; q < uPtr_[k + 1]; ++q)
      w[uCol_[q]] -= uVal_[q] * tk;
  }
  // Backward with L̃ᵀ: the L rows of step k were pivoted at later steps, so
  // their entries of x are final when step k is reached.
  Vec<T> x(n_);
  for (std::size_t k = n_; k-- > 0;) {
    T s = t[k];
    for (std::size_t q = lPtr_[k]; q < lPtr_[k + 1]; ++q)
      s -= lVal_[q] * x[lRow_[q]];
    x[pivRow_[k]] = s;
  }
  return x;
}

template class SymbolicLU<Real>;
template class SymbolicLU<Complex>;

}  // namespace rfic::sparse
