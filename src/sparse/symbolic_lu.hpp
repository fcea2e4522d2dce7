// Symbolic/numeric split of the sparse LU factorization — the library's one
// sparse factorizer.
//
// Inside Newton loops and frequency sweeps the sparsity pattern never
// changes between factorizations, so redoing the Markowitz ordering and
// fill discovery every time is waste. SymbolicLU factors a pattern ONCE
// with threshold pivoting, and while doing so records a flat "update
// program": a workspace slot for every position the elimination ever
// touches (inputs and fill-in), the pivot/L/U slots per step, and the
// (target, source) slot pairs of every elimination flop. One-shot users
// (the ROM expansion point) simply factor once and never replay.
//
// refactor(values) then replays that program on new numeric values — no
// hashing, no ordering, no allocation — in time proportional to the flop
// count of the original factorization. Because fill depends only on the
// pattern and the pivot order, the replay is bit-for-bit the same arithmetic
// a fresh factorization with the same pivots would perform. The complex
// frequency sweeps drive it through sparse::Pencil (sparse/pencil.hpp).
//
// Two scaling features layer on top (see DESIGN.md §13):
//
//  * Options::ordering selects the pivot order. Natural runs the classic
//    full Markowitz/threshold search (the golden reference); Amd computes
//    an approximate-minimum-degree column pre-order on the symmetrized
//    pattern up front (sparse/ordering.hpp) and restricts the numeric
//    search to threshold row pivoting inside each pre-ordered column —
//    O(nnz)-ish analysis instead of O(n²), which is what makes ≥50k-node
//    meshes tractable.
//
//  * factor() partitions the recorded program into elimination-dependency
//    levels. Steps in one level touch pairwise-disjoint workspace slots, so
//    refactor(values) may execute a level's steps concurrently on a
//    perf::ThreadPool (setPool) with bitwise-identical results for every
//    thread count — falling back to the serial program below
//    Options::parallelMinFlops or without a pool.
//
// Replay is guarded: a pivot falling below `pivotFloor · max|A|`, element
// growth beyond `growthLimit · max|A|`, or any non-finite value aborts the
// replay and triggers a fresh full factorization with new pivots (keeping
// the pre-ordered column sequence but re-choosing rows — the numeric-
// stability backstop under any ordering). The caller learns which path ran
// through the returned diag::SolverStatus (Converged = cheap replay,
// Repivoted = fallback).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "diag/convergence.hpp"
#include "diag/thread_annotations.hpp"
#include "sparse/ordering.hpp"
#include "sparse/sparse_matrix.hpp"

namespace rfic::perf {
class ThreadPool;
}

namespace rfic::sparse {

template <class T>
class SymbolicLU {
 public:
  struct Options {
    Real pivotThreshold = 1e-3;  ///< relative threshold vs column max (analysis)
    bool preferDiagonal = true;  ///< MNA matrices nearly always allow it
    Real pivotFloor = 1e-12;     ///< replay aborts if |pivot| ≤ floor·max|A|
    Real growthLimit = 1e10;     ///< replay aborts if max|U| > limit·max|A|
    /// Pivot pre-ordering (Auto resolves to the process default / per-job
    /// override at factor() time; see sparse/ordering.hpp).
    Ordering ordering = Ordering::Auto;
    /// Level-parallel replay engages only when the recorded program has at
    /// least this many flops (and setPool() installed a pool with >1 lane);
    /// below it the serial replay wins on dispatch overhead. Results are
    /// bitwise identical either way.
    std::size_t parallelMinFlops = 32768;
  };

  SymbolicLU() = default;
  explicit SymbolicLU(const CSR<T>& a, const Options& opts = {});

  /// Full analysis: pivot ordering + fill discovery + numeric values, and
  /// records the replay program (and its level schedule). Throws
  /// NumericalError on singularity.
  void factor(const CSR<T>& a, const Options& opts = {});

  /// Cheap numeric pass on new values over the analyzed pattern. `values`
  /// must follow the CSR position order of the matrix passed to factor().
  /// Returns SolverStatus::Converged when the replay succeeded, or
  /// SolverStatus::Repivoted when pivot growth forced a fresh full
  /// factorization (with new pivots) from the same values. The replay path
  /// is allocation-free; only the Repivoted fallback allocates.
  RFIC_REALTIME diag::SolverStatus refactor(const std::vector<T>& values);

  /// Worker pool for the level-scheduled parallel replay (nullptr = always
  /// serial). Non-owning; the pool must outlive refactor() calls. The
  /// replayed values are bitwise identical for any pool size because steps
  /// within a level touch pairwise-disjoint slots.
  void setPool(perf::ThreadPool* pool) { pool_ = pool; }

  bool analyzed() const { return analyzed_; }
  std::size_t size() const { return n_; }
  std::size_t patternNnz() const { return nnz_; }
  /// Stored factor entries, fill-in included.
  std::size_t factorNnz() const { return n_ + lVal_.size() + uVal_.size(); }
  /// Fill-in ratio: factor entries per input pattern entry (≥ 1 in
  /// practice; the figure of merit the ordering stage minimizes).
  Real fillRatio() const {
    return nnz_ == 0 ? Real(0)
                     : static_cast<Real>(factorNnz()) / static_cast<Real>(nnz_);
  }
  /// Flops replayed per refactor (size of the recorded update program).
  std::size_t programFlops() const { return updTarget_.size(); }
  /// Elimination-dependency levels in the recorded program (the parallel
  /// replay runs one barrier per level).
  std::size_t levelCount() const {
    return levelPtr_.empty() ? 0 : levelPtr_.size() - 1;
  }
  /// The ordering the last factor() resolved to (Natural or Amd).
  Ordering orderingUsed() const { return resolved_; }

  Vec<T> solve(const Vec<T>& b) const;

  /// Allocation-free solve for hot loops: writes the solution into `x` and
  /// uses the caller's scratch vectors (all three grow to size() on first
  /// use and are reused untouched afterwards). `b` must not alias them.
  RFIC_REALTIME void solve(const Vec<T>& b, Vec<T>& x, Vec<T>& scratchY,
                           Vec<T>& scratchZ) const;

  /// x = A⁻ᵀ·b (plain transpose, no conjugation) on the same factors — the
  /// adjoint solve of noise analysis and the two-sided Lanczos process.
  Vec<T> solveTransposed(const Vec<T>& b) const;

 private:
  void analyzeFromValues(const T* vals);
  void buildLevels();
  bool replay(const T* vals);
  bool replayParallel(const T* vals);
  bool wantParallel() const;

  Options opts_;
  Ordering resolved_ = Ordering::Natural;
  bool analyzed_ = false;
  std::size_t n_ = 0;
  std::size_t nnz_ = 0;  ///< input pattern positions (= workspace prefix)

  // Input pattern, kept so the repivot fallback can rebuild rows from a
  // bare value array.
  std::vector<std::size_t> aRowPtr_;
  std::vector<std::uint32_t> aColIdx_;

  // Fill-reducing column pre-order (empty = natural Markowitz search).
  // Survives the repivot fallback: re-analysis keeps the column sequence
  // and re-chooses rows from the new values.
  std::vector<std::uint32_t> colOrder_;

  // Factorization in flat form. Step k owns L entries [lPtr_[k], lPtr_[k+1])
  // and U entries [uPtr_[k], uPtr_[k+1]); pivRow_/pivCol_ are original
  // indices, lRow_/uCol_ likewise.
  std::vector<std::uint32_t> pivRow_, pivCol_;
  std::vector<T> pivVal_;
  std::vector<std::size_t> lPtr_, uPtr_;
  std::vector<std::uint32_t> lRow_, uCol_;
  std::vector<T> lVal_, uVal_;

  // Replay program. Workspace slot of the pivot / each L numerator / each U
  // entry, plus the flattened (target -= m·source) slot pairs in execution
  // order: for step k, for each L entry, one target per U entry of step k.
  std::vector<std::uint32_t> pivSlot_, lSlot_, uSlot_;
  std::vector<std::uint32_t> updTarget_;

  // Level schedule of the program: stepOrder_ lists steps grouped by level,
  // level b spanning [levelPtr_[b], levelPtr_[b+1]); stepUpdBase_[k] is the
  // static updTarget_ cursor base of step k (the serial cursor advances by
  // |U row| per L entry even when the multiplier is zero, so bases are a
  // pattern property).
  std::vector<std::uint32_t> stepOrder_;
  std::vector<std::size_t> levelPtr_;
  std::vector<std::size_t> stepUpdBase_;

  perf::ThreadPool* pool_ = nullptr;  ///< non-owning; null = serial replay
  // Parallel-replay guard state, written through std::atomic_ref so the
  // class stays copyable (HB keeps vectors of per-harmonic factorizations).
  std::uint64_t maxUBits_ = 0;   ///< bit-cast of the running max|U| (≥ 0)
  std::uint32_t replayBad_ = 0;  ///< a step saw a floor-failing pivot

  std::uint64_t levelBytesCharged_ = 0;  ///< diag::memCharge high-water mark

  std::vector<T> w_;  ///< slot workspace (one entry per touched position)
};

using RSymbolicLU = SymbolicLU<Real>;
using CSymbolicLU = SymbolicLU<Complex>;

extern template class SymbolicLU<Real>;
extern template class SymbolicLU<Complex>;

}  // namespace rfic::sparse
