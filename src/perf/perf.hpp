// Lightweight performance counters for the assemble→factor→solve pipeline.
//
// The paper's Section 2 cost argument is quantitative: steady-state RF
// methods become practical only when repeated circuit evaluation and
// linearization are cheap. This layer makes that cost observable: the
// pipeline bumps perf::global() once per event — evaluations, symbolic
// factorizations, numeric refactorizations, solves, and wall nanoseconds
// per stage — and every analysis that reports a Snapshot runs under its own
// CounterScope, as does every engine job. A scope folds into its parent
// when it ends, so the process totals behind `rficsim --stats`, the rficd
// `stats` reply and the bench JSON reporters still see every event.
//
// Every counter is defined once, in RFIC_PERF_COUNTERS below; the Snapshot
// fields, the atomics, the merge rule and every export are generated from
// that table.
//
// Counter fields are relaxed atomics so the parallel fan-out paths (HB
// block-preconditioner assembly, jitter Monte-Carlo, MoM panel fill) can
// share one instance without synchronization; totals are exact because
// each increment is atomic.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

namespace rfic::perf {

/// How two totals of one counter combine: flows (counts, nanoseconds) add;
/// gauges (high-water marks) keep the larger value.
enum class Merge { Sum, Max };

// X(name, merge, doc) — one row per counter. `name` is the Snapshot field,
// the --stats / rficd JSON key, and (in snake_case) the bench JSON key.
#define RFIC_PERF_COUNTERS(X)                                                \
  X(evals, Sum, "circuit (f, q, b[, G, C]) evaluations")                     \
  X(factorizations, Sum, "full symbolic+numeric factorizations")             \
  X(refactorizations, Sum, "pattern-reusing numeric passes")                 \
  X(solves, Sum, "triangular solves")                                        \
  X(retries, Sum, "resilience retry attempts (dt cuts, ladder rungs)")       \
  X(fallbacks, Sum, "strategy escalations (solver/ladder rung changes)")     \
  X(fftCount, Sum, "1-D transforms executed (planned)")                      \
  X(planCacheHits, Sum, "fft::PlanCache lookups served")                     \
  X(planCacheMisses, Sum, "fft::PlanCache plan builds")                      \
  X(matvecs, Sum, "compressed-operator applications")                        \
  X(extractBuilds, Sum, "IES3 matrix constructions")                         \
  X(ctxHits, Sum, "engine jobs that reused a warm circuit context")          \
  X(ctxMisses, Sum, "engine context builds (cold parse + pattern)")          \
  X(memPeakBytes, Max, "largest per-job workspace peak (diag::MemAccount)")  \
  X(evalBatched, Sum, "evaluations served by the batched SoA engine")        \
  X(factorFillNnz, Max, "largest factor (fill-in included) analyzed")        \
  X(refactorLevels, Max, "deepest refactor level schedule recorded")         \
  X(evalNs, Sum, "wall time in circuit evaluation")                          \
  X(evalBatchNs, Sum, "wall time of the batched subset of evalNs")           \
  X(orderingNs, Sum, "fill-reducing pre-order (AMD) time, inside factorNs")  \
  X(factorNs, Sum, "wall time in full factorizations")                       \
  X(refactorNs, Sum, "wall time in numeric refactorizations")                \
  X(refactorParallelNs, Sum, "level-parallel replay time, inside refactorNs")\
  X(solveNs, Sum, "wall time in triangular solves")                          \
  X(fftNs, Sum, "wall time inside batched transforms")                       \
  X(matvecNs, Sum, "wall time inside compressed-operator apply() calls")     \
  X(extractBuildNs, Sum, "wall time in IES3 build (tree + fill)")            \
  X(extractCompressNs, Sum, "ACA+SVD time, summed over threads")

/// Plain copyable totals — what analyses embed in their result structs.
struct Snapshot {
#define RFIC_PERF_FIELD(name, merge, doc) std::uint64_t name = 0;
  RFIC_PERF_COUNTERS(RFIC_PERF_FIELD)
#undef RFIC_PERF_FIELD

  inline Snapshot& operator+=(const Snapshot& o);
};

/// The table, reflected: one entry per counter, in table order.
struct Field {
  const char* name;
  Merge merge;
  const char* doc;
  std::uint64_t Snapshot::*member;
};

inline constexpr Field kFields[] = {
#define RFIC_PERF_ROW(name, merge, doc) \
  {#name, Merge::merge, doc, &Snapshot::name},
    RFIC_PERF_COUNTERS(RFIC_PERF_ROW)
#undef RFIC_PERF_ROW
};
inline constexpr std::size_t kFieldCount = std::size(kFields);

/// Table index of each counter (Counters stores its atomics in table order).
enum class Id : std::size_t {
#define RFIC_PERF_ID(name, merge, doc) name,
  RFIC_PERF_COUNTERS(RFIC_PERF_ID)
#undef RFIC_PERF_ID
};

Snapshot& Snapshot::operator+=(const Snapshot& o) {
  for (const Field& f : kFields) {
    std::uint64_t& mine = this->*f.member;
    const std::uint64_t theirs = o.*f.member;
    if (f.merge == Merge::Sum)
      mine += theirs;
    else if (theirs > mine)
      mine = theirs;
  }
  return *this;
}

/// Thread-safe accumulator. Increments use relaxed atomics — the counters
/// are statistics, not synchronization.
class Counters {
 public:
  void addEval(std::uint64_t ns) { addEvals(1, ns); }
  /// One sweep of `count` evaluations timed as a whole (multi-sample
  /// evalSamples passes time the sweep, not each sample).
  void addEvals(std::uint64_t count, std::uint64_t ns) {
    add(Id::evals, count);
    add(Id::evalNs, ns);
  }
  /// `count` evaluations served by the batched SoA device engine. Also
  /// counted in evals/evalNs: the batched counters are a subset, so
  /// evals − evalBatched is the scalar-walk share.
  void addEvalBatch(std::uint64_t count, std::uint64_t ns) {
    addEvals(count, ns);
    add(Id::evalBatched, count);
    add(Id::evalBatchNs, ns);
  }
  void addFactorization(std::uint64_t ns) {
    add(Id::factorizations, 1);
    add(Id::factorNs, ns);
  }
  void addRefactorization(std::uint64_t ns) {
    add(Id::refactorizations, 1);
    add(Id::refactorNs, ns);
  }
  void addOrdering(std::uint64_t ns) { add(Id::orderingNs, ns); }
  void addRefactorParallel(std::uint64_t ns) {
    add(Id::refactorParallelNs, ns);
  }
  void noteFactorFill(std::uint64_t nnz) { noteMax(Id::factorFillNnz, nnz); }
  void noteRefactorLevels(std::uint64_t levels) {
    noteMax(Id::refactorLevels, levels);
  }
  void addSolve(std::uint64_t ns) {
    add(Id::solves, 1);
    add(Id::solveNs, ns);
  }
  void addRetry() { add(Id::retries, 1); }
  void addFallback() { add(Id::fallbacks, 1); }
  /// One bump per *batch* of 1-D transforms: the hot loops time whole
  /// column sweeps, not individual butterflies.
  void addFfts(std::uint64_t count, std::uint64_t ns) {
    add(Id::fftCount, count);
    add(Id::fftNs, ns);
  }
  void addPlanCacheHit() { add(Id::planCacheHits, 1); }
  void addPlanCacheMiss() { add(Id::planCacheMisses, 1); }
  void addMatvec(std::uint64_t ns) {
    add(Id::matvecs, 1);
    add(Id::matvecNs, ns);
  }
  void addExtractionBuild(std::uint64_t ns) {
    add(Id::extractBuilds, 1);
    add(Id::extractBuildNs, ns);
  }
  void addExtractionCompress(std::uint64_t ns) {
    add(Id::extractCompressNs, ns);
  }
  /// Engine circuit-context cache outcome for one job (see engine/engine.hpp):
  /// a hit means the job reused a warm MnaWorkspace — SymbolicLU pattern and
  /// pivot order included — from an earlier job with the same topology.
  void addCtxHit() { add(Id::ctxHits, 1); }
  void addCtxMiss() { add(Id::ctxMisses, 1); }
  void noteMemPeak(std::uint64_t bytes) { noteMax(Id::memPeakBytes, bytes); }

  /// Fold a snapshot's totals in, each by its merge rule (used by
  /// CounterScope to merge a scope into its parent on exit).
  void addSnapshot(const Snapshot& s) {
    for (std::size_t i = 0; i < kFieldCount; ++i) {
      const std::uint64_t v = s.*kFields[i].member;
      if (v == 0) continue;
      if (kFields[i].merge == Merge::Sum)
        v_[i].fetch_add(v, std::memory_order_relaxed);
      else
        casMax(v_[i], v);
    }
  }

  Snapshot snapshot() const {
    Snapshot s;
    for (std::size_t i = 0; i < kFieldCount; ++i)
      s.*kFields[i].member = v_[i].load(std::memory_order_relaxed);
    return s;
  }

 private:
  void add(Id id, std::uint64_t n) {
    v_[static_cast<std::size_t>(id)].fetch_add(n, std::memory_order_relaxed);
  }
  void noteMax(Id id, std::uint64_t v) {
    casMax(v_[static_cast<std::size_t>(id)], v);
  }
  static void casMax(std::atomic<std::uint64_t>& gauge, std::uint64_t v) {
    std::uint64_t cur = gauge.load(std::memory_order_relaxed);
    while (v > cur &&
           !gauge.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> v_[kFieldCount]{};
};

/// The true process-wide accumulator. Scoped contributions (see
/// CounterScope) fold in here when their scope ends, so after all jobs
/// finish this holds the same totals it always did. Read by
/// `rficsim --stats`, `rficd`'s stats command, and the benches.
Counters& process();

/// The counters the pipeline bumps: the innermost CounterScope installed on
/// this thread, or process() when none is. Every call site in the library
/// goes through here, which is what makes per-job and per-analysis
/// attribution work — parallelFor propagates the scope to worker threads
/// for the duration of each batch.
Counters& global();

/// RAII per-scope counter attribution. While alive on a thread, every
/// perf::global() bump on that thread (and on ThreadPool workers executing
/// its batches) lands in the given Counters instead of the enclosing scope;
/// on destruction the scope's totals fold into the enclosing scope (or the
/// process instance), so process-wide accounting is preserved. The engine
/// installs one per job, and each analysis that reports a Snapshot installs
/// one per run (see runScoped).
class CounterScope {
 public:
  explicit CounterScope(Counters& c);
  ~CounterScope();
  CounterScope(const CounterScope&) = delete;
  CounterScope& operator=(const CounterScope&) = delete;

  /// The innermost scope installed on the calling thread (nullptr = none).
  static Counters* current();
  /// Install `c` (may be null) as the calling thread's scope, returning the
  /// previous one. ThreadPool uses this to propagate the dispatching
  /// thread's scope into its workers around each batch.
  static Counters* exchange(Counters* c);

 private:
  Counters& mine_;
  Counters* prev_;
};

/// Run `body` (returning a result with a `perf` Snapshot) under a fresh
/// CounterScope and report that scope's totals in the result: exactly the
/// work of this run, whatever workspace it stepped on.
template <class Body>
auto runScoped(Body&& body) {
  Counters counters;
  const CounterScope scope(counters);
  auto res = body();
  res.perf = counters.snapshot();
  return res;
}

/// Monotonic wall-clock stamp for the pipeline timers.
class Timer {
 public:
  Timer() : t0_(std::chrono::steady_clock::now()) {}
  std::uint64_t ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// One "<name> <value> <doc>" line per counter, in table order (used by
/// rficsim --stats and the rficd stats reply's "text").
std::string format(const Snapshot& s);

/// Append `,"<name>":<value>` for every counter — the JSON fields of the
/// rficd `stats` reply and `finished` event.
void appendJsonFields(std::string& out, const Snapshot& s);

}  // namespace rfic::perf
