// Perf layer: counters/snapshots and the fixed-size thread pool behind the
// parallel fan-out paths (HB preconditioner blocks, jitter MC, MoM fill).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common.hpp"
#include "perf/perf.hpp"
#include "perf/thread_pool.hpp"

namespace rfic::perf {
namespace {

TEST(PerfCounters, AccumulateAndSnapshot) {
  Counters c;
  c.addEval(10);
  c.addEval(5);
  c.addFactorization(100);
  c.addRefactorization(7);
  c.addSolve(3);
  c.addSolve(4);
  const Snapshot s = c.snapshot();
  EXPECT_EQ(s.evals, 2u);
  EXPECT_EQ(s.evalNs, 15u);
  EXPECT_EQ(s.factorizations, 1u);
  EXPECT_EQ(s.factorNs, 100u);
  EXPECT_EQ(s.refactorizations, 1u);
  EXPECT_EQ(s.solves, 2u);
  EXPECT_EQ(s.solveNs, 7u);
}

TEST(PerfCounters, SnapshotPlusEquals) {
  Snapshot a, b;
  a.evals = 3;
  a.factorNs = 10;
  b.evals = 4;
  b.factorNs = 32;
  b.refactorizations = 2;
  a += b;
  EXPECT_EQ(a.evals, 7u);
  EXPECT_EQ(a.factorNs, 42u);
  EXPECT_EQ(a.refactorizations, 2u);
}

// ------------------------------------------------------- the counter table

// Independent of bench_util's converter: fftCount → fft_count.
std::string snake(const std::string& camel) {
  std::string out;
  for (const char ch : camel) {
    if (std::isupper(static_cast<unsigned char>(ch))) {
      out += '_';
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    } else {
      out += ch;
    }
  }
  return out;
}

// Distinct nonzero value per counter, so each export can be checked for the
// right number under the right key.
Snapshot numbered() {
  Snapshot s;
  for (std::size_t i = 0; i < kFieldCount; ++i)
    s.*kFields[i].member = 1000 + i;
  return s;
}

TEST(PerfTable, MergeRulesFollowTheTable) {
  std::set<std::string> gauges;
  for (const Field& f : kFields)
    if (f.merge == Merge::Max) gauges.insert(f.name);
  EXPECT_EQ(gauges, (std::set<std::string>{"memPeakBytes", "factorFillNnz",
                                           "refactorLevels"}));

  // Snapshot::operator+= and Counters::addSnapshot apply the same rule.
  Snapshot a = numbered(), b = numbered();
  for (const Field& f : kFields) b.*f.member += 5;
  Counters c;
  c.addSnapshot(a);
  c.addSnapshot(b);
  a += b;
  const Snapshot folded = c.snapshot();
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    const Field& f = kFields[i];
    const std::uint64_t want =
        f.merge == Merge::Sum ? 2 * (1000 + i) + 5 : 1000 + i + 5;
    EXPECT_EQ(a.*f.member, want) << f.name;
    EXPECT_EQ(folded.*f.member, want) << f.name;
  }
}

TEST(PerfTable, EveryCounterReachesEveryExport) {
  const Snapshot s = numbered();
  const std::string text = format(s);
  std::string json = "{\"head\":0";
  appendJsonFields(json, s);
  json += '}';

  bench::JsonReporter rep("perf_table_keys");
  rep.counters("p", s);
  rep.write();
  std::ifstream in("BENCH_perf_table_keys.json");
  ASSERT_TRUE(in.good());
  const std::string bench((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  std::remove("BENCH_perf_table_keys.json");

  // format(): one "<name> <value> <doc>" line per counter, in table order.
  std::istringstream lines(text);
  std::string line;
  std::size_t row = 0;
  while (std::getline(lines, line)) {
    ASSERT_LT(row, kFieldCount);
    std::istringstream cols(line);
    std::string name, value;
    cols >> name >> value;
    EXPECT_EQ(name, kFields[row].name);
    EXPECT_EQ(value, std::to_string(1000 + row)) << name;
    EXPECT_NE(line.find(kFields[row].doc), std::string::npos) << name;
    ++row;
  }
  EXPECT_EQ(row, kFieldCount);

  for (std::size_t i = 0; i < kFieldCount; ++i) {
    const std::string key = kFields[i].name;
    const std::string v = std::to_string(1000 + i);
    EXPECT_NE(json.find(",\"" + key + "\":" + v), std::string::npos) << key;
    EXPECT_NE(bench.find("\"p." + snake(key) + "\": " + v), std::string::npos)
        << key;
  }
  // One JSON field per counter, nothing more.
  EXPECT_EQ(static_cast<std::size_t>(std::count(json.begin(), json.end(), ':')),
            kFieldCount + 1);

  // The bench keys recorded in committed baselines keep their names.
  for (const char* key :
       {"evals", "eval_batched", "factorizations", "refactorizations",
        "solves", "retries", "fallbacks", "fft_count", "plan_cache_hits",
        "plan_cache_misses", "matvecs", "extract_builds", "eval_ns",
        "eval_batch_ns", "factor_ns", "refactor_ns", "solve_ns", "fft_ns",
        "matvec_ns", "extract_build_ns", "extract_compress_ns",
        "mem_peak_bytes"})
    EXPECT_NE(bench.find(std::string("\"p.") + key + "\": "),
              std::string::npos)
        << key;
}

TEST(PerfCounters, ConcurrentIncrementsAreExact) {
  Counters c;
  constexpr std::size_t kPer = 2000;
  ThreadPool::global().parallelFor(8, [&](std::size_t) {
    for (std::size_t i = 0; i < kPer; ++i) c.addSolve(1);
  });
  const Snapshot s = c.snapshot();
  EXPECT_EQ(s.solves, 8u * kPer);
  EXPECT_EQ(s.solveNs, 8u * kPer);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  const std::size_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  pool.parallelFor(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ZeroAndSingleIterationWork) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallelFor(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.parallelFor(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A parallelFor issued from inside a worker must not deadlock; it runs
  // serially on the issuing lane.
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.parallelFor(4, [&](std::size_t) {
    pool.parallelFor(5, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 20u);
}

TEST(FunctionRef, InvokesTheReferredCallableWithoutCopying) {
  // parallelFor takes FunctionRef so capture-heavy hot-loop lambdas are
  // never boxed into a std::function heap allocation per dispatch. The
  // ref must call the ORIGINAL callable, not a copy: mutations made by the
  // callable must be visible after the call.
  std::size_t calls = 0;
  auto counter = [&calls](std::size_t i) { calls += i; };
  FunctionRef<void(std::size_t)> ref(counter);
  ref(3);
  ref(4);
  EXPECT_EQ(calls, 7u);

  // Large capture state (beyond any small-buffer optimization) stays by
  // reference — the sum reflects the live array, not a snapshot.
  std::vector<double> weights(1024, 0.5);
  double sum = 0;
  auto weigh = [&](std::size_t i) { sum += weights[i]; };
  FunctionRef<void(std::size_t)> wref(weigh);
  weights[7] = 2.0;  // mutate after constructing the ref
  wref(7);
  EXPECT_DOUBLE_EQ(sum, 2.0);
}

TEST(ThreadPool, TripCountAtOrBelowGrainRunsInline) {
  // n <= grain is the dispatch-free fast path: every index runs on the
  // calling thread, in order, with no worker wake-up.
  ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallelFor(
      16,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);  // safe: single-threaded by construction
      },
      /*grain=*/16);
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, CoarseGrainStillCoversEveryIndexOnce) {
  ThreadPool pool(3);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallelFor(
      n,
      [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
      /*grain=*/64);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SetGlobalThreadsRejectsLateOverride) {
  ThreadPool::global();  // force creation
  EXPECT_THROW(ThreadPool::setGlobalThreads(4), InvalidArgument);
}

TEST(ThreadPool, FirstExceptionPropagatesToCaller) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  try {
    pool.parallelFor(64, [&](std::size_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 17) throw std::runtime_error("chunk failure");
    });
    FAIL() << "exception did not propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk failure");
  }
  // The pool stays usable after a throwing batch.
  std::atomic<int> after{0};
  pool.parallelFor(8, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  auto& pool = ThreadPool::global();
  EXPECT_GE(pool.concurrency(), 1u);
  std::vector<int> out(100, 0);
  pool.parallelFor(out.size(), [&](std::size_t i) {
    out[i] = static_cast<int>(i);  // disjoint writes need no atomics
  });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 4950);
}

TEST(PerfFormat, MentionsEveryStage) {
  Snapshot s;
  s.evals = 12;
  s.factorizations = 1;
  s.refactorizations = 11;
  s.solves = 12;
  s.evalNs = 1'000'000;
  s.fftCount = 7;
  s.planCacheHits = 5;
  s.planCacheMisses = 2;
  const std::string r = format(s);
  EXPECT_NE(r.find("eval"), std::string::npos);
  EXPECT_NE(r.find("factor"), std::string::npos);
  EXPECT_NE(r.find("refactor"), std::string::npos);
  EXPECT_NE(r.find("solve"), std::string::npos);
  EXPECT_NE(r.find("fft"), std::string::npos);
  EXPECT_NE(r.find("planCacheHits"), std::string::npos);
  EXPECT_NE(r.find("planCacheMisses"), std::string::npos);
  EXPECT_NE(r.find("12"), std::string::npos);
}

}  // namespace
}  // namespace rfic::perf
