// jobbench_replay — in-process side of the rficd job benchmark.
//
// Two modes, both reading the job file written by run.py (records of
// "#job <id> <class> <ordering|-> <lanes>" followed by the netlist text and
// a "#end" line):
//
//   jobbench_replay oracle <jobs> <out.ndjson> [threads]
//       Runs every job once through engine::Engine with the designated
//       reference paths — the scalar device walk and natural ordering, one
//       lane, a fresh Engine per job — and writes one JSON line per job:
//       {"id":N,"exit":E,"out":"<rendered stdout>"}.
//
//   jobbench_replay replay <jobs> <summary.json> <trace.json> <budget_s>
//       Replays the jobs one at a time in two independent replay states,
//       one untraced and one traced, job by job (the sequence is cut once
//       <budget_s> of wall time is spent, keeping at least the first job
//       of every class). Each job runs Engine::run (the reference wall time),
//       then the same work decomposed into the public calls of each module
//       (preflight, parse, MNA setup, DC, transient, AC, noise, HB), then
//       per-layer probes (HB sample-grid evaluation and FFTs, AMD ordering,
//       SymbolicLU factor/refactor/solve, HB under lane caps 1 and N).
//       Spans are kept in memory and written at the end as Chrome
//       trace-event JSON; counts ride in each span's "args".
//
// Spans are recorded only here, around calls into the library: nothing in
// src/ is instrumented.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/ac.hpp"
#include "analysis/dc.hpp"
#include "analysis/noise.hpp"
#include "analysis/transient.hpp"
#include "circuit/mna_workspace.hpp"
#include "circuit/netlist.hpp"
#include "circuit/sources.hpp"
#include "engine/engine.hpp"
#include "engine/json.hpp"
#include "fft/fft.hpp"
#include "fft/plan.hpp"
#include "hb/harmonic_balance.hpp"
#include "perf/thread_pool.hpp"
#include "sparse/ordering.hpp"
#include "sparse/symbolic_lu.hpp"

namespace {

using namespace rfic;
using Clock = std::chrono::steady_clock;

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct Job {
  std::uint64_t id = 0;
  std::string cls;
  std::string ordering;  // "" = process default (natural)
  std::size_t lanes = 1;
  std::string netlist;
};

std::vector<Job> readJobs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<Job> jobs;
  std::string line;
  Job* cur = nullptr;
  while (std::getline(in, line)) {
    if (line.rfind("#job ", 0) == 0) {
      jobs.emplace_back();
      cur = &jobs.back();
      std::istringstream hs(line.substr(5));
      std::string ord;
      hs >> cur->id >> cur->cls >> ord >> cur->lanes;
      cur->ordering = ord == "-" ? "" : ord;
    } else if (line == "#end") {
      cur = nullptr;
    } else if (cur != nullptr) {
      cur->netlist += line;
      cur->netlist += '\n';
    }
  }
  return jobs;
}

// ---------------------------------------------------------------- tracing

/// In-memory span recorder. When off, begin() returns -1 without reading
/// the clock, so the untraced pass runs the same library calls with no
/// recording cost.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t job;
    int parent;
    std::uint64_t start, end;
    std::vector<std::pair<const char*, double>> args;
  };

  explicit Tracer(bool on) : on_(on) {}

  int begin(const char* name, std::uint64_t job) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, job, parent, nowNs(), 0, {}});
    const int idx = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(idx);
    return idx;
  }
  void end(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end = nowNs();
    stack_.pop_back();
  }
  void arg(int idx, const char* key, double v) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].args.emplace_back(key, v);
  }

  /// Chrome trace-event JSON ("X" complete events, microsecond times).
  void write(const std::string& path) const {
    std::ofstream out(path);
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char head[256];
      std::snprintf(head, sizeof head,
                    "{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"job\":%llu,\"span\":%zu,\"parent\":%d",
                    s.name, static_cast<int>(layerLen(s.name)), s.name,
                    static_cast<double>(s.start - t0) / 1e3,
                    static_cast<double>(s.end - s.start) / 1e3,
                    static_cast<unsigned long long>(s.job), i, s.parent);
      out << head;
      for (const auto& [k, v] : s.args) {
        char a[96];
        std::snprintf(a, sizeof a, ",\"%s\":%.17g", k, v);
        out << a;
      }
      out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  /// The layer ("cat") of a span is its name up to the first '.'.
  static std::size_t layerLen(const char* name) {
    std::size_t n = 0;
    while (name[n] != '\0' && name[n] != '.') ++n;
    return n;
  }

  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::uint64_t job)
      : t_(t), idx_(t.begin(name, job)) {}
  ~ScopedSpan() { t_.end(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void arg(const char* key, double v) { t_.arg(idx_, key, v); }

 private:
  Tracer& t_;
  int idx_;
};

// ------------------------------------------------------------ job anatomy

std::vector<std::string> tokens(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> toks;
  std::string t;
  while (in >> t) toks.push_back(t);
  return toks;
}

std::string lowered(std::string s) {
  for (auto& ch : s)
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  return s;
}

/// Analysis cards of a netlist, lower-cased heads, in order (.print,
/// .model and .end excluded) — the same card walk Engine::run performs.
std::vector<std::vector<std::string>> analysisCards(const std::string& text) {
  std::vector<std::vector<std::string>> cards;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '.') continue;
    auto toks = tokens(line);
    if (toks.empty()) continue;
    toks[0] = lowered(toks[0]);
    if (toks[0] == ".model" || toks[0] == ".end" || toks[0] == ".print")
      continue;
    cards.push_back(std::move(toks));
  }
  return cards;
}

/// The sweep frequencies Engine::run derives from ".ac/.noise <x> pts f0 f1".
std::vector<Real> sweepFreqs(const std::vector<std::string>& t,
                             std::size_t first) {
  const auto pts = static_cast<std::size_t>(circuit::parseSpiceNumber(t[first]));
  const Real f0 = circuit::parseSpiceNumber(t[first + 1]);
  const Real f1 = circuit::parseSpiceNumber(t[first + 2]);
  const Real decades = std::log10(f1 / f0);
  return analysis::logspace(
      f0, f1,
      std::max<std::size_t>(
          2, static_cast<std::size_t>(std::lround(pts * decades)) + 1));
}

/// A parsed circuit kept across jobs of one topology — the replay's mirror
/// of the Engine's context pool.
struct Context {
  circuit::Circuit ckt;
  std::unique_ptr<circuit::MnaSystem> sys;
  std::unique_ptr<circuit::MnaWorkspace> ws;
};

struct ReplayState {
  engine::Engine eng;
  std::map<std::string, std::unique_ptr<Context>> contexts;
};

void addPerfArgs(ScopedSpan& s, const perf::Snapshot& p) {
  s.arg("evals", static_cast<double>(p.evals));
  s.arg("evalBatched", static_cast<double>(p.evalBatched));
  s.arg("factorizations", static_cast<double>(p.factorizations));
  s.arg("refactorizations", static_cast<double>(p.refactorizations));
  s.arg("fftCount", static_cast<double>(p.fftCount));
  s.arg("fftNs", static_cast<double>(p.fftNs));
  s.arg("planCacheHits", static_cast<double>(p.planCacheHits));
  s.arg("planCacheMisses", static_cast<double>(p.planCacheMisses));
}

constexpr int kSparseReps = 5;

/// Sparse-layer probes on the job's Jacobian at its DC operating point:
/// J = cCoeff·C + G over the workspace pattern.
void probeSparse(Tracer& tr, const Job& job, circuit::MnaWorkspace& ws,
                 const numeric::RVec& xop, Real cCoeff, std::size_t nproc) {
  ws.eval(xop, 0.0, true);
  const sparse::RCSR& pat = ws.pattern();
  sparse::RCSR j = pat;
  for (std::size_t p = 0; p < j.nnz(); ++p)
    j.values()[p] = cCoeff * ws.cValues()[p] + ws.gValues()[p];
  const std::vector<Real> vals = j.values();
  {
    std::vector<std::uint32_t> cols(pat.colIdx().begin(), pat.colIdx().end());
    ScopedSpan s(tr, "sparse.ordering", job.id);
    const auto order = sparse::amdOrder(pat.rows(), pat.rowPtr(), cols);
    s.arg("n", static_cast<double>(order.size()));
  }
  sparse::RSymbolicLU lu;
  {
    sparse::RSymbolicLU::Options o;
    o.ordering = sparse::effectiveOrdering();
    ScopedSpan s(tr, "sparse.factor", job.id);
    lu.factor(j, o);
    s.arg("fillRatio", lu.fillRatio());
    s.arg("levels", static_cast<double>(lu.levelCount()));
    s.arg("n", static_cast<double>(lu.size()));
  }
  lu.setPool(&perf::ThreadPool::global());
  for (const std::size_t cap : {std::size_t{1}, nproc}) {
    const perf::ThreadPool::ScopedLaneCap lanes(cap);
    for (int r = 0; r < kSparseReps; ++r) {
      ScopedSpan s(tr, cap == 1 ? "sparse.refactor.lanes1"
                                : "sparse.refactor.lanesN",
                   job.id);
      lu.refactor(vals);
    }
  }
  const numeric::RVec b(lu.size(), 1.0);
  for (int r = 0; r < kSparseReps; ++r) {
    ScopedSpan s(tr, "sparse.solve", job.id);
    const auto x = lu.solve(b);
    s.arg("n", static_cast<double>(x.size()));
  }
}

/// HB-layer probes: sample-grid evaluation, the (unknowns × grid) FFT
/// round trip, and the solve under lane caps 1 and nproc.
void probeHb(Tracer& tr, const Job& job, const circuit::MnaSystem& sys,
             circuit::MnaWorkspace& ws, const std::vector<hb::Tone>& tones,
             const hb::HBOptions& ho, const hb::HBSolution& sol,
             const numeric::RVec& xdc, std::size_t nproc) {
  const std::size_t n = sys.dim();
  const std::size_t h1 = tones[0].harmonics;
  const std::size_t m1 = fft::nextPowerOfTwo(
      std::max<std::size_t>(ho.oversample * h1, 2 * h1 + 2));
  std::size_t m2 = 1;
  if (tones.size() == 2) {
    const std::size_t h2 = tones[1].harmonics;
    m2 = fft::nextPowerOfTwo(
        std::max<std::size_t>(ho.oversample * h2, 2 * h2 + 2));
  }
  const std::size_t ms = m1 * m2;
  // m1/m2 follow HarmonicBalance's grid rule; fail loudly if it changes.
  if (ms != hb::HarmonicBalance(sys, tones, ho).numTimeSamples())
    throw std::runtime_error("HB grid rule changed; update probeHb");
  // HB sample instants (HarmonicBalance::sampleTimes) and the converged
  // waveform at each.
  std::vector<Real> t1(ms), t2(ms);
  numeric::RMat xs(n, ms);
  for (std::size_t s = 0; s < ms; ++s) {
    t1[s] = static_cast<Real>(s / m2) / (static_cast<Real>(m1) * tones[0].freq);
    t2[s] = tones.size() == 2
                ? static_cast<Real>(s % m2) /
                      (static_cast<Real>(m2) * tones[1].freq)
                : t1[s];
    for (std::size_t u = 0; u < n; ++u)
      xs(u, s) = sol.converged ? sol.evaluate(u, t1[s], t2[s]) : xdc[u];
  }
  {
    numeric::RMat fS(n, ms), qS(n, ms), bS(n, ms);
    std::vector<std::vector<Real>> g(ms), c(ms);
    ws.setSweepPool(&perf::ThreadPool::global());
    ScopedSpan s(tr, "circuit.eval", job.id);
    ws.evalSamples(xs, t1.data(), t2.data(), true, fS, qS, bS, &g, &c);
    s.arg("samples", static_cast<double>(ms));
  }
  {
    const auto rowPlan = fft::PlanCache::global().get(m2);
    const auto colPlan = fft::PlanCache::global().get(m1);
    std::vector<Complex> grid(n * ms);
    for (std::size_t u = 0; u < n; ++u)
      for (std::size_t s = 0; s < ms; ++s) grid[u * ms + s] = xs(u, s);
    ScopedSpan s(tr, "fft.grid", job.id);
    for (std::size_t u = 0; u < n; ++u) {
      fft::transformGrid2D(*rowPlan, *colPlan, grid.data() + u * ms, m1, m2,
                           false);
      fft::transformGrid2D(*rowPlan, *colPlan, grid.data() + u * ms, m1, m2,
                           true);
    }
    s.arg("unknowns", static_cast<double>(n));
    s.arg("grid", static_cast<double>(ms));
  }
  for (const std::size_t cap : {std::size_t{1}, nproc}) {
    const perf::ThreadPool::ScopedLaneCap lanes(cap);
    hb::HarmonicBalance eng(sys, tones, ho);
    ScopedSpan s(tr, cap == 1 ? "hb.solve.lanes1" : "hb.solve.lanesN", job.id);
    const auto r = eng.solve(xdc);
    s.arg("newton", static_cast<double>(r.newtonIterations));
  }
}

/// One job: Engine::run, then the decomposition, then the probes.
void replayJob(Tracer& tr, ReplayState& st, const Job& job,
               std::size_t nproc) {
  ScopedSpan root(tr, "job", job.id);
  root.arg("lanes", static_cast<double>(job.lanes));

  engine::JobSpec spec;
  spec.id = job.id;
  spec.netlist = job.netlist;
  spec.threadShare = job.lanes;
  spec.ordering = job.ordering;
  bool engineMissed = false;
  {
    engine::NullSink sink;
    ScopedSpan s(tr, "engine.run", job.id);
    const auto res = st.eng.run(spec, sink);
    engineMissed = res.perf.ctxMisses > 0;
    s.arg("exit", res.exitCode);
    s.arg("ctxHits", static_cast<double>(res.perf.ctxHits));
    s.arg("ctxMisses", static_cast<double>(res.perf.ctxMisses));
    addPerfArgs(s, res.perf);
  }

  // Same lane cap and ordering the Engine applied to the job.
  const perf::ThreadPool::ScopedLaneCap lanes(job.lanes);
  std::optional<sparse::ScopedOrderingOverride> ord;
  if (!job.ordering.empty()) {
    sparse::Ordering o;
    if (sparse::parseOrdering(job.ordering, o)) ord.emplace(o);
  }

  const auto cards = analysisCards(job.netlist);
  Context* ctx = nullptr;
  numeric::RVec xdc;
  Real tranDt = 0;
  struct HbRun {
    std::vector<hb::Tone> tones;
    hb::HBOptions ho;
    hb::HBSolution sol;
  };
  std::vector<HbRun> hbRuns;
  {
    ScopedSpan decomp(tr, "decomp", job.id);
    {
      ScopedSpan s(tr, "engine.preflight", job.id);
      const std::string err =
          engine::preflightCheck(job.netlist, engine::PreflightLimits{});
      s.arg("ok", err.empty() ? 1 : 0);
    }
    // Mirror the Engine's context pool: parse and set up exactly when
    // Engine::run just missed its cache.
    const std::string key = engine::topologyKey(job.netlist);
    auto it = st.contexts.find(key);
    if (it == st.contexts.end() || engineMissed) {
      auto c = std::make_unique<Context>();
      {
        ScopedSpan s(tr, "circuit.parse", job.id);
        circuit::parseNetlist(job.netlist, c->ckt);
        s.arg("devices", static_cast<double>(c->ckt.devices().size()));
        s.arg("bytes", static_cast<double>(job.netlist.size()));
      }
      {
        ScopedSpan s(tr, "circuit.setup", job.id);
        c->sys = std::make_unique<circuit::MnaSystem>(c->ckt);
        c->ws = std::make_unique<circuit::MnaWorkspace>(*c->sys);
        s.arg("unknowns", static_cast<double>(c->sys->dim()));
      }
      it = st.contexts.insert_or_assign(key, std::move(c)).first;
    }
    ctx = it->second.get();
    ctx->ws->setOrdering(sparse::effectiveOrdering());
    const circuit::MnaSystem& sys = *ctx->sys;

    {
      ScopedSpan s(tr, "analysis.dc", job.id);
      analysis::DCOptions dco;
      dco.workspace = ctx->ws.get();
      const auto dc = analysis::dcOperatingPoint(sys, dco);
      xdc = dc.x;
      s.arg("iterations", static_cast<double>(dc.iterations));
      s.arg("converged", dc.converged ? 1 : 0);
      addPerfArgs(s, dc.perf);
    }
    for (const auto& t : cards) {
      if (t[0] == ".tran" && t.size() >= 3) {
        analysis::TransientOptions to;
        to.dt = circuit::parseSpiceNumber(t[1]);
        to.tstop = circuit::parseSpiceNumber(t[2]);
        to.workspace = ctx->ws.get();
        tranDt = to.dt;
        ScopedSpan s(tr, "analysis.tran", job.id);
        const auto r = analysis::runTransient(sys, xdc, to);
        s.arg("steps", static_cast<double>(r.steps));
        s.arg("ok", r.ok ? 1 : 0);
        addPerfArgs(s, r.perf);
      } else if (t[0] == ".ac" && t.size() >= 5) {
        const auto freqs = sweepFreqs(t, 2);
        const circuit::VSource* src = nullptr;
        for (const auto& dev : ctx->ckt.devices())
          if ((src = dynamic_cast<const circuit::VSource*>(dev.get()))) break;
        if (src == nullptr) continue;
        ScopedSpan s(tr, "analysis.ac", job.id);
        const auto r = analysis::acSweep(sys, xdc, freqs,
                                         analysis::acStimulusVSource(sys, *src));
        s.arg("points", static_cast<double>(r.x.size()));
      } else if (t[0] == ".noise" && t.size() >= 6) {
        const int node = ctx->ckt.lookupNode(t[1]);
        if (node < 0) continue;
        const auto freqs = sweepFreqs(t, 3);
        ScopedSpan s(tr, "analysis.noise", job.id);
        const auto r = analysis::noiseAnalysis(sys, xdc, node, freqs);
        s.arg("points", static_cast<double>(r.freq.size()));
      } else if (t[0] == ".hb" && t.size() >= 3) {
        HbRun h;
        h.tones.push_back(
            {circuit::parseSpiceNumber(t[1]),
             static_cast<std::size_t>(circuit::parseSpiceNumber(t[2]))});
        if (t.size() >= 5)
          h.tones.push_back(
              {circuit::parseSpiceNumber(t[3]),
               static_cast<std::size_t>(circuit::parseSpiceNumber(t[4]))});
        h.ho.continuationSteps = 3;
        hb::HarmonicBalance eng(sys, h.tones, h.ho);
        ScopedSpan s(tr, "hb.solve", job.id);
        h.sol = eng.solve(xdc);
        s.arg("converged", h.sol.converged ? 1 : 0);
        s.arg("newton", static_cast<double>(h.sol.newtonIterations));
        s.arg("gmres", static_cast<double>(h.sol.gmresIterations));
        addPerfArgs(s, h.sol.perf);
        hbRuns.push_back(std::move(h));
      }
    }
  }

  // Layer probes (outside the decomposition, so coverage is not inflated).
  ScopedSpan probes(tr, "probe", job.id);
  probeSparse(tr, job, *ctx->ws, xdc, tranDt > 0 ? 2.0 / tranDt : 0.0, nproc);
  for (const auto& h : hbRuns)
    probeHb(tr, job, *ctx->sys, *ctx->ws, h.tones, h.ho, h.sol, xdc, nproc);
}

// ------------------------------------------------------------------ modes

int runOracle(const std::vector<Job>& jobs, const std::string& outPath,
              std::size_t threads) {
  circuit::MnaWorkspace::setBatchedEvalDefault(false);
  sparse::setOrderingDefault(sparse::Ordering::Natural);
  std::vector<std::string> lines(jobs.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    for (std::size_t i = next++; i < jobs.size(); i = next++) {
      engine::Engine eng;
      engine::JobSpec spec;
      spec.id = jobs[i].id;
      spec.netlist = jobs[i].netlist;
      spec.threadShare = 1;
      struct Capture : engine::EventSink {
        std::string out;
        void onEvent(const engine::Event& e) override {
          if (e.kind == engine::Event::Kind::Stdout) out += e.text;
        }
      } sink;
      int exitCode = 1;
      try {
        exitCode = eng.run(spec, sink).exitCode;
      } catch (const std::exception& e) {  // Engine::run should not throw;
        sink.out = e.what();                // record it as a failed job
      }
      lines[i] = "{\"id\":" + std::to_string(jobs[i].id) +
                 ",\"exit\":" + std::to_string(exitCode) +
                 ",\"out\":" + engine::jsonString(sink.out) + "}";
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max<std::size_t>(1, threads); ++t)
    pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  std::ofstream out(outPath);
  for (const auto& l : lines) out << l << '\n';
  return out ? 0 : 1;
}

int runReplay(const std::vector<Job>& jobs, const std::string& summaryPath,
              const std::string& tracePath, double budgetSeconds) {
  const std::size_t nproc =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  // Two independent replays of the same job sequence, one untraced and one
  // traced, interleaved job by job (alternating which goes first) so drift
  // in machine state hits both alike. The sequence is the schedule prefix
  // that fits the wall budget, plus the first job of every class.
  std::map<std::string, bool> seen;
  std::size_t classes = 0;
  for (const auto& j : jobs)
    if (!seen[j.cls]) {
      seen[j.cls] = true;
      ++classes;
    }
  seen.clear();
  Tracer off(false), on(true);
  ReplayState stOff, stOn;
  std::uint64_t offNs = 0, onNs = 0;
  std::size_t replayed = 0, covered = 0;
  const std::uint64_t t0 = nowNs();
  for (const auto& j : jobs) {
    if (static_cast<double>(nowNs() - t0) / 1e9 >= budgetSeconds) {
      if (covered == classes) break;
      if (seen[j.cls]) continue;
    }
    if (!seen[j.cls]) {
      seen[j.cls] = true;
      ++covered;
    }
    for (int k = 0; k < 2; ++k) {
      const bool traced = (k == 0) == (replayed % 2 == 1);
      const std::uint64_t s = nowNs();
      replayJob(traced ? on : off, traced ? stOn : stOff, j, nproc);
      (traced ? onNs : offNs) += nowNs() - s;
    }
    ++replayed;
  }
  on.write(tracePath);

  std::ofstream out(summaryPath);
  out << "{\"jobs\":" << replayed << ",\"untraced_s\":" << offNs / 1e9
      << ",\"traced_s\":" << onNs / 1e9 << ",\"nproc\":" << nproc << "}\n";
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "oracle" && argc >= 4) {
      const std::size_t threads =
          argc >= 5 ? static_cast<std::size_t>(std::atol(argv[4])) : 1;
      return runOracle(readJobs(argv[2]), argv[3], threads);
    }
    if (mode == "replay" && argc >= 6)
      return runReplay(readJobs(argv[2]), argv[3], argv[4], std::atof(argv[5]));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jobbench_replay: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: jobbench_replay oracle <jobs> <out.ndjson> [threads]\n"
               "       jobbench_replay replay <jobs> <summary.json> "
               "<trace.json> <budget_s>\n");
  return 2;
}
