"""Per-layer metrics from the traced in-process replay.

The replay (replay.cpp) writes Chrome trace-event JSON: one "X" event per
span with args {job, span, parent, <counts>}. A span's self time is its
duration minus the durations of its direct children. The per-layer metrics
are medians over spans of one name unless stated otherwise; every count
comes from the library's own result structs, carried in the span args.
"""
import json
import statistics


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for e in events:
        a = e["args"]
        spans.append({"name": e["name"], "dur_ms": e["dur"] / 1e3,
                      "id": a["span"], "parent": a["parent"], "args": a})
    child_ms = {}
    for s in spans:
        if s["parent"] >= 0:
            child_ms[s["parent"]] = child_ms.get(s["parent"], 0.0) + s["dur_ms"]
    for s in spans:
        s["self_ms"] = s["dur_ms"] - child_ms.get(s["id"], 0.0)
    return spans


def layer_metrics(spans, summary):
    """Every trace-derived per-layer metric, plus notes on each ratio's base."""
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def durs(name):
        return [s["dur_ms"] for s in by.get(name, [])]

    def med(name):
        return _median(durs(name))

    def arg_sum(names, key):
        return sum(s["args"].get(key, 0) for n in names for s in by.get(n, []))

    m, notes = {}, {}
    jobs = len(by.get("engine.run", []))
    analysis = ("analysis.dc", "analysis.tran", "hb.solve")
    m["engine.preflight_ms"] = med("engine.preflight")
    m["engine.job_ms"] = med("engine.run")
    m["circuit.parse_ms"] = med("circuit.parse")
    m["circuit.setup_ms"] = med("circuit.setup")
    m["circuit.eval_ms"] = med("circuit.eval")
    m["circuit.evals"] = arg_sum(analysis, "evals") / max(1, jobs)
    m["sparse.ordering_ms"] = med("sparse.ordering")
    m["sparse.factor_ms"] = med("sparse.factor")
    m["sparse.refactor_ms.lanes1"] = med("sparse.refactor.lanes1")
    m["sparse.refactor_ms.lanesN"] = med("sparse.refactor.lanesN")
    m["sparse.solve_ms"] = med("sparse.solve")
    m["sparse.fill_ratio"] = _median(
        [s["args"]["fillRatio"] for s in by.get("sparse.factor", [])])
    m["sparse.levels"] = _median(
        [s["args"]["levels"] for s in by.get("sparse.factor", [])])
    m["fft.grid_ms"] = med("fft.grid")
    m["fft.count_per_job"] = arg_sum(analysis, "fftCount") / max(1, jobs)
    hits = arg_sum(("engine.run",), "planCacheHits")
    lookups = hits + arg_sum(("engine.run",), "planCacheMisses")
    m["fft.plan_hit_ratio"] = hits / lookups if lookups else 0.0
    notes["fft.plan_hit_ratio"] = f"base: {lookups} PlanCache lookups"
    m["hb.solve_ms.lanes1"] = med("hb.solve.lanes1")
    m["hb.solve_ms.lanesN"] = med("hb.solve.lanesN")
    hb = by.get("hb.solve", [])
    m["hb.newton_iters"] = _median([s["args"]["newton"] for s in hb])
    m["hb.gmres_iters"] = _median([s["args"]["gmres"] for s in hb])
    m["hb.fft_cpu_share"] = _median(
        [s["args"]["fftNs"] / 1e6 / s["dur_ms"] for s in hb if s["dur_ms"] > 0])
    notes["hb.fft_cpu_share"] = ("program fftNs (lane-summed CPU) over "
                                 "hb.solve wall, at the job's lane cap")
    m["analysis.dc_ms"] = med("analysis.dc")
    m["analysis.tran_ms"] = med("analysis.tran")
    m["analysis.tran_steps"] = _median(
        [s["args"]["steps"] for s in by.get("analysis.tran", [])])
    ac = by.get("analysis.ac", [])
    points = sum(s["args"]["points"] for s in ac)
    m["analysis.ac_ms_per_point"] = (
        sum(s["dur_ms"] for s in ac) / points if points else 0.0)
    m["analysis.noise_ms"] = med("analysis.noise")
    for layer, lanes1, lanesN in (
            ("refactor", "sparse.refactor_ms.lanes1", "sparse.refactor_ms.lanesN"),
            ("hb", "hb.solve_ms.lanes1", "hb.solve_ms.lanesN")):
        m[f"perf.lane_speedup.{layer}"] = (
            m[lanes1] / m[lanesN] if m[lanesN] > 0 else 0.0)
    untraced, traced = summary["untraced_s"], summary["traced_s"]
    m["trace.overhead_frac"] = (traced - untraced) / untraced if untraced else 0.0
    covered = sum(s["self_ms"] for s in spans
                  if s["parent"] >= 0 and _under(spans, s, "decomp"))
    reference = sum(durs("engine.run"))
    m["trace.coverage_frac"] = covered / reference if reference else 0.0
    notes["trace.coverage_frac"] = (
        f"self time under the decomposition / Engine::run wall, "
        f"{jobs} replayed jobs")
    return m, notes, set(by)


def _under(spans, s, ancestor_name):
    """True when span s sits strictly below a span named ancestor_name."""
    p = s["parent"]
    while p >= 0:
        if spans[p]["name"] == ancestor_name:
            return True
        p = spans[p]["parent"]
    return False
