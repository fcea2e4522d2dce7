#!/usr/bin/env python3
"""rficd job benchmark: seeded socket workloads against the real daemon.

  python3 jobbench/run.py --workload hb_twotone --seed 1 --seconds 30 --trace 0
  python3 jobbench/run.py compare BASE.json NEW.json

Run from the repository root. The first run builds the program (rficd) and
the benchmark's replay tool from source into $CARGO_TARGET_DIR (default
.bench_build) with CMake. Each run then:

  1. starts rficd several times, timing spawn -> socket answers `stats` ->
     one warm-up job per job class finished (setup_s is the median);
  2. drives the last daemon for --seconds with the workload's seeded jobs
     (closed or open loop) and drains every attempted job;
  3. checks every job's printed numbers against an in-process oracle
     (scalar device walk, natural ordering) computed once per distinct
     netlist;
  4. with --trace 1, replays the same jobs in-process, untraced and then
     traced, and derives the per-layer metrics from the spans.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. The full result, with the machine fingerprint, is written
to <build>/results/. See jobbench/README.md for every metric.
"""
import argparse
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402

# Open-loop arrival rate of interactive_mix, jobs/s. Saturating capacity at
# the seed commit (4 vCPUs, 4 workers x 1 lane, closed loop through this
# generator) is 4,200-5,100 jobs/s on a quiet host and about half that on a
# slow one; this is half of the slow figure, so host slowdowns do not tip
# the run into overload (README.md, "Rate").
INTERACTIVE_RATE = 1000.0
SETUP_REPEATS = 15
P95_MIN_SAMPLES = 200
BUILD_TYPE = "Release (-O2 -g)"

# Oracle comparison: numbers agree within this relative tolerance, or within
# one unit in the last printed digit (the renderer prints fixed precision).
ORACLE_RTOL = 1e-6

END_TO_END_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p95_ms": "ms", "ok_frac": "frac", "rss_peak_mb": "MB",
    "cpu_ms_per_job": "ms",
}
PER_LAYER_UNITS = {
    "rficd.ack_p50_ms": "ms", "rficd.event_bytes_per_job": "bytes",
    "rficd.rejected": "count",
    "engine.queue_wait_p50_ms": "ms", "engine.queue_wait_p95_ms": "ms",
    "engine.run_p50_ms": "ms", "engine.run_p95_ms": "ms",
    "engine.ctx_hit_ratio": "ratio", "engine.preflight_ms": "ms",
    "engine.job_ms": "ms",
    "circuit.parse_ms": "ms", "circuit.setup_ms": "ms",
    "circuit.eval_ms": "ms", "circuit.evals": "count",
    "sparse.ordering_ms": "ms", "sparse.factor_ms": "ms",
    "sparse.refactor_ms.lanes1": "ms", "sparse.refactor_ms.lanesN": "ms",
    "sparse.solve_ms": "ms", "sparse.fill_ratio": "ratio",
    "sparse.levels": "count", "sparse.refactor_hit_ratio": "ratio",
    "fft.grid_ms": "ms", "fft.count_per_job": "count",
    "fft.plan_hit_ratio": "ratio",
    "hb.solve_ms.lanes1": "ms", "hb.solve_ms.lanesN": "ms",
    "hb.newton_iters": "count", "hb.gmres_iters": "count",
    "hb.fft_cpu_share": "ratio",
    "analysis.dc_ms": "ms", "analysis.tran_ms": "ms",
    "analysis.tran_steps": "count", "analysis.ac_ms_per_point": "ms",
    "analysis.noise_ms": "ms",
    "perf.lane_speedup.refactor": "ratio", "perf.lane_speedup.hb": "ratio",
    "loadgen.late_p95_ms": "ms",
    "trace.overhead_frac": "frac", "trace.coverage_frac": "frac",
}
# The span each trace-derived metric needs; absent spans report 0 (n/a).
NEEDS_SPAN = {
    "circuit.parse_ms": "circuit.parse", "circuit.setup_ms": "circuit.setup",
    "circuit.eval_ms": "circuit.eval", "fft.grid_ms": "fft.grid",
    "fft.plan_hit_ratio": "hb.solve", "hb.solve_ms.lanes1": "hb.solve.lanes1",
    "hb.solve_ms.lanesN": "hb.solve.lanesN", "hb.newton_iters": "hb.solve",
    "hb.gmres_iters": "hb.solve", "hb.fft_cpu_share": "hb.solve",
    "analysis.tran_ms": "analysis.tran",
    "analysis.tran_steps": "analysis.tran",
    "analysis.ac_ms_per_point": "analysis.ac",
    "analysis.noise_ms": "analysis.noise",
    "perf.lane_speedup.hb": "hb.solve.lanesN",
}
# Fingerprint fields that must match before two results may be ratioed.
FINGERPRINT_MATCH = ("workload", "nproc", "workers", "lanes_per_job",
                     "build_type")


def nproc():
    return len(os.sched_getaffinity(0))


def workload_config(name, n):
    """Daemon shape per workload: workers x lanes per job = nproc.

    The closed-loop workloads run nproc one-lane jobs, not jobs of nproc/2
    or nproc lanes: a multi-lane job wakes its lanes once per parallel
    section (~470 levels per refactor on a 48x48 mesh, many per HB
    solve), and on a shared virtual machine those wake-ups stretch
    with the host's load. At 2 workers x 2 lanes ten seeds spread
    latency_p50_ms by 0.29-0.44 (IQR / median) with cpu_ms_per_job within
    0.06, and one-lane jobs finished twice as many jobs per second."""
    if name in ("hb_twotone", "mesh_tran_ac"):
        return {"loop": "closed", "connections": min(4, n), "workers": n,
                "lanes": 1,
                "ordering": "amd" if name == "mesh_tran_ac" else None}
    return {"loop": "open", "connections": min(4, n), "workers": n,
            "lanes": 1, "ordering": None, "rate": INTERACTIVE_RATE}


# ------------------------------------------------------------------ build

def build(bdir):
    """Configure once, then build rficd and the replay tool (incremental)."""
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    with open(log, "ab") as out:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", os.path.relpath(HERE), "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", bdir, "-j", str(nproc()),
                        "--target", "rficd", "jobbench_replay"],
                       stdout=out, stderr=subprocess.STDOUT, check=True)
    return (os.path.join(bdir, "rfic", "rficd"),
            os.path.join(bdir, "jobbench_replay"))


def source_digest():
    """SHA-256 over the program sources (the checkout need not be a git
    repository, so the commit alone cannot identify the build)."""
    h = hashlib.sha256()
    src = os.path.join(HERE, os.pardir, "src")
    for dirpath, dirnames, files in os.walk(src):
        dirnames.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """HEAD of the checkout, or "unknown" when the checkout is not itself
    the top of a git work tree."""
    root = os.path.dirname(HERE)
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel",
                            "HEAD"], capture_output=True, text=True,
                           timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    out = r.stdout.split()
    if r.returncode != 0 or len(out) != 2 or not os.path.samefile(out[0], root):
        return "unknown"
    return out[1]


# ----------------------------------------------------------------- oracle

def _last_place(tok):
    """One unit in the last printed digit of a numeric token."""
    mant, _, exp = tok.lower().partition("e")
    decimals = len(mant.split(".", 1)[1]) if "." in mant else 0
    return 10.0 ** (int(exp or 0) - decimals)


def outputs_match(got, want):
    """'' when the rendered outputs agree, else the first difference."""
    a, b = got.split(), want.split()
    if len(a) != len(b):
        return f"{len(a)} tokens vs oracle {len(b)}"
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return f"token {i}: '{x}' vs oracle '{y}'"
        tol = max(ORACLE_RTOL * max(abs(fx), abs(fy)), _last_place(y))
        if not abs(fx - fy) <= tol:
            return f"token {i}: {x} vs oracle {y}"
    return ""


def write_job_file(path, jobs, cfg):
    """Job records for the replay tool: '#job id class ordering lanes'."""
    with open(path, "w") as f:
        for i, job in jobs:
            f.write(f"#job {i} {job.cls} {cfg.get('ordering') or '-'} "
                    f"{cfg['lanes']}\n")
            f.write(job.netlist)
            if not job.netlist.endswith("\n"):
                f.write("\n")
            f.write("#end\n")


def sections(text):
    """Rendered output split at its analysis headers ('* .op ...')."""
    out = []
    for line in text.splitlines(keepends=True):
        if line.startswith("* .") or not out:
            out.append("")
        out[-1] += line
    return out


def oracle_check(replay_exe, rundir, records, cfg):
    """Check every record against the oracle. Returns the failures, each
    {job, class, kind, reason}. Kinds: "mismatch" (numbers or exit code
    differ from the oracle: the output is wrong), "protocol" (events after
    `finished`, or output sections delivered out of order: every number
    right, the stream wrong), "rejected", "unfinished", "exit" (non-zero
    exit the oracle shares)."""
    distinct = {}
    for r in records:
        distinct.setdefault(r.netlist, (len(distinct), r))
    jobs_path = os.path.join(rundir, "oracle_jobs.txt")
    out_path = os.path.join(rundir, "oracle.ndjson")
    write_job_file(jobs_path, distinct.values(), cfg)
    subprocess.run([replay_exe, "oracle", jobs_path, out_path, str(nproc())],
                   check=True, timeout=170)
    ref = {}
    with open(out_path) as f:
        for line in f:
            o = json.loads(line)
            ref[o["id"]] = o
    failures = []
    for r in records:
        o = ref[distinct[r.netlist][0]]
        got = "".join(r.out)
        kind = reason = ""
        if r.rejected is not None:
            kind, reason = "rejected", f"rejected ({r.rejected})"
        elif r.finished is None:
            kind, reason = "unfinished", "never finished"
        elif r.exit != o["exit"]:
            kind, reason = "mismatch", f"exit {r.exit} vs oracle {o['exit']}"
        elif r.exit != 0:
            kind, reason = "exit", f"exit {r.exit} (oracle agrees)"
        else:
            reason = outputs_match("".join(sorted(sections(got))),
                                   "".join(sorted(sections(o["out"]))))
            if reason:
                kind = "mismatch"
            elif r.late_events:
                kind, reason = "protocol", (f"{r.late_events} event(s) after "
                                            "`finished`")
            elif outputs_match(got, o["out"]):
                kind, reason = "protocol", "output sections out of order"
        if kind:
            failures.append({"job": r.idx, "class": r.cls, "kind": kind,
                             "reason": reason})
    return failures


# ---------------------------------------------------------------- metrics

def p50(xs):
    return statistics.median(xs) if xs else 0.0


def p95(xs):
    """Nearest-rank 95th percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(0.95 * len(s)) - 1)] if s else 0.0


def setup_daemon(exe, rundir, cfg, workload, repeats):
    """Start rficd `repeats` times; all but the last are shut down again.
    Returns (daemon, [setup seconds])."""
    times = []
    warm = gen.warmup_jobs(workload)
    for k in range(repeats):
        t0 = time.perf_counter()
        d = loadgen.Daemon(exe, os.path.relpath(os.path.join(rundir, "rficd.sock")),
                           cfg["workers"], nproc(),
                           os.path.join(rundir, "rficd.log"))
        try:
            loadgen.stats_roundtrip(d)
            recs = loadgen.run_jobs_to_completion(d, warm, cfg["lanes"],
                                                  cfg.get("ordering"))
            times.append(time.perf_counter() - t0)
            bad = [r.cls for r in recs if r.exit != 0]
            if bad:
                raise RuntimeError(f"warm-up jobs failed: {bad}")
        except BaseException:
            d.stop()
            raise
        if k + 1 < repeats:
            d.stop()
    return d, times


def daemon_layer_metrics(res):
    recs = [r for r in res["records"] if r.rejected is None and r.finished]
    started = [r for r in recs if r.started is not None]
    ms = 1e3
    hits = sum(r.ctx_hits for r in recs)
    misses = sum(r.ctx_misses for r in recs)
    fact = sum(r.factorizations for r in recs)
    refac = sum(r.refactorizations for r in recs)
    waits = [(r.started - r.accepted) * ms for r in started]
    runs = [(r.finished - r.started) * ms for r in started]
    m = {
        "rficd.ack_p50_ms": p50([(r.accepted - r.sent) * ms for r in recs]),
        "rficd.event_bytes_per_job": res["bytes_in"] / max(1, len(recs)),
        "rficd.rejected": sum(1 for r in res["records"] if r.rejected),
        "engine.queue_wait_p50_ms": p50(waits),
        "engine.queue_wait_p95_ms": p95(waits),
        "engine.run_p50_ms": p50(runs),
        "engine.run_p95_ms": p95(runs),
        "engine.ctx_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "sparse.refactor_hit_ratio": refac / (refac + fact) if refac + fact else 0.0,
        "loadgen.late_p95_ms": p95([x * ms for x in res["lateness"]]),
    }
    notes = {
        "engine.ctx_hit_ratio": f"base: {hits + misses} context lookups",
        "sparse.refactor_hit_ratio": f"base: {refac + fact} factor calls",
        "engine.queue_wait_p95_ms": f"n={len(started)}",
        "engine.run_p95_ms": f"n={len(started)}",
    }
    return m, notes


def run_benchmark(args):
    root_src = os.path.join(HERE, os.pardir, "src", "CMakeLists.txt")
    if not os.path.exists(root_src):
        print("jobbench: program sources (src/) not found next to the "
              "benchmark; run from a full checkout", file=sys.stderr)
        return 2
    n = nproc()
    cfg = workload_config(args.workload, n)
    bdir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "jobbench")
    try:
        rficd_exe, replay_exe = build(bdir)
    except subprocess.CalledProcessError:
        with open(os.path.join(bdir, "build.log"), errors="replace") as f:
            sys.stderr.write(f.read()[-4000:])
        print("jobbench: build failed", file=sys.stderr)
        return 1
    rundir = os.path.join(bdir, "run")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    resdir = os.path.join(bdir, "results")
    os.makedirs(resdir, exist_ok=True)

    daemon, setup_times = setup_daemon(rficd_exe, rundir, cfg, args.workload,
                                       SETUP_REPEATS)
    try:
        job_iter = gen.jobs(args.workload, args.seed)
        arrivals = None
        if cfg["loop"] == "open":
            arng = random.Random(f"arrivals:{args.seed}")
            arrivals = itertools.accumulate(
                arng.expovariate(cfg["rate"]) for _ in itertools.count())
        res = loadgen.drive(daemon, job_iter, cfg, args.seconds, arrivals)
        rss_mb = daemon.vm_hwm_mb()
    finally:
        daemon.stop()

    records = res["records"]
    failures = oracle_check(replay_exe, rundir, records, cfg)
    ok = [r for r in records if r.rejected is None and r.finished is not None]
    latencies = [(r.finished - r.due) * 1e3 for r in ok]
    completed = res["completed_in_window"]
    e2e = {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": completed / res["window"],
        "latency_p50_ms": p50(latencies),
        "latency_p95_ms": p95(latencies),
        "ok_frac": 1.0 - len(failures) / max(1, len(records)),
        "rss_peak_mb": rss_mb,
        "cpu_ms_per_job": res["cpu"] * 1e3 / max(1, len(ok)),
    }
    e2e_notes = {
        "setup_s": f"median of {len(setup_times)} daemon starts",
        "latency_p50_ms": f"n={len(latencies)}",
        "latency_p95_ms": (f"n={len(latencies)}" if len(latencies) >=
                           P95_MIN_SAMPLES else
                           f"n={len(latencies)}, UNDER-SAMPLED "
                           f"(< {P95_MIN_SAMPLES} jobs)"),
        "ok_frac": f"fail_frac={len(failures) / max(1, len(records)):.6g} "
                   f"({len(failures)} of {len(records)} attempted)",
        "cpu_ms_per_job": "daemon utime+stime from start to end of drain",
    }
    per_layer, pl_notes = daemon_layer_metrics(res)
    trace_path = None
    if args.trace:
        trace_path = os.path.join(resdir, f"trace_{args.workload}_s{args.seed}.json")
        jobs_path = os.path.join(rundir, "replay_jobs.txt")
        summary_path = os.path.join(rundir, "replay_summary.json")
        write_job_file(jobs_path, ((r.idx, r) for r in records), cfg)
        subprocess.run([replay_exe, "replay", jobs_path, summary_path,
                        trace_path, str(args.seconds / 3.0)],
                       check=True, timeout=170)
        with open(summary_path) as f:
            summary = json.load(f)
        spans = layers.load_spans(trace_path)
        tm, tnotes, present = layers.layer_metrics(spans, summary)
        per_layer.update(tm)
        pl_notes.update(tnotes)
        for name, span in NEEDS_SPAN.items():
            if span not in present:
                pl_notes[name] = "n/a on this workload (reported as 0)"
        for k in ("perf.lane_speedup.refactor", "perf.lane_speedup.hb"):
            if 0 < per_layer[k] < 1.0:
                pl_notes[k] = "parallel path slower than serial"
        pl_notes["trace"] = f"{summary['jobs']} jobs replayed"

    fingerprint = {
        "workload": args.workload, "seed": args.seed, "nproc": n,
        "workers": cfg["workers"], "lanes_per_job": cfg["lanes"],
        "build_type": BUILD_TYPE, "commit": commit(),
        "source_digest": source_digest(), "seconds": args.seconds,
        "loop": cfg["loop"], "rate": cfg.get("rate"),
    }
    report(fingerprint, e2e, e2e_notes, per_layer, pl_notes, failures,
           trace_path)
    correct = not any(f["kind"] == "mismatch" for f in failures)
    metrics = ({k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                for k, v in per_layer.items()} if args.trace else
               {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                for k, v in e2e.items()})
    t0 = min(r.sent for r in records)
    timeline = [[r.cls, round(r.sent - t0, 6),
                 r.accepted and round(r.accepted - r.sent, 6),
                 r.started and round(r.started - r.sent, 6),
                 r.finished and round(r.finished - r.sent, 6)]
                for r in records]
    full = {"fingerprint": fingerprint, "end_to_end": e2e,
            "end_to_end_notes": e2e_notes, "per_layer": per_layer,
            "per_layer_notes": pl_notes, "failures": failures,
            "trace_file": trace_path,
            "jobs": {"columns": ["class", "sent_s", "accepted_s", "started_s",
                                 "finished_s"], "rows": timeline}}
    with open(os.path.join(resdir, f"{args.workload}_s{args.seed}_t{args.trace}"
                                   ".json"), "w") as f:
        json.dump(full, f)
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def report(fp, e2e, e2e_notes, per_layer, pl_notes, failures, trace_path):
    print("fingerprint: " + " ".join(f"{k}={v}" for k, v in fp.items()))
    print(f"end-to-end ({fp['workload']}):")
    for k, v in e2e.items():
        print(f"  {k:<28} {v:>14.6g} {END_TO_END_UNITS[k]:<6} "
              f"{e2e_notes.get(k, '')}")
    print("per-layer:")
    for k, v in per_layer.items():
        print(f"  {k:<28} {v:>14.6g} {PER_LAYER_UNITS[k]:<6} "
              f"{pl_notes.get(k, '')}")
    if "trace" in pl_notes:
        print(f"  trace: {pl_notes['trace']}, file {trace_path}")
    for f in failures[:20]:
        print(f"  FAILED job {f['job']} ({f['class']}) [{f['kind']}]: "
              f"{f['reason']}")
    if len(failures) > 20:
        print(f"  ... {len(failures) - 20} more failures")


def compare(a_path, b_path):
    """Ratio two full results (new / base), refusing mismatched machines."""
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    fa, fb = a["fingerprint"], b["fingerprint"]
    diff = [k for k in FINGERPRINT_MATCH if fa.get(k) != fb.get(k)]
    if diff:
        for k in diff:
            print(f"fingerprint mismatch: {k}: {fa.get(k)} vs {fb.get(k)}")
        print("refusing to compare results from different machine shapes")
        return 3
    print(f"base {fa['commit']} ({fa['source_digest']}) seed {fa['seed']} vs "
          f"new {fb['commit']} ({fb['source_digest']}) seed {fb['seed']}")
    for section in ("end_to_end", "per_layer"):
        for k, va in a[section].items():
            vb = b[section].get(k)
            if vb is None:
                continue
            ratio = f"{vb / va:.3f}x" if va else "n/a"
            print(f"  {k:<28} {va:>14.6g} -> {vb:>14.6g}  {ratio}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            print("usage: run.py compare BASE.json NEW.json", file=sys.stderr)
            return 2
        return compare(sys.argv[2], sys.argv[3])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run_benchmark(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
