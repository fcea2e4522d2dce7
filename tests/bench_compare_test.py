#!/usr/bin/env python3
"""Key-class test for tools/bench_compare.py.

Feeds synthetic baseline/fresh BENCH_*.json pairs through compare_file and
checks the mark each key class earns: throughput ranks higher-is-better,
timed keys lower-is-better, speedups and scheduling-dependent counts are
compared within the threshold, everything else (other `*_ratio` keys too)
exactly, and a machine
mismatch leaves timings unranked.

Usage: bench_compare_test.py <repo_root>
"""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path


def load_tool(root: Path):
    spec = importlib.util.spec_from_file_location(
        "bench_compare", root / "tools" / "bench_compare.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def compare(tool, base: dict, fresh: dict, threshold: float = 25.0):
    """Run compare_file on one pair; returns ({key: mark}, regressions)."""
    with tempfile.TemporaryDirectory() as d:
        bp, fp = Path(d) / "base.json", Path(d) / "fresh.json"
        bp.write_text(json.dumps(base))
        fp.write_text(json.dumps(fresh))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            regressions = tool.compare_file(bp, fp, threshold)
    marks = {}
    for line in out.getvalue().splitlines():
        if not line.startswith("  ") or line.startswith("  note"):
            continue
        parts = line.split(None, 3)
        if len(parts) >= 3 and parts[0] in base:
            marks[parts[0]] = parts[3] if len(parts) == 4 else ""
    return marks, regressions


FAILURES = []


def check(cond: bool, what: str):
    if not cond:
        FAILURES.append(what)


def main() -> int:
    tool = load_tool(Path(sys.argv[1]))
    meta = {"bench": "daemon_throughput", "quick": True, "nproc": 4,
            "lanes": 1}

    # Throughput: higher is better.
    marks, reg = compare(tool, {**meta, "serial_jobs_per_s": 3830.0},
                         {**meta, "serial_jobs_per_s": 2739.0})
    check("REGRESSION" in marks["serial_jobs_per_s"] and reg == 1,
          f"throughput drop must regress: {marks}")
    marks, reg = compare(tool, {**meta, "serial_jobs_per_s": 2739.0},
                         {**meta, "serial_jobs_per_s": 3830.0})
    check("improved" in marks["serial_jobs_per_s"] and reg == 0,
          f"throughput rise must improve: {marks}")

    # Timed: lower is better.
    marks, reg = compare(tool, {**meta, "serial_s": 1.0, "perf.eval_ns": 100},
                         {**meta, "serial_s": 2.0, "perf.eval_ns": 50})
    check("REGRESSION" in marks["serial_s"], f"slower time must regress: {marks}")
    check("improved" in marks["perf.eval_ns"], f"faster time: {marks}")
    check(reg == 1, f"one timed regression expected, got {reg}")

    # Speedups: within the threshold they pass, beyond it they are marked
    # but never ranked or counted as exact changes.
    base = {**meta, "speedup": 1.76, "mesh.speedup_factor": 1.5,
            "perf.lane_speedup.hb": 1.2, "compression_ratio": 4.0}
    fresh = {**meta, "speedup": 1.5, "mesh.speedup_factor": 1.0,
             "perf.lane_speedup.hb": 1.3, "compression_ratio": 4.0}
    marks, reg = compare(tool, base, fresh)
    check(reg == 0, f"ratios never regress: {reg}")
    check("outside" not in marks["speedup"] and "changed" not in marks["speedup"],
          f"speedup within threshold: {marks}")
    check("outside" in marks["mesh.speedup_factor"],
          f"speedup beyond threshold is marked: {marks}")
    check("outside" not in marks["perf.lane_speedup.hb"],
          f"lane speedup within threshold: {marks}")
    check("changed" not in marks["compression_ratio"], f"ratio equal: {marks}")

    # A `*_ratio` key that is not a speedup is a deterministic result:
    # any drift is an exact change.
    marks, reg = compare(tool, {**meta, "compression_ratio": 4.0,
                                "coupling_ratio": 0.5},
                         {**meta, "compression_ratio": 4.8,
                          "coupling_ratio": 0.5})
    check(marks["compression_ratio"] == "changed",
          f"non-speedup ratio drift is a change: {marks}")
    check(marks["coupling_ratio"] == "", f"equal ratio unchanged: {marks}")
    check(reg == 0, "exact changes are not timing regressions")

    # Scheduling-dependent counts: tolerance in the daemon bench, exact
    # elsewhere.
    base = {**meta, "ctx_hits_parallel": 14, "perf.factorizations": 461,
            "perf.solves": 3056, "ctx_hits_serial": 16}
    fresh = {**meta, "ctx_hits_parallel": 15, "perf.factorizations": 700,
             "perf.solves": 3100, "ctx_hits_serial": 17}
    marks, reg = compare(tool, base, fresh)
    check(marks["ctx_hits_parallel"] == "", f"scheduled within tol: {marks}")
    check(marks["perf.solves"] == "", f"scheduled within tol: {marks}")
    check("changed" in marks["perf.factorizations"],
          f"scheduled beyond tol: {marks}")
    check(marks["ctx_hits_serial"] == "changed", f"exact count: {marks}")
    other = dict(meta, bench="large_circuit")
    marks, _ = compare(tool, {**other, "ctx_hits_parallel": 14},
                       {**other, "ctx_hits_parallel": 15})
    check(marks["ctx_hits_parallel"] == "changed",
          f"only the daemon bench tolerates scheduling: {marks}")

    # Exact counts.
    marks, reg = compare(tool, {**meta, "hb.newton": 3, "hb.gmres": 10},
                         {**meta, "hb.newton": 4, "hb.gmres": 10})
    check(marks["hb.newton"] == "changed" and marks["hb.gmres"] == "",
          f"exact diff: {marks}")
    check(reg == 0, "exact changes are not timing regressions")

    # Another machine: timings and throughput show ratios, unranked.
    marks, reg = compare(tool, {**meta, "serial_s": 1.0, "x_per_s": 10.0},
                         {**meta, "nproc": 64, "serial_s": 3.0,
                          "x_per_s": 1.0})
    check(reg == 0 and "REGRESSION" not in marks["serial_s"]
          and "REGRESSION" not in marks["x_per_s"],
          f"machine mismatch must not rank: {marks}")

    for f in FAILURES:
        print(f"FAIL: {f}")
    print("bench_compare_test: " + ("ok" if not FAILURES else
                                    f"{len(FAILURES)} failure(s)"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
