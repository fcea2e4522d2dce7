#!/usr/bin/env python3
"""Compare fresh bench JSON artifacts against the committed baselines.

Usage:
    python3 tools/bench_compare.py [--fresh DIR] [--baseline DIR]
                                   [--threshold PCT]

Each BENCH_<name>.json in the baseline directory (default bench/baseline/)
is matched against the file of the same name in the fresh directory
(default: the current working directory, where the benches write their
artifacts). Every numeric key falls in one class (see key_class):

  timed       wall-clock keys ending in `_s` or `_ns`: lower is better; a
              ratio column, flagged REGRESSION / improved beyond the
              threshold (default 25%).
  throughput  keys ending in `_per_s` (jobs per second): higher is better;
              ranked the same way with the direction reversed.
  ratio       timing ratios (keys containing `speedup`): compared within
              the threshold, never as exact counts, and unranked. Other
              `*_ratio` keys (compression, coupling, slope ratios) are
              deterministic results and stay exact.
  scheduled   counts that depend on worker scheduling (the daemon bench's
              parallel cache hits and process-wide `perf.*` totals):
              compared within the threshold, not exactly.
  exact       everything else (iteration counts, sizes): diffed exactly.

Benches record the machine they ran on as `nproc` (hardware threads) and
`lanes` (thread-pool lanes). When both files carry that fingerprint and it
differs, the two fingerprints are printed and timed and throughput keys
show their ratio without REGRESSION/improved marks: a timing from another
machine says nothing about the code. Exact counts are still diffed.

The report is INFORMATIONAL: the exit code is always 0 unless the inputs
are unreadable. Bench machines differ — CI uses this as a trend signal
next to the uploaded artifacts, not as a gate. Refresh a baseline by
copying a representative BENCH_*.json over bench/baseline/ and committing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# Metadata keys: describe the run, not the code under test.
META_KEYS = {"bench", "quick", "nproc", "lanes"}
FINGERPRINT_KEYS = ("nproc", "lanes")

# Per bench: keys (exact, or prefixes ending in ".") whose values depend on
# how the worker threads happened to interleave.
SCHEDULED_KEYS = {
    "daemon_throughput": ("ctx_hits_parallel", "perf."),
}


def key_class(bench: str, key: str) -> str:
    """The comparison class of a numeric key (see the module docstring)."""
    leaf = key.rsplit(".", 1)[-1]
    if leaf.endswith("_per_s"):
        return "throughput"
    if "speedup" in leaf:
        return "ratio"
    if leaf.endswith("_s") or leaf.endswith("_ns"):
        return "timed"
    for entry in SCHEDULED_KEYS.get(bench, ()):
        if key == entry or (entry.endswith(".") and key.startswith(entry)):
            return "scheduled"
    return "exact"


def fingerprint(data: dict) -> str | None:
    if not all(k in data for k in FINGERPRINT_KEYS):
        return None
    return " ".join(f"{k}={data[k]}" for k in FINGERPRINT_KEYS)


def compare_value(cls: str, bval, fval, threshold: float,
                  same_machine: bool) -> tuple[str, bool]:
    """(mark, is_regression) for one numeric key of class `cls`."""
    if cls == "exact":
        return ("" if bval == fval else "changed"), False
    band = threshold / 100.0
    if bval == 0:
        return ("" if fval == 0 else "changed"), False
    ratio = fval / bval
    outside = abs(ratio - 1.0) > band
    if cls == "scheduled":
        return (f"changed (outside ±{threshold:g}%)" if outside else ""), False
    mark = f"{ratio:6.2f}x"
    if cls == "ratio":
        return (mark + (f"  outside ±{threshold:g}%" if outside else "")), False
    if not same_machine:
        return mark, False  # another machine's timing cannot rank this code
    worse = ratio > 1.0 + band if cls == "timed" else ratio < 1.0 - band
    better = ratio < 1.0 - band if cls == "timed" else ratio > 1.0 + band
    if worse:
        return mark + f"  REGRESSION (> {threshold:g}%)", True
    if better:
        return mark + "  improved", False
    return mark, False


def compare_file(base_path: Path, fresh_path: Path, threshold: float) -> int:
    base = load(base_path)
    fresh = load(fresh_path)
    bench = str(base.get("bench", ""))
    regressions = 0
    print(f"\n== {base_path.name} ==")
    if base.get("quick") != fresh.get("quick"):
        print(f"  note: quick-mode mismatch (baseline quick={base.get('quick')}, "
              f"fresh quick={fresh.get('quick')}) — ratios are not comparable")
    base_fp, fresh_fp = fingerprint(base), fingerprint(fresh)
    same_machine = True
    if base_fp is None:
        print("  note: baseline has no machine fingerprint (nproc, lanes)")
    elif fresh_fp is not None and base_fp != fresh_fp:
        same_machine = False
        print(f"  machine mismatch: baseline {base_fp}, fresh {fresh_fp} — "
              "timed keys show ratios only, not ranked")
    rows = []
    for key, bval in base.items():
        if key in META_KEYS:
            continue
        fval = fresh.get(key)
        if fval is None:
            rows.append((key, bval, "(missing)", ""))
            continue
        if not (is_number(bval) and is_number(fval)):
            mark = "" if bval == fval else "changed"
            rows.append((key, bval, fval, mark))
            continue
        cls = key_class(bench, key)
        mark, regressed = compare_value(cls, bval, fval, threshold,
                                        same_machine)
        regressions += regressed
        if cls == "exact":
            rows.append((key, bval, fval, mark))
        else:
            rows.append((key, f"{bval:.6g}", f"{fval:.6g}", mark))
    new_keys = sorted(set(fresh) - set(base) - META_KEYS)
    for key in new_keys:
        rows.append((key, "(new)", fresh[key], ""))
    width = max((len(r[0]) for r in rows), default=10)
    for key, bval, fval, mark in rows:
        print(f"  {key:<{width}}  {str(bval):>14}  {str(fval):>14}  {mark}")
    return regressions


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh", default=".",
                    help="directory holding fresh BENCH_*.json (default: cwd)")
    ap.add_argument("--baseline", default="bench/baseline",
                    help="directory holding committed baselines")
    ap.add_argument("--threshold", type=float, default=25.0,
                    help="flag threshold in percent for every class "
                         "compared by ratio")
    args = ap.parse_args()

    base_dir = Path(args.baseline)
    fresh_dir = Path(args.fresh)
    baselines = sorted(base_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines under {base_dir}", file=sys.stderr)
        return 1

    total = 0
    compared = 0
    for base_path in baselines:
        fresh_path = fresh_dir / base_path.name
        if not fresh_path.exists():
            print(f"\n== {base_path.name} ==\n  fresh artifact not found "
                  f"in {fresh_dir} — run the bench first")
            continue
        try:
            total += compare_file(base_path, fresh_path, args.threshold)
            compared += 1
        except (OSError, json.JSONDecodeError) as e:
            print(f"cannot compare {base_path.name}: {e}", file=sys.stderr)
            return 1

    print(f"\n{compared}/{len(baselines)} benches compared; "
          f"{total} timing/throughput regression(s) over {args.threshold:g}% "
          f"(informational, non-gating)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
