#!/usr/bin/env python3
"""Compare fresh bench JSON artifacts against the committed baselines.

Usage:
    python3 tools/bench_compare.py [--fresh DIR] [--baseline DIR]
                                   [--threshold PCT]

Each BENCH_<name>.json in the baseline directory (default bench/baseline/)
is matched against the file of the same name in the fresh directory
(default: the current working directory, where the benches write their
artifacts). Numeric keys are diffed; wall-clock keys (ending in `_s` or
`_ns`) get a ratio column and are flagged when they regress by more than
the threshold (default 25%).

Benches record the machine they ran on as `nproc` (hardware threads) and
`lanes` (thread-pool lanes). When both files carry that fingerprint and it
differs, the two fingerprints are printed and wall-clock keys show their
ratio without REGRESSION/improved marks: a timing from another machine
says nothing about the code. Exact counts are still diffed.

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


def fingerprint(data: dict) -> str | None:
    if not all(k in data for k in FINGERPRINT_KEYS):
        return None
    return " ".join(f"{k}={data[k]}" for k in FINGERPRINT_KEYS)


def compare_file(base_path: Path, fresh_path: Path, threshold: float) -> int:
    base = load(base_path)
    fresh = load(fresh_path)
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
        timed = key.endswith("_s") or key.endswith("_ns")
        if timed and bval > 0:
            ratio = fval / bval
            mark = f"{ratio:6.2f}x"
            if not same_machine:
                pass  # another machine's timing cannot rank this code
            elif ratio > 1.0 + threshold / 100.0:
                mark += f"  REGRESSION (> {threshold:g}%)"
                regressions += 1
            elif ratio < 1.0 - threshold / 100.0:
                mark += "  improved"
            rows.append((key, f"{bval:.6g}", f"{fval:.6g}", mark))
        else:
            mark = "" if bval == fval else "changed"
            rows.append((key, bval, fval, mark))
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
                    help="wall-clock regression flag threshold in percent")
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
          f"{total} wall-clock regression(s) over {args.threshold:g}% "
          f"(informational, non-gating)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
