#!/usr/bin/env python3
"""Guard: committed test fixtures must not match a .gitignore rule.

The CLI goldens (tests/golden/*.out) once went uncommitted because the
repository ignores *.out: every local run passed on its author's tree and
failed on a clean checkout. This test runs `git check-ignore --no-index`
over every file under the fixture directories a registered test reads
(recursively), so
a new ignore rule (or a new fixture with an ignored extension) fails here
instead of on the next clone. Outside a git checkout (e.g. a source
tarball) there is nothing to check, and the test reports a skip.

Usage: tracked_fixtures_test.py <repo_root>
Exit: 0 clean, 1 ignored fixtures found, 77 skipped (no git checkout).
"""

import os
import subprocess
import sys

# Every directory whose files a registered test reads, walked recursively.
FIXTURE_DIRS = ("tests/golden", "bench/baseline", "examples/netlists",
                "tests/static/numerics_fixture", "tests/static/rt_fixture")
SKIP = 77


def main():
    root = os.path.abspath(sys.argv[1])
    try:
        probe = subprocess.run(["git", "-C", root, "rev-parse",
                                "--show-toplevel"],
                               capture_output=True, text=True)
    except FileNotFoundError:
        print("skip: git not installed")
        return SKIP
    if probe.returncode != 0 or \
            os.path.realpath(probe.stdout.strip()) != os.path.realpath(root):
        print(f"skip: {root} is not the top of a git checkout")
        return SKIP

    files = []
    for d in FIXTURE_DIRS:
        full = os.path.join(root, d)
        if not os.path.isdir(full):
            print(f"FAIL: fixture directory {d} is missing")
            return 1
        for dirpath, dirnames, names in os.walk(full):
            dirnames.sort()
            rel = os.path.relpath(dirpath, root)
            files.extend(os.path.join(rel, n) for n in sorted(names))
    if not files:
        print("FAIL: no fixture files found")
        return 1

    # --no-index: judge the ignore rules themselves, not the index — an
    # already-tracked file is reported too if a fresh copy would be ignored.
    # Without -v only ignored paths are printed (negated matches are not).
    p = subprocess.run(["git", "-C", root, "check-ignore", "--no-index",
                        "--stdin"],
                       input="\n".join(files) + "\n",
                       capture_output=True, text=True)
    if p.returncode == 0:
        print("FAIL: fixtures matched by an ignore rule:")
        print(p.stdout, end="")
        return 1
    if p.returncode != 1:
        print(f"FAIL: git check-ignore exit {p.returncode}: {p.stderr}")
        return 1
    print(f"ok   {len(files)} fixture files under "
          f"{', '.join(FIXTURE_DIRS)}; none ignored")
    return 0


if __name__ == "__main__":
    sys.exit(main())
