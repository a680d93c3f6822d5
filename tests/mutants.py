"""Mutant table for the decision code: an opt-in script, not part of tier-1.

Each row names a file of the tree, an exact text in it, its replacement and
the tests expected to kill the mutant.  A row runs in its own temporary copy
of src/, tests/ and pyproject.toml: the text is replaced (it must occur
exactly once), the row's tests run there under pytest, and the mutant is
killed when they fail.  The script prints killed or survived per row with
pytest's summary line, and exits 1 when a row survives, or when a row cannot
run (its text is missing, or pytest ends with neither a pass nor a test
failure).

A row may name a known survivor: `known` gives the ROADMAP direction that
will kill it.  Such a row prints known when it survives and does not fail
the run; when it is killed, the run fails, as a strict xfail does, so that
its marker is dropped.

    python tests/mutants.py             # every row
    python tests/mutants.py -k orbit    # the rows whose name contains "orbit"

A survivor is a finding for the tests: a row is never weakened or deleted
to make the table pass.  The tier1 workflow runs every row on Python 3.11.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    original: str
    replacement: str
    tests: Tuple[str, ...]
    known: Optional[str] = None


ACTIONS = "src/rigidpadic/actions.py"
ANALYTIC = "src/rigidpadic/analytic.py"
FUNCTIONS = "src/rigidpadic/functions.py"
PADIC = "src/rigidpadic/padic.py"
TABLE = "tests/test_analytic.py::TestOrbitLevels::test_table_equals_materialised"
GUARD = "tests/test_analytic.py::TestOrbitLevels::test_tail_guard"

MUTANTS = [
    Mutant("orbit table: only the first kept row", ANALYTIC,
           "zip(kept, [l for l, _ in kept[1:]] + [D])", "zip(kept[:1], [D])", (TABLE,)),
    Mutant("orbit table: dilation seeded at INF, not x_q", ANALYTIC,
           "        best = xs[q]\n", "        best = INF\n", (TABLE,)),
    Mutant("orbit table: skip test on raw x, not the base", ANALYTIC,
           "        if base < low:\n            low = base\n",
           "        if xs[l] < low:\n            low = xs[l]\n", (TABLE,)),
    Mutant("orbit table: mobius range one index too long", ANALYTIC,
           "tail[D - end:D - l] = acc[D - end:D - l]",
           "tail[D - end:D - l + 1] = acc[D - end:D - l + 1]", (TABLE,)),
    Mutant("_orbit_tail_guard returns early", ANALYTIC,
           "    base = w.val_c()\n", "    return\n    base = w.val_c()\n",
           (GUARD + "_reads_the_table", GUARD + "_adds_m_v_to_each_entry")),
    Mutant("_agreement threshold one digit higher", PADIC,
           "threshold = (vx if vx < vy else vy) + gap",
           "threshold = (vx if vx < vy else vy) + gap + 1",
           ("tests/test_padic.py", "tests/test_functions.py", "tests/test_series.py")),
    Mutant("_agreement threshold one digit lower", PADIC,
           "threshold = (vx if vx < vy else vy) + gap",
           "threshold = (vx if vx < vy else vy) + gap - 1",
           ("tests/test_padic.py", "tests/test_functions.py", "tests/test_series.py")),
    Mutant("is_member_Can skips the last in-ball leaf", FUNCTIONS,
           "for lf in inball[1:]:", "for lf in inball[1:-1]:",
           ("tests/test_functions.py", "tests/test_analytic.py")),
    Mutant("_check_partition ignores its overlap walk", FUNCTIONS,
           "    if pairs:\n", "    if pairs and False:\n", ("tests/test_functions.py",)),
    Mutant("cokernel_equal with alpha unchecked", ANALYTIC,
           "    if not c1.F_alpha.agrees_with(c2.F_alpha):\n        return False\n", "",
           ("tests/test_analytic.py", "tests/test_acceptance.py")),
    Mutant("_normalised one-division strip off by one digit", PADIC,
           "        return val + 1, r\n", "        return val + 2, r\n", ("tests/test_padic.py",)),
    Mutant("orbit_membership samples one point per leaf", ANALYTIC,
           "for j in range(3):", "for j in range(1):",
           ("tests/test_analytic.py", "tests/test_acceptance.py", "tests/test_golden.py"),
           known="direction 15"),
    Mutant("_re_expand keeps the leaf's tail bound", FUNCTIONS,
           "    if tail is not INF:\n", "    if False:\n",
           ("tests/test_functions.py", "tests/test_analytic.py")),
    Mutant("_re_expand without ceilings", FUNCTIONS,
           "return pairs, [f + N for f in floors], tail", "return pairs, [], tail",
           ("tests/test_functions.py", "tests/test_analytic.py")),
    Mutant("_pair_sum drops a side one digit early", PADIC,
           "    if d >= ctx.N:\n", "    if d >= ctx.N - 1:\n",
           ("tests/test_padic.py", "tests/test_series.py")),
    Mutant("_act_piecewise centre inverse modulo p^(level - 1)", ACTIONS,
           "(pow(a + b * z0, -1, mod) if b else inv_a)",
           "(pow(a + b * z0, -1, max(mod // p, 1)) if b else inv_a)", ("tests/test_actions.py",)),
    Mutant("_same_context accepts every pair", PADIC,
           "        if other is not ctx and not ctx.same(other):\n", "        if False:\n",
           ("tests/test_fuzz.py", "tests/test_padic.py")),
]


def run(mutant: Mutant) -> Tuple[str, str]:
    """(outcome, pytest's summary line) of one row in a fresh copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)
        target = tree / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.original) != 1:
            return "error", f"original text occurs {text.count(mutant.original)} times"
        target.write_text(text.replace(mutant.original, mutant.replacement), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
            capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else proc.stderr.strip()[-200:]
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    return outcome, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-k", default="", help="run only the rows whose name contains this")
    args = parser.parse_args(argv)
    bad = 0
    for mutant in MUTANTS:
        if args.k not in mutant.name:
            continue
        t0 = time.perf_counter()
        outcome, summary = run(mutant)
        if mutant.known:
            summary += f" (known survivor, {mutant.known})"
            if outcome == "survived":
                outcome = "known"
        bad += outcome != ("known" if mutant.known else "killed")
        print(f"{outcome:8} {mutant.name}: {summary} [{time.perf_counter() - t0:.1f}s]",
              flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
