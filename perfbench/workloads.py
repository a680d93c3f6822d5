"""Seeded inputs, operations and correctness checks of the four workloads.

Every input comes from the generators in ``rigidpadic.selftest``, driven by
``random.Random(f"{seed}/{workload}")``, so a seed fixes the inputs.  A
workload is one *cycle*: a fixed, ordered list of operations over distinct
inputs.  A run repeats whole cycles, so every run measures the same mix of
operation kinds whatever its length.

Operations call the library through module attributes looked up at call
time (``actions.act``, not a bound name), so the traced pass sees the
wrapped entry points.  Checks run outside the timed interval and test
properties that do not depend on the program's own earlier output.
"""

from __future__ import annotations

import contextlib
import io as _text
import json
import os
import random
from typing import Callable, List, Optional

from rigidpadic import actions, analytic, cli, galois, io
from rigidpadic import selftest as gen
from rigidpadic.actions import I1, WeylCellVector
from rigidpadic.functions import LocallyAlgebraicFunction, PiecewiseFunction, StepFunction
from rigidpadic.padic import INF, PadicContext, PadicNumber
from rigidpadic.series import TateSeries
from rigidpadic.verdict import Verdict

#: the default context every workload runs in
CONTEXT = {"p": 5, "N": 40, "D": 64, "kappa": 4}

Check = Callable[[object], Optional[str]]


class Known(str):
    """A check failure caused by a documented defect of the program: it is
    counted as failed, but it does not make the run incorrect as long as the
    defect shows no more often in a cycle than ``KNOWN_PER_CYCLE`` allows."""

    known = True

    def __new__(cls, text: str, defect: str):
        obj = super().__new__(cls, text)
        obj.defect = defect
        return obj


#: documented defect -> most failures it may cause in one cycle.  Each is
#: far rarer than that (about 1 input in 1000), so a change that makes the
#: defect common, or breaks the checked property outright, fails the run.
KNOWN_PER_CYCLE = {"orbit-ceilings": 1, "selftest-cancellation": 1}

#: the property suites that fail on rare random cases after cancellation
CANCELLATION_SUITES = frozenset({
    "series/substitution-evaluation", "series/recenter-evaluation",
    "functions/mahler", "orbit/reconstruction",
})


class Op:
    """One operation of a cycle: a timed call plus its untimed check.

    ``known_crash`` names a documented defect whose uncaught exception is
    expected today; such a failure is counted but does not make the run
    incorrect.
    """

    __slots__ = ("kind", "fn", "check", "known_crash")

    def __init__(self, kind: str, fn: Callable[[], object], check: Check,
                 known_crash: Optional[str] = None):
        self.kind = kind
        self.fn = fn
        self.check = check
        self.known_crash = known_crash


def call(module, name: str, *args) -> Callable[[], object]:
    """A thunk that resolves module.name when it runs, not when it is built."""

    def run():
        return getattr(module, name)(*args)

    return run


def _rand_series(ctx: PadicContext, rng: random.Random, m: int, min_deg: int = 1,
                 **kw) -> TateSeries:
    """rand_series, redrawn until the degree is at least min_deg.

    Under a weight-k action a series of degree <= k - 2 collapses back to a
    polynomial, so every Taylor shift after the substitution is short.  Such
    inputs would skip the full-degree path the workloads are meant to run and
    split one operation kind into two cost classes; callers pass
    min_deg = k - 1 to keep them out.
    """
    while True:
        f = gen.rand_series(ctx, rng, m, **kw)
        if f.degree >= min_deg:
            return f


def _refined(ctx, rng, level, min_deg, max_deg=5) -> PiecewiseFunction:
    """rand_refined_global with the degree floor of _rand_series."""
    base = _rand_series(ctx, rng, 0, min_deg=min_deg, max_deg=max_deg, lo=0)
    return PiecewiseFunction.from_global_series(base).refine(level)


def _exact(f: TateSeries) -> TateSeries:
    return TateSeries(f.ctx, f.m, f.coeffs, INF)


def _floor(f: PiecewiseFunction):
    return min(lf.series.val_c() for lf in f.leaves)


def _fmt(v) -> str:
    return "inf" if v is INF else str(v)


# -- series-orbit ----------------------------------------------------------------


def _check_series_isometry(f: TateSeries) -> Check:
    def check(out) -> Optional[str]:
        if out.m != f.m:
            return f"act moved the ball level from {f.m} to {out.m}"
        if out.val_c() != f.val_c():
            return f"act moved val_C from {_fmt(f.val_c())} to {_fmt(out.val_c())}"
        return None

    return check


def _check_bounds_ok(report) -> Optional[str]:
    if not report.ok:
        bad = report.first_violation()
        return f"orbit bound violated at {bad.family}[{bad.index}]"
    return None


def build_series_orbit(ctx: PadicContext, rng: random.Random, _fixtures: str) -> List[Op]:
    """64 `act` calls on one TateSeries (m = 0..3) and 16 certificate calls."""
    ops = []
    for i in range(16):
        for m in range(4):
            chi = gen.rand_chi(ctx, rng, 2 + (i + m) % 4)
            f = _rand_series(ctx, rng, m, min_deg=chi.k - 1)
            g = gen.rand_iwahori(ctx, rng, I1 if m == 0 else m)
            ops.append(Op(f"act.m{m}", call(actions, "act", g, f, chi),
                          _check_series_isometry(f)))
        m = 1 + i % 3
        f = _rand_series(ctx, rng, m)
        name = "bound_report" if i % 2 == 0 else "verify_bounds"
        ops.append(Op(name, call(analytic, name, f, m), _check_bounds_ok))
    return ops


# -- piecewise-act ---------------------------------------------------------------


def _truncated(ctx, rng, level, k) -> PiecewiseFunction:
    """Leaves with a finite tail bound (the raw_mobius-at-D path)."""
    base = _rand_series(ctx, rng, 0, min_deg=k - 1, max_deg=6, lo=0)
    return PiecewiseFunction.from_global_series(base).refine(level)


def _exact_poly(ctx, rng, level, k) -> PiecewiseFunction:
    """Exact polynomial leaves of degree <= k - 2 (the `_mobius_poly` path)."""
    base = gen.rand_series(ctx, rng, 0, max_deg=k - 2, lo=0)
    return PiecewiseFunction.from_global_series(_exact(base)).refine(level)


def _check_floor(before: PiecewiseFunction) -> Check:
    want = _floor(before)

    def check(out) -> Optional[str]:
        got = _floor(out)
        if got != want:
            return f"valuation floor moved from {_fmt(want)} to {_fmt(got)}"
        return None

    return check


def _check_cell_floor(vec: WeylCellVector) -> Check:
    ident, w0 = _check_floor(vec.identity), _check_floor(vec.w0)

    def check(out) -> Optional[str]:
        return ident(out.identity) or w0(out.w0)

    return check


def _check_smooth(f: StepFunction) -> Check:
    floor = _check_floor(f)

    def check(out) -> Optional[str]:
        if not isinstance(out, StepFunction):
            return "act_smooth left the locally constant model"
        return floor(out)

    return check


def _with_cocycle(check: Check, once: Callable[[], object],
                  twice: Callable[[], object], exponent: int) -> Check:
    """Add the cocycle identity g(h f) = (gh) f mod p**exponent to a check."""

    def both(out) -> Optional[str]:
        bad = check(out)
        if bad:
            return bad
        if not once().agrees_mod(twice(), exponent):
            return "action fails the cocycle identity"
        return None

    return both


def build_piecewise_act(ctx: PadicContext, rng: random.Random, _fixtures: str) -> List[Op]:
    """60 leafwise actions: 9 on truncated leaves, 51 on exact polynomial leaves.

    Truncated inputs take the raw_mobius-at-D path, exact ones the
    `_mobius_poly` path.  The cost classes are sized so that p50 and p90
    each fall in the middle of a class, never on a boundary between two,
    and weights k are assigned in rotation rather than drawn; otherwise the
    percentiles jump between classes from one seed to the next.
    """
    cut = ctx.N - 2 * ctx.kappa
    ops = []

    def act_op(kind, make, k, cocycle=False):
        chi = gen.rand_chi(ctx, rng, k)
        f = make(k)
        g = gen.rand_iwahori(ctx, rng, I1)
        check = _check_floor(f)
        if cocycle:
            h = gen.rand_iwahori(ctx, rng, I1)
            check = _with_cocycle(
                check,
                lambda: actions.act(g @ h, f, chi),
                lambda: actions.act(g, actions.act(h, f, chi), chi),
                cut,
            )
        ops.append(Op(kind, call(actions, "act", g, f, chi), check))

    def cell_op(kind, make_identity, k):
        chi = gen.rand_chi(ctx, rng, k)
        vec = WeylCellVector(make_identity(k), _exact_poly(ctx, rng, 2, k))
        g = gen.rand_iwahori(ctx, rng, 1)
        ops.append(Op(kind, call(actions, "act_cell", g, vec, chi), _check_cell_floor(vec)))

    def smooth_op(h, cocycle=False):
        f = StepFunction.indicator_ball(ctx, h)
        g = gen.rand_iwahori(ctx, rng, I1)
        check = _check_smooth(f)
        if cocycle:
            g2 = gen.rand_iwahori(ctx, rng, I1)
            check = _with_cocycle(
                check,
                lambda: actions.act_smooth(g @ g2, f),
                lambda: actions.act_smooth(g, actions.act_smooth(g2, f)),
                cut,
            )
        ops.append(Op("act_smooth", call(actions, "act_smooth", g, f), check))

    def la_op(level, k):
        chi = gen.rand_chi(ctx, rng, k)
        la = LocallyAlgebraicFunction(ctx, _exact_poly(ctx, rng, level, k).leaves, k)
        g = gen.rand_iwahori(ctx, rng, I1)
        ops.append(Op("act_locally_algebraic",
                      call(actions, "act_locally_algebraic", g, la, chi), _check_floor(la)))

    def truncated(level):
        return lambda k: _truncated(ctx, rng, level, k)

    def exact(level):
        return lambda k: _exact_poly(ctx, rng, level, k)

    # 60 operations in four cost classes: 12 step functions, 24 exact level-1
    # (p50 falls in the middle of this class), 15 exact level-2 and cell
    # pairs, and 9 truncated level-1 (p90 falls on the third of them).  The
    # first op of each kind is its cheapest instance, so warm-up is short.
    slots = []
    for i in range(12):
        slots.append(lambda k, i=i: smooth_op(1 + i % 3, cocycle=i % 4 == 0))
        slots.append(lambda k, i=i: act_op("act.exact", exact(1), k, cocycle=i % 6 == 0))
        slots.append(lambda k: la_op(1, k))
        if i < 7:
            slots.append(lambda k: act_op("act.truncated", truncated(1), k))
        if i < 6:
            slots.append(lambda k: cell_op("act_cell.exact", exact(1), k))
        if i < 5:
            slots.append(lambda k: act_op("act.exact", exact(2), k))
        if i < 4:
            slots.append(lambda k: la_op(2, k))
        if i < 2:
            slots.append(lambda k: cell_op("act_cell.mixed", truncated(1), k))
    for j, slot in enumerate(slots):
        slot(2 + j % 4)
    return ops


# -- membership-ladder -------------------------------------------------------------


def _check_membership(memo: dict, key: int, perturbed: bool, second: bool) -> Check:
    """Both routes must agree; an unperturbed refined global must give YES,
    and a perturbed one must not.

    A perturbed input has a nonzero constant p**j (j <= 2) added to one
    sub-coset leaf, which cannot be analytic on the ball, so YES is wrong
    whatever either route says.  A NO or INDETERMINATE from the orbit route
    where re-expansion glued is a known defect (about 1 unperturbed input
    in 1000): `orbit_membership` drops the ceilings `_re_expand` returns
    for its candidate, so rounding inside the claimed reliable window reads
    as a disagreement or starves the comparison.
    """

    def check(v) -> Optional[str]:
        if perturbed and v is Verdict.YES:
            return "perturbed input judged analytic"
        if not second:
            memo[key] = v
        else:
            first = memo.pop(key, None)
            if not perturbed and first is Verdict.YES and v is not Verdict.YES:
                return Known(f"orbit route said {v.name} where re-expansion glued",
                             "orbit-ceilings")
            if first is not v:
                return f"routes disagree: re-expansion {first}, orbit {v}"
        if not perturbed and v is not Verdict.YES:
            return f"unperturbed refined global gave {v.name}"
        return None

    return check


def _ladder(f: PiecewiseFunction) -> list:
    return [analytic.is_analytic_vector(f, m) for m in range(f.max_level() + 1)]


def _check_ladder(verdicts) -> Optional[str]:
    for m in range(len(verdicts) - 1):
        if verdicts[m] is Verdict.YES and verdicts[m + 1] is not Verdict.YES:
            return f"analyticity lost going from level {m} to {m + 1}"
    if verdicts[-1] is not Verdict.YES:
        return "not analytic on the ball of its deepest leaf"
    return None


def _check_commutes(a: PiecewiseFunction, b: PiecewiseFunction) -> Check:
    def check(out) -> Optional[str]:
        if not out.agrees_with(b + a):
            return "a + b disagrees with b + a"
        return None

    return check


def _expect(want: bool) -> Check:
    def check(got) -> Optional[str]:
        return None if got is want else f"expected {want}, got {got}"

    return check


def _cokernel_pair(ctx, rng, good: bool):
    """c1 and c1 shifted on the beta side by a member (good) or a non-member."""
    n, m = 1, 2
    k = rng.randint(2, 4)
    chi = gen.rand_chi(ctx, rng, k)
    c1 = analytic.CokernelElement(chi, n, m, gen._rand_ga(ctx, rng, n, m),
                                  gen._rand_ga(ctx, rng, n, m))
    if good:
        shift = gen._poly_member(ctx, rng, k)
    else:
        shift = PiecewiseFunction.from_global_series(TateSeries.monomial(ctx, 0, k - 1))
    beta = analytic.GAElement(
        WeylCellVector(c1.F_beta.vector.identity + shift, c1.F_beta.vector.w0), n, m)
    return c1, analytic.CokernelElement(chi, n, m, c1.F_alpha, beta)


def build_membership_ladder(ctx: PadicContext, rng: random.Random, _fixtures: str) -> List[Op]:
    """34 read-only verdicts and binary operations on level-1..3 partitions.

    Leaves have degree 2..5: the cost of a verdict grows with the degree,
    and constant or linear leaves would make a seed's cost depend on how
    many of them it happened to draw.  The six level-3 ladders are the
    costliest class (30 to 55 ms each, 18% of the operations), and their
    cost is set by the degree, so each draw has two ladders of each degree
    3, 4 and 5 rather than random ones: p90 then falls in the middle of the
    degree-4 ladders for every seed.
    """
    MIN_DEG = 2
    ops = []
    memo: dict = {}
    for i in range(8):
        level = 2 + i % 2
        m = level - 1
        f = _refined(ctx, rng, level, MIN_DEG)
        perturbed = (i // 2) % 2 == 1
        if perturbed:
            f = gen._perturb_one_inball_leaf(ctx, rng, f, m)
        ops.append(Op("is_analytic_vector", call(analytic, "is_analytic_vector", f, m),
                      _check_membership(memo, i, perturbed, second=False)))
        ops.append(Op("orbit_membership", call(analytic, "orbit_membership", f, m),
                      _check_membership(memo, i, perturbed, second=True)))
        if i % 4 != 0:
            deg = 2 + i % 4
            ladder = _refined(ctx, rng, 3, deg, max_deg=deg)
            ops.append(Op("analytic_ladder", lambda f=ladder: _ladder(f), _check_ladder))
    for h, level in ((1, 2), (2, 1), (3, 1), (3, 2)):
        a = StepFunction.indicator_ball(ctx, h)
        b = _refined(ctx, rng, level, MIN_DEG)
        ops.append(Op("add", lambda a=a, b=b: a + b, _check_commutes(a, b)))
    for h, level in ((2, 1), (3, 1)):
        f = _refined(ctx, rng, level, MIN_DEG)
        ops.append(Op("agrees_with", call(f, "agrees_with", f.refine(h)), _expect(True)))
        bumped = f + StepFunction.indicator_ball(ctx, h)
        ops.append(Op("agrees_with", call(f, "agrees_with", bumped), _expect(False)))
    for good in (True, False, True, False):
        c1, c2 = _cokernel_pair(ctx, rng, good)
        ops.append(Op("cokernel_equal", call(analytic, "cokernel_equal", c1, c2),
                      _expect(good)))
    return ops


# -- cli-files -----------------------------------------------------------------------

#: the exit codes documented by the command line
EXIT_OK, EXIT_FAILURE, EXIT_USAGE, EXIT_DOMAIN, EXIT_MISMATCH = 0, 1, 2, 3, 4

#: selftest families run through the CLI; `actions` is left out because its
#: cell-associativity suite alone costs about 50 times any other request
SELFTEST_FAMILIES = ("padic", "series", "functions", "orbit", "analytic", "cokernel",
                     "galois", "io")


def _run_cli(argv: List[str], out_file: Optional[str]):
    """cli.main in-process with captured streams; (exit code, stdout text)."""
    out, err = _text.StringIO(), _text.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's documented usage-error exit
            code = exc.code
    text = out.getvalue()
    if out_file is not None and code == EXIT_OK:
        with open(out_file, encoding="utf-8") as fh:
            text = fh.read()
    return code, text


def _check_cli(want: int, fmt: Optional[str], payload: Optional[Check]) -> Check:
    def check(result) -> Optional[str]:
        code, text = result
        if code != want:
            return f"exit code {code}, expected {want}"
        if want != EXIT_OK or fmt != "json":
            return None
        try:
            report = json.loads(text)
        except ValueError:
            return "stdout is not JSON"
        return payload(report) if payload else None

    return check


def _check_selftest(ctx: PadicContext, seed: int, only: str, fmt: str) -> Check:
    """Exit code 0 and `ok`, or a known failure of the suites themselves.

    The property suites in ``CANCELLATION_SUITES`` fail on rare random
    cases (none in 6400 requests drawn as this workload draws them; `--seed
    391927 selftest --only series/ --count 1` is one): after cancellation
    the two sides of a comparison share fewer than N - kappa relative digits.
    Exit code 1 is then the documented outcome, so such a request counts as
    failed but known.  Its failing suites are found by running them again
    in-process outside the timed interval; a failure in any other suite, or
    exit code 1 without a failing suite, is not known.
    """
    plain = _check_cli(EXIT_OK, fmt, _report_is("ok", True))

    def check(result) -> Optional[str]:
        problem = plain(result)
        if problem is None or result[0] != EXIT_FAILURE:
            return problem
        report = gen.run_selftest(ctx, seed=seed, count_override=1, only=only)
        failing = sorted(suite["name"] for suite in report["suites"] if not suite["ok"])
        if failing and CANCELLATION_SUITES.issuperset(failing):
            return Known(f"selftest cases failed in {', '.join(failing)}",
                         "selftest-cancellation")
        if failing:
            return f"selftest failed in {', '.join(failing)}"
        return problem

    return check


def _report_is(key: str, want) -> Check:
    def check(report) -> Optional[str]:
        got = report.get(key)
        return None if got == want else f"{key} = {got!r}, expected {want!r}"

    return check


def build_cli_files(ctx: PadicContext, rng: random.Random, fixtures: str) -> List[Op]:
    """41 in-process CLI requests over canonical files written at set-up.

    25 requests are well formed and cover all seven subcommands in all three
    formats; 16 are malformed or out of domain and must end in their
    documented exit code.  Three of those are crashes listed in ROADMAP.md
    (an uncaught exception instead of exit code 2); they stay in the mix and
    show as a nonzero failed share until the CLI is fixed.
    """

    def put(name: str, kind: str, value, context: PadicContext = ctx) -> str:
        path = os.path.join(fixtures, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(io.wrap(kind, context, value))
        return path

    seed_flag = rng.randrange(10 ** 6)
    params = [put(f"param{i}.json", "param", galois.TriangulineParam(
        gen.rand_character(ctx, rng), gen.rand_character(ctx, rng))) for i in range(3)]
    series = []
    for i in range(3):
        m = 1 + i
        series.append((put(f"series{i}.json", "series", _rand_series(ctx, rng, m)), m))
    steps = [(put(f"step{h}.json", "function", StepFunction.indicator_ball(ctx, h)), h)
             for h in (1, 2, 3)]
    matrix = put("matrix.json", "matrix", gen.rand_iwahori(ctx, rng, I1))
    induction = put("induction.json", "induction", gen.rand_chi(ctx, rng))
    global_series = put("global.json", "series", _exact(_rand_series(ctx, rng, 0, max_deg=4)))
    coker = []
    for good in (True, False):
        c1, c2 = _cokernel_pair(ctx, rng, good)
        coker.append((put(f"coker{int(good)}a.json", "cokernel", c1),
                      put(f"coker{int(good)}b.json", "cokernel", c2), good))
    wit = []
    for k in (3, 4):
        chi = gen.rand_chi(ctx, rng, k)
        wit.append(["--alpha", chi.alpha.to_string(), "--beta", chi.beta.to_string(),
                    "--k", str(k)])
    small = PadicContext(p=5, N=20, D=32)
    mismatch = put("small.json", "series", TateSeries(small, 1, [0, 1]), context=small)
    malformed = os.path.join(fixtures, "malformed.json")
    with open(malformed, "w", encoding="utf-8") as fh:
        fh.write('{"context": {"p": 5, "N": 40, "D": 64}, "kind": "series", "payload": ')
    missing = os.path.join(fixtures, "missing.json")
    act_out = os.path.join(fixtures, "act.out.json")
    wit_out = os.path.join(fixtures, "witness.out.json")

    ops: List[Op] = []

    def req(kind, argv, want=EXIT_OK, payload=None, out_file=None, known_crash=None,
            check=None):
        fmt = argv[1] if argv[0] == "--format" else "json"
        ops.append(Op(f"cli.{kind}", lambda: _run_cli(argv, out_file),
                      check or _check_cli(want, fmt, payload), known_crash))

    formats = ("json", "text", "csv")
    for fmt, param in zip(formats, params):
        req("classify", ["--format", fmt, "classify", param])
    for fmt, (path, m) in zip(formats, series):
        req("verify-bounds", ["--format", fmt, "verify-bounds", path, "-m", str(m)],
            payload=_report_is("ok", True))
    for fmt, (path, h) in zip(formats, steps):
        req("analytic-level", ["--format", fmt, "analytic-level", path],
            payload=_report_is("min_level", h))
    for fmt, (a, b, good) in zip(("json", "json", "text", "csv"), coker + coker):
        req("cokernel-eq", ["--format", fmt, "cokernel-eq", a, b],
            payload=_report_is("equal", good))
    for i, fam in enumerate(SELFTEST_FAMILIES):
        fmt = formats[i % 3]
        req("selftest", ["--format", fmt, "--seed", str(seed_flag), "selftest",
                         "--only", fam + "/", "--count", "1"],
            check=_check_selftest(ctx, seed_flag, fam + "/", fmt))
    req("act", ["act", matrix, steps[0][0], induction],
        payload=_report_is("kind", "function"))
    req("act", ["act", matrix, global_series, induction, "--out", act_out],
        payload=_report_is("kind", "series"), out_file=act_out)
    req("witness", ["witness"] + wit[0], payload=_report_is("kind", "cokernel"))
    req("witness", ["witness"] + wit[1] + ["--out", wit_out],
        payload=_report_is("kind", "cokernel"), out_file=wit_out)

    s1 = series[0][0]
    req("bad-flag", ["--p", "abc", "classify", params[0]], EXIT_USAGE)
    req("bad-flag", ["verify-bounds", s1, "-m", "x"], EXIT_USAGE)
    req("bad-flag", ["--p", "4", "classify", params[0]], EXIT_USAGE)
    req("bad-tamper", ["verify-bounds", s1, "-m", "1", "--tamper", "bogus"], EXIT_USAGE)
    req("bad-tamper", ["verify-bounds", s1, "-m", "1", "--tamper", "mobius:999"], EXIT_USAGE,
        known_crash="out-of-range --tamper index raises IndexError")
    req("bad-witness", ["witness", "--alpha", "abc", "--beta", "5", "--k", "3"], EXIT_USAGE,
        known_crash="non-numeric --alpha raises ValueError")
    req("bad-witness", ["witness", "--alpha", "1/0", "--beta", "5", "--k", "3"], EXIT_USAGE,
        known_crash="--alpha 1/0 raises ZeroDivisionError")
    req("bad-witness", ["witness", "--alpha", "25", "--beta", "5", "--k", "1"], EXIT_USAGE)
    req("mismatch", ["verify-bounds", mismatch, "-m", "1"], EXIT_MISMATCH)
    req("mismatch", ["--p", "7", "classify", params[1]], EXIT_MISMATCH)
    req("mismatch", ["classify", s1], EXIT_MISMATCH)
    req("unreadable", ["classify", missing], EXIT_USAGE)
    req("unreadable", ["analytic-level", fixtures], EXIT_USAGE)
    req("unreadable", ["verify-bounds", malformed, "-m", "1"], EXIT_USAGE)
    req("domain", ["verify-bounds", s1, "-m", "2"], EXIT_DOMAIN)
    req("domain", ["analytic-level", s1], EXIT_DOMAIN)
    return ops


#: workload -> (recipe, copies, cycle seconds).  A cycle is `copies`
#: independent draws of the recipe's operation list: more distinct inputs per
#: cycle make the figures depend less on the particular inputs a seed draws.
#: The cycle seconds are the time of one cycle on the reference host (a
#: shared 2-vCPU virtual machine) in its fast state, the time base of the
#: scaled figures; a run of `--seconds s` runs round(s / cycle seconds)
#: cycles, so how many operations it attempts does not depend on how fast
#: the host happens to be.
WORKLOADS = {
    "series-orbit": (build_series_orbit, 2, 1.2),
    "piecewise-act": (build_piecewise_act, 3, 3.4),
    "membership-ladder": (build_membership_ladder, 8, 2.1),
    "cli-files": (build_cli_files, 12, 2.1),
}


def cycles(name: str, seconds: float) -> int:
    """Whole cycles in a run of `seconds` on the reference host (at least 1)."""
    return max(1, round(seconds / WORKLOADS[name][2]))


def build(name: str, ctx: PadicContext, seed: int, fixtures: str) -> List[Op]:
    """The workload's cycle for this seed; fixture files go under `fixtures`."""
    recipe, copies, _ = WORKLOADS[name]
    rng = random.Random(f"{seed}/{name}")
    ops: List[Op] = []
    for copy in range(copies):
        directory = os.path.join(fixtures, str(copy))
        os.mkdir(directory)
        ops += recipe(ctx, rng, directory)
    return ops


# -- output digest -------------------------------------------------------------------


def canonical(value):
    """A plain, hashable-by-repr rendering of an operation's output."""
    if isinstance(value, PadicNumber):
        return (value.val, value.unit)
    if isinstance(value, TateSeries):
        return ("S", value.m, value.tail_bound, [canonical(c) for c in value.coeffs])
    if isinstance(value, PiecewiseFunction):
        return (type(value).__name__,
                [(lf.center, lf.level, canonical(lf.series)) for lf in value.leaves])
    if isinstance(value, WeylCellVector):
        return ("W", canonical(value.identity), canonical(value.w0))
    if isinstance(value, analytic.BoundReport):
        return value.to_dict()
    if isinstance(value, Verdict):
        return value.name
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value
