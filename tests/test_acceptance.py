"""Package-level acceptance checks, one test per criterion.

Every test appends exactly one PASS/FAIL line to the session acceptance
log, which the terminal summary prints after the run.  Failures also
fail the test itself with the same line.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import rigidpadic
from rigidpadic.actions import I1, InductionCharacter, IwahoriElement, act
from rigidpadic.analytic import (
    CokernelElement,
    GAElement,
    WeylCellVector,
    bound_report,
    cokernel_equal,
    is_analytic_vector,
    orbit_membership,
    witness_nonzero,
)
from rigidpadic.errors import DomainError
from rigidpadic.functions import Leaf, PiecewiseFunction, StepFunction
from rigidpadic.galois import (
    ContinuousCharacter,
    FilteredPhiModule,
    TriangulineParam,
    abs_x_character,
    ext1_dimension,
    in_S_cris,
    in_S_star,
    weight,
    x_character,
)
from rigidpadic.padic import INF
from rigidpadic.series import TateSeries
from rigidpadic.verdict import Verdict


def _conclude(log, num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    log.append(line)
    assert ok, line


def _certified_series(ctx, rng, m):
    """Random series whose stored levels all sit on or above the tail
    bound, the certification the bound suite is entitled to assume."""
    deg = rng.randint(0, 10)
    T = rng.randint(-2, 2)
    coeffs = []
    for l in range(deg + 1):
        if rng.random() < 0.15:
            coeffs.append(0)
            continue
        need = max(0, T - m * l)
        coeffs.append(rng.choice([-1, 1]) * rng.randrange(1, 5 ** 4) * 5 ** need)
    tail = INF if rng.random() < 0.3 else T
    return TateSeries(ctx, m, coeffs, tail)


def _chi(ctx, k):
    if k == 2:
        return InductionCharacter(ctx.from_int(5), ctx.from_int(2), k, strict=False)
    return InductionCharacter(
        ctx.from_int(5 ** (k - 2) * 3), ctx.from_int(5), k, strict=False
    )


def _rand_i1(ctx, rng):
    while True:
        try:
            return IwahoriElement(
                ctx,
                1 + 5 * rng.randrange(0, 125),
                5 * rng.randrange(0, 125),
                rng.randrange(0, 125),
                1 + 5 * rng.randrange(0, 125),
                I1,
            )
        except DomainError:
            continue


def _rand_gm(ctx, rng, m):
    pm = ctx.p ** m
    while True:
        try:
            return IwahoriElement(
                ctx,
                1 + pm * rng.randrange(0, 40),
                pm * rng.randrange(0, 40),
                pm * rng.randrange(0, 40),
                1 + pm * rng.randrange(0, 40),
                m,
            )
        except DomainError:
            continue


def _split_ball(ctx, hot_center, level):
    p = ctx.p
    inner = [
        Leaf(
            i * p ** (level - 1),
            level,
            TateSeries.constant(ctx, level, 1 if i * p ** (level - 1) == hot_center else 0),
        )
        for i in range(p)
    ]
    outer = [
        Leaf(i * p ** (lev - 1), lev, TateSeries.constant(ctx, lev, 0))
        for lev in range(level - 1, 0, -1)
        for i in range(1, p)
    ]
    return PiecewiseFunction(ctx, inner + outer)


def test_criterion_1_valuation_bounds(ctx, acceptance_log):
    rng = random.Random(101)
    start = time.monotonic()
    total = 0
    worst = INF
    ok = True
    for m in (1, 2, 3):
        for _ in range(70):
            f = _certified_series(ctx, rng, m)
            rep = bound_report(f, m)
            total += 1
            for e in rep.entries:
                if e.margin is INF:
                    continue
                worst = e.margin if worst is INF else min(worst, e.margin)
                if e.margin < 0:
                    ok = False
    elapsed = time.monotonic() - start
    ok = ok and total >= 200 and elapsed < 10.0
    _conclude(
        acceptance_log, 1, "valuation bounds", ok,
        f"{total} certified series at m=1,2,3; worst finite margin {worst}; {elapsed:.2f}s",
    )


def test_criterion_2_action_coherence(ctx, acceptance_log):
    rng = random.Random(103)
    start = time.monotonic()
    pairs = 0
    points = 0
    ok = True
    # kappa = 8 is the loosest slack the criterion admits
    threshold = ctx.N - 8
    for _ in range(100):
        g, h = _rand_i1(ctx, rng), _rand_i1(ctx, rng)
        chi = _chi(ctx, rng.randint(2, 5))
        f = TateSeries(
            ctx, 0,
            [rng.randrange(-(5 ** 4), 5 ** 4) for _ in range(rng.randint(1, 7))],
        )
        once = act(g @ h, f, chi)
        twice = act(g, act(h, f, chi), chi)
        if not once.agrees_mod(twice, threshold):
            ok = False
        for _ in range(20):
            z = ctx.from_int(rng.randrange(-(5 ** 6), 5 ** 6))
            if not once.evaluate(z).agrees_with(twice.evaluate(z)):
                ok = False
            points += 1
        pairs += 1
    elapsed = time.monotonic() - start
    ok = ok and pairs >= 100 and elapsed < 20.0
    _conclude(
        acceptance_log, 2, "action coherence", ok,
        f"{pairs} I(1) pairs to p^{threshold}, {points} sample points; {elapsed:.2f}s",
    )


def test_criterion_3_isometry(ctx, acceptance_log):
    rng = random.Random(107)
    start = time.monotonic()
    cases = 0
    ok = True
    for m in (1, 2, 3):
        for _ in range(35):
            coeffs = [rng.randrange(-(5 ** 5), 5 ** 5) for _ in range(6)]
            f = TateSeries(ctx, m, coeffs, tail_bound=8 * m)
            g = _rand_gm(ctx, rng, m)
            out = act(g, f, _chi(ctx, rng.randint(2, 5)))
            if out.m != m or out.val_c() != f.val_c():
                ok = False
            cases += 1
    elapsed = time.monotonic() - start
    ok = ok and cases >= 100 and elapsed < 5.0
    _conclude(
        acceptance_log, 3, "isometry", ok,
        f"{cases} elements of G(m), m=1,2,3, zero tolerance; {elapsed:.2f}s",
    )


def test_criterion_4_membership_equivalence(ctx, acceptance_log):
    rng = random.Random(109)
    start = time.monotonic()
    cases = []
    for _ in range(25):
        f = PiecewiseFunction.from_global_series(
            TateSeries(ctx, 0, [rng.randrange(-99, 99) for _ in range(4)])
        ).refine(rng.randint(1, 2))
        cases.append((f, rng.randint(1, 2)))
    for h in (1, 2, 3):
        cases.append((StepFunction.indicator_ball(ctx, h), h))
    for h in (2, 3):
        cases.append((StepFunction.indicator_ball(ctx, h), h - 1))
    for i in range(10):
        lev = 2 + (i % 2)
        hot = (1 + (i % 4)) * 5 ** (lev - 1)
        cases.append((_split_ball(ctx, hot, lev), lev - 1))
    for h in (1, 2):
        cases.append((StepFunction.indicator_ball(ctx, h).refine(h + 1), h))
    for c in (3, 7, 11):
        cases.append((PiecewiseFunction.constant(ctx, c), rng.randint(0, 2)))
    for r in (1, 2, 3, 4):
        cases.append((_split_ball(ctx, r, 1), 1))
    cases.append((_split_ball(ctx, 0, 1), 0))
    cases.append((_split_ball(ctx, 0, 2), 1))
    cases.append((StepFunction.indicator_ball(ctx, 1), 3))
    agree = True
    negatives = 0
    for f, m in cases:
        a = is_analytic_vector(f, m)
        b = orbit_membership(f, m)
        # the same leaves with no coarse partition take the re-expansion route
        if a is not b or is_analytic_vector(PiecewiseFunction(ctx, f.leaves), m) is not b:
            agree = False
        if a is Verdict.NO:
            negatives += 1
    elapsed = time.monotonic() - start
    ok = agree and len(cases) >= 50 and negatives >= 10 and elapsed < 10.0
    _conclude(
        acceptance_log, 4, "membership equivalence", ok,
        f"{len(cases)} instances, {negatives} negatives, two routes strict; {elapsed:.2f}s",
    )


def test_criterion_5_classification_tables(ctx, acceptance_log):
    start = time.monotonic()
    x = x_character(ctx)
    absx = abs_x_character(ctx)
    trivial = ContinuousCharacter.trivial(ctx)
    ext_rows = [
        (x ** 0, 2), (x ** -1, 2), (x ** -2, 2), (x ** -7, 2),
        (absx * x, 2), (absx * x ** 3, 2), (absx * x ** 6, 2),
        (absx, 1), (x, 1), (x ** 2, 1),
        (ContinuousCharacter.unramified(ctx, 2), 1),
        (ContinuousCharacter(ctx.from_int(5), 3, ctx.one()), 1),
    ]
    ext_ok = all(
        ext1_dimension(q, trivial).dimension == dim for q, dim in ext_rows
    )

    def chr(value, tame, wild_power):
        return ContinuousCharacter(
            ctx.from_fraction(Fraction(value)), tame, ctx.from_int(6) ** wild_power
        )

    inv25 = Fraction(1, 25)
    inv5 = Fraction(1, 5)
    inv125 = Fraction(1, 125)
    # (delta1, delta2, scriptL, expect star, expect u<w and L=inf)
    cris_rows = [
        (chr(5, 1, 2), absx, "inf", True, True),       # u=1 < w=2
        (chr(5, 1, 1), absx, "inf", True, False),      # u=1 = w=1
        (chr(5, 1, 2), absx, "0", True, False),        # finite coordinate
        (x, x, "inf", False, False),                   # valuation sum != 0
        (trivial, trivial, "inf", False, False),       # flat first valuation
        (chr(25, 0, 3), chr(inv25, 0, 0), "inf", True, True),   # u=2 < w=3
        (chr(25, 0, 2), chr(inv25, 0, 0), "inf", True, False),  # u=2 = w=2
        (chr(5, 1, 0), chr(inv5, 0, 1), "inf", True, False),    # w = -1
        (chr(5, 0, 4), absx, "inf", True, True),       # u=1 < w=4
        (chr(5, 1, 1), chr(inv5, 2, 0), "inf", True, False),    # u=1 = w=1
        (chr(5, 1, 5), absx, "inf", True, True),       # u=1 < w=5
        (chr(125, 1, 2), chr(inv125, 0, 0), "inf", True, False),  # u=3 > w=2
    ]
    cris_ok = True
    for d1, d2, coord, want_star, want_cris in cris_rows:
        s = TriangulineParam(d1, d2, scriptL=coord)
        if in_S_star(s).is_member != want_star:
            cris_ok = False
        want = Verdict.YES if want_cris else Verdict.NO
        if in_S_cris(s).status is not want:
            cris_ok = False
    elapsed = time.monotonic() - start
    ok = ext_ok and cris_ok and len(ext_rows) >= 12 and len(cris_rows) >= 12 and elapsed < 1.0
    _conclude(
        acceptance_log, 5, "classification tables", ok,
        f"{len(ext_rows)} extension rows, {len(cris_rows)} crystalline rows; {elapsed:.3f}s",
    )


def test_criterion_6_filtered_module(ctx, acceptance_log):
    start = time.monotonic()
    ok = True
    for k in (2, 3, 4, 5):
        va = max(k - 2, 1)
        vb = max(k - 1 - va, 1)
        mod = FilteredPhiModule(
            ctx.from_int(5 ** va * 2), ctx.from_int(5 ** vb * 3), k
        )
        for i in range(-(k + 1), 3):
            dim, basis = mod.fil_dimension(i)
            if i <= -(k - 1):
                if dim != 2:
                    ok = False
            elif i <= 0:
                if dim != 1 or basis != ("e_alpha + e_beta",):
                    ok = False
            elif dim != 0:
                ok = False
        if mod.hodge_tate_weights() != {0, k - 1}:
            ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _conclude(
        acceptance_log, 6, "filtered module", ok,
        f"k in 2..5, three-step display and weights {{0, k-1}}; {elapsed:.3f}s",
    )


def test_criterion_7_nonzero_witness(ctx, acceptance_log):
    start = time.monotonic()
    ok = True
    for k in (2, 3):
        elem, proof = witness_nonzero(
            ctx, ctx.from_int(10), ctx.from_int(15), k, 1, 2
        )
        zero = CokernelElement(
            elem.chi, 1, 2, GAElement.zero(ctx, 1, 2), GAElement.zero(ctx, 1, 2)
        )
        if cokernel_equal(elem, zero):
            ok = False
        if proof["alpha_difference_zero"] is not False:
            ok = False
    rng = random.Random(113)
    base, _ = witness_nonzero(ctx, ctx.from_int(10), ctx.from_int(15), 3, 1, 2)
    pool = []
    for _ in range(10):
        shift = PiecewiseFunction.from_global_series(
            TateSeries(
                ctx, 0,
                [rng.randrange(-9, 9), rng.randrange(-2, 2), rng.randrange(0, 3)],
            )
        )
        vec = WeylCellVector(
            base.F_beta.vector.identity + shift,
            base.F_beta.vector.w0 + shift,
        )
        pool.append(
            CokernelElement(
                base.chi, base.n, base.m,
                base.F_alpha, GAElement(vec, base.n, base.m),
            )
        )
    triples = 0
    for _ in range(50):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if not cokernel_equal(a, a):
            ok = False
        ab, ba = cokernel_equal(a, b), cokernel_equal(b, a)
        if ab != ba:
            ok = False
        if ab and cokernel_equal(b, c) and not cokernel_equal(a, c):
            ok = False
        triples += 1
    elapsed = time.monotonic() - start
    ok = ok and triples >= 50 and elapsed < 10.0
    _conclude(
        acceptance_log, 7, "nonzero witness", ok,
        f"k=2,3 at n=1, m=2; equivalence on {triples} triples; {elapsed:.2f}s",
    )


def test_criterion_8_weight_arithmetic(ctx, acceptance_log):
    start = time.monotonic()
    ok = weight(x_character(ctx)) == ctx.one()
    ok = ok and weight(abs_x_character(ctx)).is_zero
    rng = random.Random(127)

    def rand_character():
        e = rng.randrange(-2, 3)
        u = rng.randrange(1, 5 ** 5)
        if u % 5 == 0:
            u += 1
        value = Fraction(u * 5 ** max(e, 0), 5 ** max(-e, 0))
        wild = 1 + 5 * rng.randrange(0, 5 ** 6)
        return ContinuousCharacter(
            ctx.from_fraction(value), rng.randrange(0, 4), ctx.from_int(wild)
        )

    pairs = 0
    for _ in range(50):
        a, b = rand_character(), rand_character()
        if not weight(a * b).agrees_with(weight(a) + weight(b)):
            ok = False
        pairs += 1
    elapsed = time.monotonic() - start
    ok = ok and pairs >= 50 and elapsed < 5.0
    _conclude(
        acceptance_log, 8, "weight arithmetic", ok,
        f"weight(x)=1, weight(|x|)=0, additivity on {pairs} pairs; {elapsed:.2f}s",
    )


def _module_command(*args):
    """`python -m rigidpadic ARGS` with PYTHONPATH led by the directory
    that holds the imported package, so the subprocess runs the code
    under test whether or not the package is installed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rigidpadic.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))
    return [sys.executable, "-m", "rigidpadic", *args], env


def _stderr_tail(stderr, lines=3):
    text = (stderr or b"").decode(errors="replace").strip()
    return " | ".join(text.splitlines()[-lines:])


def test_criterion_9_selftest_determinism(acceptance_log):
    budget = 120.0
    cmd, env = _module_command("--seed", "11", "selftest")
    start = time.monotonic()
    runs, error = [], None
    try:
        for _ in range(2):
            left = budget - (time.monotonic() - start)
            runs.append(subprocess.run(cmd, capture_output=True, env=env, timeout=left))
    except (OSError, subprocess.TimeoutExpired) as exc:
        error = exc
    elapsed = time.monotonic() - start
    ok = (
        error is None
        and runs[0].returncode == 0
        and runs[1].returncode == 0
        and runs[0].stdout == runs[1].stdout
        and elapsed < budget
    )
    if ok:
        detail = f"two full runs, {len(runs[0].stdout)} bytes each, byte-identical; {elapsed:.1f}s"
    else:
        parts = [
            f"run {i} exit {run.returncode}, {len(run.stdout)} bytes, stderr: {_stderr_tail(run.stderr)!r}"
            for i, run in enumerate(runs, 1)
        ]
        if error is not None:
            stderr = _stderr_tail(getattr(error, "stderr", None))
            parts.append(f"run {len(runs) + 1} did not finish: {error}, stderr: {stderr!r}")
        elif runs[0].stdout != runs[1].stdout:
            parts.append("stdout differs")
        parts.append(f"{elapsed:.1f}s of {budget:.0f}s")
        detail = "; ".join(parts)
    _conclude(acceptance_log, 9, "selftest determinism", ok, detail)
