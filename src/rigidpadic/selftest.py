"""Seeded property suites behind the `selftest` command.

Case i of suite S draws from random.Random(f"{seed}/{S}/{i}"), so every
case is a pure function of (seed, suite name, index): reports are
byte-identical across runs and failures replay in isolation.  Reports
carry no timestamps for the same reason.

Each suite checks one documented invariant; a case function returns
None on success or a short failure description, and the harness
records the first failing case per suite.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from . import analytic, galois
from .actions import (
    InductionCharacter,
    IwahoriElement,
    I1,
    WeylCellVector,
    act,
    act_cell,
    act_locally_algebraic,
    act_smooth,
)
from .errors import ParameterError, RigidPadicError
from .functions import (
    Leaf,
    LocallyAlgebraicFunction,
    PiecewiseFunction,
    StepFunction,
    is_member_Can,
    is_member_pi_an,
    mahler_coefficients,
)
from .padic import PadicContext, PadicNumber, padic_log
from .series import TateSeries, twisted_mobius
from .verdict import Verdict

CaseFn = Callable[[PadicContext, random.Random], Optional[str]]


# -- random generators ---------------------------------------------------------


def rand_padic(
    ctx: PadicContext,
    rng: random.Random,
    lo: int = -3,
    hi: int = 6,
    zero_weight: float = 0.1,
) -> PadicNumber:
    if rng.random() < zero_weight:
        return ctx.zero()
    val = rng.randint(lo, hi)
    return PadicNumber(ctx, val, _rand_unit_int(ctx, rng))


def _rand_unit_int(ctx: PadicContext, rng: random.Random) -> int:
    u = rng.randrange(1, ctx.pN)
    while u % ctx.p == 0:
        u = rng.randrange(1, ctx.pN)
    return u


def rand_in_ball(ctx: PadicContext, rng: random.Random, m: int) -> PadicNumber:
    """Random element of p^m Z_p, zero included."""
    r = rng.randrange(ctx.p ** min(8, ctx.N))
    return ctx.from_int(r * ctx.p ** m)


def rand_one_plus(ctx: PadicContext, rng: random.Random, m: int) -> PadicNumber:
    m = max(m, 1)
    return ctx.from_int(1 + ctx.p ** m * rng.randrange(ctx.p ** 6))


def rand_series(
    ctx: PadicContext,
    rng: random.Random,
    m: int,
    max_deg: int = 10,
    lo: int = -2,
) -> TateSeries:
    """Certified series: tail bound T with all stored levels >= T."""
    deg = rng.randint(0, min(max_deg, ctx.D))
    T = rng.randint(lo, lo + 4)
    coeffs = []
    for l in range(deg + 1):
        if rng.random() < 0.15:
            coeffs.append(ctx.zero())
            continue
        v = max(T - m * l, lo) + rng.randint(0, 3)
        coeffs.append(PadicNumber(ctx, v, _rand_unit_int(ctx, rng)))
    return TateSeries(ctx, m, coeffs, T)


def rand_iwahori(ctx: PadicContext, rng: random.Random, level) -> IwahoriElement:
    p = ctx.p
    span = p ** 5
    # I(1) leaves c in Z_p; G(m) puts all four entries in p**m Z_p
    q = p if level == I1 else p ** level
    a = ctx.from_int(1 + q * rng.randrange(span))
    d = ctx.from_int(1 + q * rng.randrange(span))
    b = ctx.from_int(q * rng.randrange(span))
    c = ctx.from_int((1 if level == I1 else q) * rng.randrange(span))
    return IwahoriElement(ctx, a, b, c, d, level)


def rand_refined_global(
    ctx: PadicContext, rng: random.Random, level: int, max_deg: int = 6
) -> PiecewiseFunction:
    base = rand_series(ctx, rng, 0, max_deg=max_deg, lo=0)
    return PiecewiseFunction.from_global_series(base).refine(level)


def _full_route(f: PiecewiseFunction) -> PiecewiseFunction:
    """The same leaves with no coarse partition, so that is_member_Can
    re-expands every in-ball leaf of a refined function."""
    return PiecewiseFunction(f.ctx, f.leaves)


def rand_character(ctx: PadicContext, rng: random.Random) -> galois.ContinuousCharacter:
    value = rand_padic(ctx, rng, -3, 3, zero_weight=0.0)
    tame = rng.randrange(ctx.p - 1)
    wild = ctx.from_int(1 + ctx.p * rng.randrange(ctx.p ** 6))
    return galois.ContinuousCharacter(value, tame, wild)


def rand_chi(ctx: PadicContext, rng: random.Random, k: Optional[int] = None) -> InductionCharacter:
    k = k if k is not None else rng.randint(2, 5)
    va = max(k - 2, 1)
    vb = k - 1 - va
    alpha = PadicNumber(ctx, va, _rand_unit_int(ctx, rng))
    beta = PadicNumber(ctx, max(vb, 1), _rand_unit_int(ctx, rng))
    return InductionCharacter(alpha, beta, k, strict=False)


# -- suite bodies --------------------------------------------------------------


def case_padic_valuation(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    # a zero's val is INF, so sums, min and < read it as +infinity
    x = rand_padic(ctx, rng)
    y = rand_padic(ctx, rng)
    got, want = (x * y).val, x.val + y.val
    if got != want:
        return f"valp(x*y) = {got}, expected {want}"
    vx, vy, vs = x.val, y.val, (x + y).val
    if vs < min(vx, vy):
        return f"valp(x+y) = {vs} below min({vx}, {vy})"
    if vx != vy and vs != min(vx, vy):
        return "strict minimum not attained by the sum"
    return None


def case_padic_log(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    u = rand_one_plus(ctx, rng, 1)
    v = rand_one_plus(ctx, rng, 1)
    lhs = padic_log(u * v)
    rhs = padic_log(u) + padic_log(v)
    if not lhs.agrees_with(rhs):
        return "log(uv) and log(u)+log(v) disagree"
    return None


def case_padic_invert(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    x = rand_padic(ctx, rng, zero_weight=0.0)
    if not x.invert().invert() == x:
        return "invert applied twice is not the identity"
    if not (x * x.invert()).agrees_with(ctx.one()):
        return "x * invert(x) differs from 1"
    return None


def _rand_gm_params(ctx: PadicContext, rng: random.Random, m: int):
    mm = max(m, 1)
    y = rand_in_ball(ctx, rng, mm)
    x = rand_in_ball(ctx, rng, mm)
    s = rand_one_plus(ctx, rng, mm)
    t = rand_one_plus(ctx, rng, mm)
    return y, x, s, t


def _generator_matrices(ctx: PadicContext, y, x, s, t, m: int) -> Dict[str, IwahoriElement]:
    """The one-parameter matrices of G(m) whose actions are f(z - y), f(s z),
    the mobius twist by x and f(z / t) t^(k-2)."""
    one, zero = ctx.one(), ctx.zero()
    return {
        "translate": IwahoriElement(ctx, one, zero, y, one, m),
        "dilate": IwahoriElement(ctx, s, zero, zero, one, m),
        "mobius_twist": IwahoriElement(ctx, one, x, zero, one, m),
        "inv_torus": IwahoriElement(ctx, one, zero, zero, t, m),
    }


def _weight(ctx: PadicContext, k: int) -> InductionCharacter:
    """A weight-k character; only k enters the action."""
    return InductionCharacter(ctx.one(), ctx.one(), k, strict=False)


def case_series_isometry(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    m = rng.randint(1, 3)
    f = rand_series(ctx, rng, m)
    y, x, s, t = _rand_gm_params(ctx, rng, m)
    chi = _weight(ctx, rng.randint(2, 5))
    before = f.val_c()
    for name, g in _generator_matrices(ctx, y, x, s, t, m).items():
        out = act(g, f, chi)
        if out.val_c() != before:
            return f"{name} moved val_C from {before} to {out.val_c()}"
    return None


def case_series_substitution(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    m = rng.randint(1, 2)
    f = rand_series(ctx, rng, m, max_deg=8, lo=0)
    y, x, s, t = _rand_gm_params(ctx, rng, m)
    k = rng.randint(2, 4)
    z = rand_in_ball(ctx, rng, m)
    one, chi = ctx.one(), _weight(ctx, k)
    wants = [
        f.evaluate(z - y),
        f.evaluate(s * z),
        f.evaluate(z / (one - x * z)) * (one - x * z) ** (k - 2),
        f.evaluate(z / t) * t ** (k - 2),
    ]
    for (name, g), want in zip(_generator_matrices(ctx, y, x, s, t, m).items(), wants):
        if not act(g, f, chi).evaluate(z).agrees_with(want):
            return f"{name} evaluation mismatch at a sample point"
    return None


def case_series_subadditive(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    m = rng.randint(0, 2)
    f = rand_series(ctx, rng, m)
    g = rand_series(ctx, rng, m)
    if (f * g).val_c() < f.val_c() + g.val_c():
        return "val_C(f*g) below val_C(f) + val_C(g)"
    if (f + g).val_c() < min(f.val_c(), g.val_c()):
        return "val_C(f+g) below min of the parts"
    return None


def case_series_recenter(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    m = rng.randint(0, 2)
    f = rand_series(ctx, rng, m, max_deg=8, lo=0)
    new_m = m + rng.randint(0, 2)
    a = rand_in_ball(ctx, rng, m)
    zp = rand_in_ball(ctx, rng, new_m)
    g = f.recenter(a, new_m)
    if not g.evaluate(zp).agrees_with(f.evaluate(a + zp)):
        return "recentered series evaluates differently"
    return None


def case_functions_partition(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    level = rng.randint(1, 3)
    f = rand_refined_global(ctx, rng, level)
    if len(f.leaves) != ctx.p ** level:
        return f"refined partition has {len(f.leaves)} leaves, expected {ctx.p ** level}"
    return None


def case_functions_refine_eval(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    base = rand_series(ctx, rng, 0, max_deg=6, lo=0)
    f = PiecewiseFunction.from_global_series(base)
    g = f.refine(rng.randint(1, 3))
    for _ in range(5):
        z = ctx.from_int(rng.randrange(ctx.p ** 6))
        if not f.evaluate(z).agrees_with(g.evaluate(z)):
            return "refinement changed a sampled value"
    return None


def case_functions_monotone(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    m = rng.randint(1, 2)
    f = rand_refined_global(ctx, rng, m + rng.randint(0, 1))
    for g in (f, _full_route(f)):
        low = is_member_Can(g, m).status
        high = is_member_Can(g, m + 1).status
        if low is Verdict.YES and high is not Verdict.YES:
            return f"membership lost going from level {m} to {m + 1}"
    return None


def case_functions_mahler(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    f = rand_refined_global(ctx, rng, rng.randint(1, 2), max_deg=4)
    count = rng.randint(2, 8)
    cs = mahler_coefficients(f, count)
    for j in range(count):
        total = ctx.zero()
        for n in range(count):
            total = total + cs[n] * ctx.binom(j, n)
        # the two routes truncate differently, so compare at precision
        if not total.agrees_with(f.evaluate(ctx.from_int(j))):
            return f"Mahler reconstruction fails at j = {j}"
    return None


def case_actions_assoc_series(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    chi = rand_chi(ctx, rng)
    g = rand_iwahori(ctx, rng, I1)
    h = rand_iwahori(ctx, rng, I1)
    f = rand_series(ctx, rng, 0, max_deg=8, lo=0)
    once = act(g @ h, f, chi)
    twice = act(g, act(h, f, chi), chi)
    # degree-D truncation of composite substitutions leaves residue of
    # bounded absolute size, so the routes match mod p**(N - kappa) only
    if not once.agrees_mod(twice, ctx.N - 2 * ctx.kappa):
        return "series action fails the cocycle identity"
    return None


def case_actions_assoc_cell(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    chi = rand_chi(ctx, rng)
    g = rand_iwahori(ctx, rng, 1)
    h = rand_iwahori(ctx, rng, 1)
    vec = WeylCellVector(
        rand_refined_global(ctx, rng, 1, max_deg=4),
        rand_refined_global(ctx, rng, 1, max_deg=4),
    )
    once = act_cell(g @ h, vec, chi)
    twice = act_cell(g, act_cell(h, vec, chi), chi)
    for a, b in ((once.identity, twice.identity), (once.w0, twice.w0)):
        if not a.agrees_mod(b, ctx.N - 2 * ctx.kappa):
            return "cell action fails the cocycle identity"
    return None


def case_actions_smooth(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    g = rand_iwahori(ctx, rng, I1)
    h = rand_iwahori(ctx, rng, I1)
    f = StepFunction.indicator_ball(ctx, rng.randint(1, 2))
    once = act_smooth(g @ h, f)
    twice = act_smooth(g, act_smooth(h, f))
    if not isinstance(once, StepFunction):
        return "smooth action left the locally constant model"
    if not once.agrees_with(twice):
        return "smooth action fails the cocycle identity"
    return None


def case_actions_degree(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    for k in range(2, 7):
        chi = rand_chi(ctx, rng, k)
        x = ctx.from_int(ctx.p * rng.randrange(1, ctx.p ** 3))
        g = IwahoriElement(ctx, ctx.one(), x, ctx.zero(), ctx.one(), I1)
        for j in range(k - 1):
            base = TateSeries.monomial(ctx, 0, j)
            f = LocallyAlgebraicFunction(ctx, [Leaf(0, 0, base)], k)
            out = act_locally_algebraic(g, f, chi)
            lf = out.leaves[0]
            if lf.series.degree > k - 2:
                return f"degree bound broken at k = {k}, monomial z^{j}"
            want = TateSeries.monomial(ctx, 0, j) * twisted_mobius(
                TateSeries.constant(ctx, 0, 1), ctx.one(), x, k - 2 - j
            )
            if not lf.series.agrees_with(want):
                return f"twisted monomial image wrong at k = {k}, j = {j}"
    return None


def case_actions_factorize(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    g = rand_iwahori(ctx, rng, rng.choice([I1, 1, 2]))
    # g = [[1, 0], [y, 1]] diag(a, t) [[1, x], [0, 1]], each factor rounded
    y, t, x = g.c / g.a, g.d - g.c * g.b / g.a, g.b / g.a
    lower = IwahoriElement(ctx, ctx.one(), ctx.zero(), y, ctx.one(), I1)
    diag = IwahoriElement(ctx, g.a, ctx.zero(), ctx.zero(), t, I1)
    upper = IwahoriElement(ctx, ctx.one(), x, ctx.zero(), ctx.one(), I1)
    back = lower @ diag @ upper
    for name in "abcd":
        if not getattr(back, name).agrees_with(getattr(g, name)):
            return f"factorization round-trip differs in entry {name}"
    return None


def case_actions_level(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    m = rng.randint(1, 3)
    g = rand_iwahori(ctx, rng, m)
    chi = rand_chi(ctx, rng)
    f = rand_series(ctx, rng, m)
    out = act(g, f, chi)
    if out.m != m:
        return f"action moved the ball level from {m} to {out.m}"
    if out.val_c() != f.val_c():
        return "G(m) action is not an isometry"
    return None


def case_orbit_reconstruction(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    m = rng.randint(1, 2)
    f = rand_series(ctx, rng, m, max_deg=6, lo=0)
    z = rand_in_ball(ctx, rng, m)
    y, x, s, t = _rand_gm_params(ctx, rng, m)
    gens, chi = _generator_matrices(ctx, y, x, s, t, m), _weight(ctx, 2)
    plans = [
        ("translation", analytic.orbit_translation(f, m), y, gens["translate"]),
        ("mobius", analytic.orbit_mobius(f, m), x, gens["mobius_twist"]),
        ("dilation", analytic.orbit_dilation(f, m), s - ctx.one(), gens["dilate"]),
        ("inv_torus", analytic.orbit_inv_torus(f, m), t - ctx.one(), gens["inv_torus"]),
    ]
    for name, exp, param, g in plans:
        reference = act(g, f, chi)
        total = ctx.zero()
        power = ctx.one()
        for comp in exp.components:
            if not power.is_zero:
                total = total + power * comp.evaluate(z)
            power = power * param
        if not total.agrees_with(reference.evaluate(z)):
            return f"{name} expansion does not rebuild the action at a sample point"
    return None


def case_orbit_bounds(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    m = rng.randint(1, 3)
    f = rand_series(ctx, rng, m)
    report = analytic.bound_report(f, m)
    if not report.ok:
        bad = report.first_violation()
        return f"orbit bound violated at {bad.family}[{bad.index}]"
    return None


def case_orbit_tail_growth(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    m = rng.randint(1, 3)
    f = rand_series(ctx, rng, m)
    floor = f.val_c()
    for fam, exp in analytic.expand_all(f, m).items():
        last_finite = -1
        for v, comp in enumerate(exp.components):
            lhs = comp.stored_val_c() + m * v
            if lhs < floor:
                return f"{fam}[{v}] breaks the uniform tail bound"
            if lhs < floor + 10:
                last_finite = v
        if fam in ("translation", "dilation") and last_finite > f.degree:
            return f"{fam} keeps low-valuation terms beyond the stored degree"
    return None


def case_analytic_monotone(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    m = rng.randint(1, 2)
    f = rand_refined_global(ctx, rng, m + rng.randint(0, 1), max_deg=5)
    for g in (f, _full_route(f)):
        if analytic.is_analytic_vector(g, m) is Verdict.YES:
            if analytic.is_analytic_vector(g, m + 1) is not Verdict.YES:
                return f"analyticity lost from level {m} to {m + 1}"
    return None


def _perturb_one_inball_leaf(
    ctx: PadicContext, rng: random.Random, f: PiecewiseFunction, m: int
) -> PiecewiseFunction:
    targets = [lf for lf in f.leaves_in_ball(m)]
    chosen = targets[rng.randrange(len(targets))]
    bump = TateSeries.constant(ctx, chosen.level, ctx.p ** rng.randint(0, 2))
    leaves = [
        Leaf(lf.center, lf.level, lf.series + bump if lf is chosen else lf.series)
        for lf in f.leaves
    ]
    return PiecewiseFunction(ctx, leaves)


def case_analytic_two_routes(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    m = rng.randint(1, 2)
    f = rand_refined_global(ctx, rng, m + 1, max_deg=5)
    if rng.random() < 0.5:
        f = _perturb_one_inball_leaf(ctx, rng, f, m)
    b = analytic.orbit_membership(f, m)
    for g in (f, _full_route(f)):
        a = analytic.is_analytic_vector(g, m)
        if a is not b:
            return f"routes disagree: re-expansion {a}, orbit {b}"
    return None


def _rand_ga(ctx: PadicContext, rng: random.Random, n: int, m: int) -> analytic.GAElement:
    cells = [PiecewiseFunction.constant(ctx, rng.randrange(ctx.p ** 3)) for _ in range(2)]
    return analytic.GAElement(WeylCellVector(cells[0], cells[1]), n, m)


def _poly_member(ctx: PadicContext, rng: random.Random, k: int) -> PiecewiseFunction:
    deg = rng.randint(0, k - 2) if k > 2 else 0
    c = rng.randrange(1, ctx.p ** 3)
    return PiecewiseFunction.from_global_series(TateSeries.monomial(ctx, 0, deg, c))


def _beta_shifted(c: analytic.CokernelElement, shift: PiecewiseFunction):
    """c with shift added to the identity cell of its beta side."""
    beta = c.F_beta.vector
    return analytic.CokernelElement(
        c.chi, c.n, c.m, c.F_alpha,
        analytic.GAElement(WeylCellVector(beta.identity + shift, beta.w0), c.n, c.m),
    )


def case_cokernel_equivalence(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    n, m = 1, 2
    k = rng.randint(2, 4)
    chi = rand_chi(ctx, rng, k)
    c1 = analytic.CokernelElement(chi, n, m, _rand_ga(ctx, rng, n, m), _rand_ga(ctx, rng, n, m))
    c2 = _beta_shifted(c1, _poly_member(ctx, rng, k))
    c3 = analytic.CokernelElement(chi, n, m, _rand_ga(ctx, rng, n, m), c1.F_beta)
    triple = (c1, c2, c3)
    # the relation on the 9 ordered pairs, evaluated once
    eq = {(i, j): analytic.cokernel_equal(a, b)
          for i, a in enumerate(triple) for j, b in enumerate(triple)}
    idx = range(3)
    if not all(eq[i, i] for i in idx):
        return "equality is not reflexive"
    if any(eq[i, j] != eq[j, i] for i in idx for j in idx):
        return "equality is not symmetric"
    if any(eq[i, j] and eq[j, k] and not eq[i, k] for i in idx for j in idx for k in idx):
        return "equality is not transitive"
    return None


def case_cokernel_embedding(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    n, m = 1, 2
    k = rng.randint(2, 4)
    chi = rand_chi(ctx, rng, k)
    c1 = analytic.CokernelElement(chi, n, m, _rand_ga(ctx, rng, n, m), _rand_ga(ctx, rng, n, m))
    good = _beta_shifted(c1, _poly_member(ctx, rng, k))
    if not analytic.cokernel_equal(c1, good):
        return "adding a member of the embedded space changed the class"
    bad_series = TateSeries.monomial(ctx, 0, k - 1)
    bad = _beta_shifted(c1, PiecewiseFunction.from_global_series(bad_series))
    if analytic.cokernel_equal(c1, bad):
        return "adding a non-member to the beta side kept the class"
    return None


def case_galois_weight(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    x = galois.x_character(ctx)
    absx = galois.abs_x_character(ctx)
    if galois.weight(x) != ctx.one():
        return "weight of the inclusion character is not exactly 1"
    if not galois.weight(absx).is_zero:
        return "weight of the absolute value is not 0"
    if not (x * absx).value_at_p.agrees_with(ctx.one()):
        return "x * |x| is not unitary at p"
    a = rand_character(ctx, rng)
    b = rand_character(ctx, rng)
    lhs = galois.weight(a * b)
    rhs = galois.weight(a) + galois.weight(b)
    if not lhs.agrees_with(rhs):
        return "weight is not additive on a random pair"
    return None


def case_galois_ext1(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    x = galois.x_character(ctx)
    absx = galois.abs_x_character(ctx)
    rows = [
        (x ** 0, 2, "x^-0"),
        (x ** -1, 2, "x^-1"),
        (x ** -2, 2, "x^-2"),
        (x ** -5, 2, "x^-5"),
        (absx * x, 2, "|x|x^1"),
        (absx * x ** 2, 2, "|x|x^2"),
        (absx * x ** 4, 2, "|x|x^4"),
        (absx, 1, None),
        (x ** 2, 1, None),
        (galois.ContinuousCharacter.unramified(ctx, 2), 1, None),
        (galois.ContinuousCharacter(ctx.from_int(ctx.p), 3, ctx.one()), 1, None),
        (galois.ContinuousCharacter.unramified(ctx, 3) * x ** -1, 1, None),
    ]
    for idx, (q, want_dim, want_form) in enumerate(rows):
        # quotient invariance: (q*c, c) must classify like (q, trivial)
        c = rand_character(ctx, rng)
        res = galois.ext1_dimension(q * c, c)
        if res.dimension != want_dim or res.matched_form != want_form:
            return f"row {idx}: got dimension {res.dimension} ({res.matched_form})"
    return None


def case_galois_filtration(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    chi = rand_chi(ctx, rng, rng.randint(2, 6))
    alpha, beta, k = chi.alpha, chi.beta, chi.k
    if k >= 3 and alpha.val + beta.val != k - 1:
        return "generator produced inconsistent valuations"
    mod = galois.FilteredPhiModule(alpha, beta, k)
    dims = [mod.fil_dimension(i)[0] for i in range(-(k + 1), 3)]
    if any(a < b for a, b in zip(dims, dims[1:])):
        return "filtration dimension increases somewhere"
    if mod.hodge_tate_weights() != {0, k - 1}:
        return f"weights {mod.hodge_tate_weights()} differ from {{0, {k - 1}}}"
    v = (rand_padic(ctx, rng, 0, 3, 0.0), rand_padic(ctx, rng, 0, 3, 0.0))
    c = rand_padic(ctx, rng, 0, 2, 0.0)
    scaled = mod.phi_action((v[0] * c, v[1] * c))
    plain = mod.phi_action(v)
    if not scaled[0].agrees_with(plain[0] * c) or not scaled[1].agrees_with(plain[1] * c):
        return "Frobenius does not commute with coordinatewise scaling"
    return None


def case_io_roundtrip(ctx: PadicContext, rng: random.Random) -> Optional[str]:
    from . import io

    values = (
        ("series", rand_series(ctx, rng, rng.randint(0, 2))),
        ("matrix", rand_iwahori(ctx, rng, rng.choice([I1, 1]))),
        ("function", rand_refined_global(ctx, rng, 1, max_deg=4)),
        ("character", rand_character(ctx, rng)),
    )
    for kind, value in values:
        if io.load(io.wrap(kind, ctx, value), kind)[2] != value:
            return f"{kind} round-trip changed the value"
    return None


# -- harness -------------------------------------------------------------------

SUITES: List[Tuple[str, int, CaseFn]] = [
    ("padic/valuation", 40, case_padic_valuation),
    ("padic/log", 15, case_padic_log),
    ("padic/invert", 25, case_padic_invert),
    ("series/isometry", 25, case_series_isometry),
    ("series/substitution-evaluation", 12, case_series_substitution),
    ("series/subadditivity", 25, case_series_subadditive),
    ("series/recenter-evaluation", 15, case_series_recenter),
    ("functions/partition", 10, case_functions_partition),
    ("functions/refine-evaluation", 10, case_functions_refine_eval),
    ("functions/membership-monotone", 8, case_functions_monotone),
    ("functions/mahler", 8, case_functions_mahler),
    ("actions/associativity", 12, case_actions_assoc_series),
    ("actions/cell-associativity", 4, case_actions_assoc_cell),
    ("actions/smooth", 8, case_actions_smooth),
    ("actions/degree", 2, case_actions_degree),
    ("actions/factorization", 20, case_actions_factorize),
    ("actions/level-isometry", 15, case_actions_level),
    ("orbit/reconstruction", 6, case_orbit_reconstruction),
    ("orbit/bounds", 15, case_orbit_bounds),
    ("orbit/tail-growth", 10, case_orbit_tail_growth),
    ("analytic/membership-monotone", 5, case_analytic_monotone),
    ("analytic/two-routes", 10, case_analytic_two_routes),
    ("cokernel/equivalence", 5, case_cokernel_equivalence),
    ("cokernel/embedding", 5, case_cokernel_embedding),
    ("galois/weight", 12, case_galois_weight),
    ("galois/ext1", 1, case_galois_ext1),
    ("galois/filtration", 10, case_galois_filtration),
    ("io/roundtrip", 8, case_io_roundtrip),
]


def run_selftest(
    ctx: PadicContext,
    seed: int = 0,
    count_override: Optional[int] = None,
    only: Optional[str] = None,
) -> Dict:
    chosen = [suite for suite in SUITES if only is None or only in suite[0]]
    if not chosen:
        known = ", ".join(name for name, _, _ in SUITES)
        raise ParameterError(f"suite filter {only!r} matches no suite; known suites: {known}")
    suites = []
    for name, default_count, fn in chosen:
        count = count_override if count_override is not None else default_count
        failed = 0
        first_failure = None
        for i in range(count):
            rng = random.Random(f"{seed}/{name}/{i}")
            try:
                detail = fn(ctx, rng)
            except RigidPadicError as exc:
                detail = f"unexpected error: {exc}"
            if detail is not None:
                failed += 1
                if first_failure is None:
                    first_failure = {"case": i, "detail": detail}
        entry = {"name": name, "cases": count, "failed": failed, "ok": failed == 0}
        if first_failure is not None:
            entry["first_failure"] = first_failure
        suites.append(entry)
    return {
        "config": {
            "p": ctx.p,
            "N": ctx.N,
            "D": ctx.D,
            "kappa": ctx.kappa,
            "seed": seed,
            "count_override": count_override,
        },
        "suites": suites,
        "ok": all(entry["ok"] for entry in suites),
    }
