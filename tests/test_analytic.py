"""Orbit expansions with certified valuation margins, the two membership
routes, and the cokernel model with its nonzero witness."""

import functools
import random
from fractions import Fraction
from math import comb

import pytest

from rigidpadic import analytic
from rigidpadic.actions import I1, InductionCharacter, IwahoriElement, WeylCellVector, act
from rigidpadic.analytic import (
    FAMILIES,
    BoundEntry,
    BoundReport,
    CokernelElement,
    GAElement,
    _margin,
    _orbit_levels,
    bound_report,
    cokernel_equal,
    expand_all,
    is_analytic_vector,
    orbit_dilation,
    orbit_inv_torus,
    orbit_membership,
    orbit_mobius,
    orbit_translation,
    verify_bounds,
    witness_nonzero,
)
from rigidpadic.errors import (
    BoundViolation,
    DomainError,
    InvariantViolation,
    ParameterError,
    ParameterMismatch,
)
from rigidpadic.functions import Leaf, PiecewiseFunction, StepFunction
from rigidpadic.padic import INF, PadicContext, PadicNumber
from rigidpadic.selftest import (
    case_cokernel_equivalence,
    rand_chi,
    rand_iwahori,
    rand_refined_global,
    rand_series,
)
from rigidpadic.series import TateSeries
from rigidpadic.verdict import Verdict
from exact_image import valuation


class TestOrbitTranslation:
    def test_constant(self, ctx):
        exp = orbit_translation(TateSeries.constant(ctx, 1, 1), 1)
        assert exp.components[0].coeff(0) == ctx.one()
        assert all(c.is_zero for c in exp.components[1:])

    def test_square_oracle(self, ctx):
        f = TateSeries.monomial(ctx, 1, 2)
        exp = orbit_translation(f, 1)
        f0, f1, f2 = exp.components[0], exp.components[1], exp.components[2]
        assert f0 == f
        assert f1.degree == 1 and f1.coeff(1) == ctx.from_int(-2)
        assert f2.degree == 0 and f2.coeff(0) == ctx.one()
        assert all(c.is_zero for c in exp.components[3:])

    def test_linear_oracle(self, ctx):
        exp = orbit_translation(TateSeries.monomial(ctx, 1, 1), 1)
        assert exp.components[0].coeff(1) == ctx.one()
        assert exp.components[1].coeff(0) == ctx.from_int(-1)


class TestOrbitMobius:
    def test_constant(self, ctx):
        exp = orbit_mobius(TateSeries.constant(ctx, 1, 1), 1)
        assert exp.components[0].coeff(0) == ctx.one()
        assert all(c.is_zero for c in exp.components[1:])

    def test_linear_geometric_oracle(self, ctx):
        exp = orbit_mobius(TateSeries.monomial(ctx, 1, 1), 1)
        for q in range(6):
            fq = exp.components[q]
            assert fq.degree == q + 1
            assert fq.coeff(q + 1) == ctx.one()

    def test_square_binomial_oracle(self, ctx):
        exp = orbit_mobius(TateSeries.monomial(ctx, 1, 2), 1)
        for q in range(6):
            fq = exp.components[q]
            assert fq.degree == q + 2
            assert fq.coeff(q + 2) == ctx.from_int(q + 1)


class TestOrbitDilation:
    def test_square_oracle(self, ctx):
        exp = orbit_dilation(TateSeries.monomial(ctx, 1, 2), 1)
        assert exp.components[0].coeff(2) == ctx.one()
        assert exp.components[1].coeff(2) == ctx.from_int(2)
        assert exp.components[2].coeff(2) == ctx.one()
        assert all(c.is_zero for c in exp.components[3:])

    def test_linear_oracle(self, ctx):
        exp = orbit_dilation(TateSeries.monomial(ctx, 1, 1), 1)
        assert exp.components[0].coeff(1) == ctx.one()
        assert exp.components[1].coeff(1) == ctx.one()
        assert all(c.is_zero for c in exp.components[2:])


class TestOrbitInvTorus:
    def test_constant(self, ctx):
        exp = orbit_inv_torus(TateSeries.constant(ctx, 1, 1), 1)
        assert exp.components[0].coeff(0) == ctx.one()
        assert all(c.is_zero for c in exp.components[1:])

    def test_alternating_oracle(self, ctx):
        exp = orbit_inv_torus(TateSeries.monomial(ctx, 1, 1), 1)
        for q in range(6):
            assert exp.components[q].coeff(1) == ctx.from_int((-1) ** q)

    def test_weighted_alternating_oracle(self, ctx):
        exp = orbit_inv_torus(TateSeries.monomial(ctx, 1, 2), 1)
        for q in range(6):
            want = ctx.from_int((-1) ** q * (q + 1))
            assert exp.components[q].coeff(2) == want


class TestOrbitReconstruction:
    """Summing parameter powers against the expansion components must
    reproduce the action of the one-parameter matrix at sample points:
    [[1, 0], [y, 1]], [[1, x], [0, 1]] (untwisted), diag(s, 1) and
    diag(1, t) at weight 2."""

    @staticmethod
    def _act(ctx, a, b, c, d, f):
        g = IwahoriElement(ctx, a, b, c, d, I1)
        return act(g, f, InductionCharacter(ctx.one(), ctx.one(), 2, strict=False))

    def _rebuild_at(self, exp, param, z):
        ctx = z.ctx
        total = ctx.zero()
        power = ctx.one()
        for comp in exp.components:
            if not power.is_zero:
                total = total + power * comp.evaluate(z)
            power = power * param
        return total

    def test_translation(self, ctx):
        rng = random.Random(41)
        for _ in range(5):
            f = TateSeries(ctx, 1, [rng.randrange(-999, 999) for _ in range(5)])
            y = ctx.from_int(5 * rng.randrange(1, 60))
            z = ctx.from_int(5 * rng.randrange(-60, 60))
            got = self._rebuild_at(orbit_translation(f, 1), y, z)
            assert got.agrees_with(f.translate(y).evaluate(z))

    def test_mobius_untwisted(self, ctx):
        rng = random.Random(43)
        for _ in range(5):
            f = TateSeries(ctx, 1, [rng.randrange(-999, 999) for _ in range(4)])
            x = ctx.from_int(5 * rng.randrange(1, 60))
            z = ctx.from_int(5 * rng.randrange(-60, 60))
            got = self._rebuild_at(orbit_mobius(f, 1), x, z)
            assert got.agrees_with(f.raw_mobius(x).evaluate(z))

    def test_dilation(self, ctx):
        rng = random.Random(47)
        for _ in range(5):
            f = TateSeries(ctx, 1, [rng.randrange(-999, 999) for _ in range(5)])
            s = ctx.from_int(1 + 5 * rng.randrange(1, 60))
            z = ctx.from_int(5 * rng.randrange(-60, 60))
            got = self._rebuild_at(orbit_dilation(f, 1), s - ctx.one(), z)
            assert got.agrees_with(self._act(ctx, s, 0, 0, 1, f).evaluate(z))

    def test_inv_torus(self, ctx):
        rng = random.Random(53)
        for _ in range(5):
            f = TateSeries(ctx, 1, [rng.randrange(-999, 999) for _ in range(5)])
            t = ctx.from_int(1 + 5 * rng.randrange(1, 60))
            z = ctx.from_int(5 * rng.randrange(-60, 60))
            got = self._rebuild_at(orbit_inv_torus(f, 1), t - ctx.one(), z)
            assert got.agrees_with(self._act(ctx, 1, 0, 0, t, f).evaluate(z))


class TestBoundReports:
    def test_zero_series_vacuous(self, ctx):
        rep = bound_report(TateSeries.zero(ctx, 1), 1)
        assert rep.ok
        assert all(e.margin >= 0 for e in rep.entries)

    def test_square_translation_margin(self, ctx):
        f = TateSeries.monomial(ctx, 1, 2)
        rep = bound_report(f, 1)
        entry = next(
            e for e in rep.entries if e.family == "translation" and e.index == 1
        )
        # -2z at index 1: val_C + m*1 = 2 against the degree-1 suffix floor 2
        assert entry.val_c == 2
        assert entry.bound == 2
        assert entry.margin == 0

    def test_linear_mobius_margins_all_tight(self, ctx):
        f = TateSeries.monomial(ctx, 1, 1)
        rep = bound_report(f, 1)
        mob = [e for e in rep.entries if e.family == "mobius"]
        assert mob and all(e.margin >= 0 for e in mob)
        # z^(q+1) survives truncation for q < D, and there the bound is sharp
        for e in mob:
            if e.index < ctx.D:
                assert e.margin == 0

    def test_random_certified_series_all_pass(self, ctx):
        rng = random.Random(59)
        for m in (1, 2, 3):
            for _ in range(10):
                coeffs = [rng.randrange(-(5 ** 6), 5 ** 6) for _ in range(8)]
                f = TateSeries(ctx, m, coeffs, tail_bound=0)
                assert verify_bounds(f, m).ok

    def test_tamper_hook_trips_exactly_one_entry(self, ctx):
        f = TateSeries.monomial(ctx, 1, 2)
        with pytest.raises(BoundViolation) as ei:
            verify_bounds(f, 1, tamper=("translation", 1))
        rep = ei.value.report
        assert rep is not None
        bad = [e for e in rep.entries if e.margin < 0]
        assert len(bad) == 1
        assert bad[0].family == "translation" and bad[0].index == 1
        assert "translation[1]" in str(ei.value)

    def test_level_guard(self, ctx):
        f = TateSeries.monomial(ctx, 0, 1)
        with pytest.raises(DomainError):
            verify_bounds(f, 1)


def _random_series(ctx, rng, m, degree, lo, tail):
    """Degree-exact series with zero coefficients and valuations from lo."""
    cs = []
    for l in range(degree + 1):
        if l < degree and rng.random() < 0.25:
            cs.append(ctx.zero())
            continue
        unit = rng.randrange(1, ctx.pN)
        while unit % ctx.p == 0:
            unit = rng.randrange(1, ctx.pN)
        cs.append(PadicNumber(ctx, rng.randint(lo, lo + 6), unit, _checked=True))
    return TateSeries(ctx, m, cs, tail)


def _level_cases(ctx, seed):
    """Series at m = 0..3: degrees 0, 1, 3, 10 and D (those up to D) with zero
    coefficients, valuations from 0 or -2, finite or infinite tails, the zero
    series, constants, and a_0 = 0 below nonzero coefficients."""
    rng = random.Random(seed)
    for m in range(4):
        yield TateSeries.zero(ctx, m)
        yield TateSeries(ctx, m, (), 0)
        for degree in sorted({d for d in (0, 1, 3, 10, ctx.D) if d <= ctx.D}):
            for lo in (0, -2):
                yield _random_series(ctx, rng, m, degree, lo, rng.choice([INF, lo]))
        if ctx.D:
            yield TateSeries(ctx, m, [1] + [0] * (ctx.D - 1) + [ctx.p ** 3], INF)
        for c in (-7, Fraction(1, ctx.p ** 2)):
            yield TateSeries.constant(ctx, m, c)
            yield TateSeries(ctx, m, [c], -1)
        for tail in (INF, 1):
            yield TateSeries(ctx, m, [0, ctx.p ** 3, 2][: ctx.D + 1], tail)


LEVEL_CONTEXTS = [PadicContext(3, 20, 16), PadicContext(5, 40, 64), PadicContext(7, 12, 10)]
LOW_DEGREE_CONTEXTS = [PadicContext(p, 12, D) for D in (0, 1, 2) for p in (3, 5)]


class TestOrbitLevels:
    """The integer valuation table equals the stored val_C of every
    materialised orbit component."""

    @pytest.mark.parametrize("lctx", LEVEL_CONTEXTS + LOW_DEGREE_CONTEXTS,
                             ids=lambda c: f"p{c.p}-D{c.D}")
    def test_table_equals_materialised(self, lctx):
        for f in _level_cases(lctx, lctx.p):
            table = _orbit_levels(f, f.m)
            assert list(table) == list(FAMILIES)
            for fam, exp in expand_all(f, f.m).items():
                want = [c.stored_val_c() for c in exp.components]
                assert table[fam] == want, (fam, f)
                assert [c is INF for c in table[fam]] == [c is INF for c in want]

    def test_level_guard(self, ctx):
        with pytest.raises(DomainError):
            _orbit_levels(TateSeries.monomial(ctx, 0, 1), 1)

    def test_tail_guard_reads_the_table(self, ctx, monkeypatch):
        # the bound is a theorem, so lower one table entry by hand: the
        # guard must name that entry
        w = TateSeries(ctx, 1, [5, 1, 7])
        analytic._orbit_tail_guard(w, 1, "candidate")
        real = analytic._orbit_levels

        def lowered(f, m):
            table = real(f, m)
            table["mobius"][3] = f.val_c() - 3 * m - 1
            return table

        monkeypatch.setattr(analytic, "_orbit_levels", lowered)
        with pytest.raises(InvariantViolation, match=r"candidate orbit tail bound failed at mobius\[3\]"):
            analytic._orbit_tail_guard(w, 1, "candidate")

    @pytest.mark.parametrize("m", [0, 2])
    def test_tail_guard_adds_m_v_to_each_entry(self, ctx, monkeypatch, m):
        # an entry at val_C(w) - m v passes and one below it fails, in every
        # family and wherever it sits in the row
        w = TateSeries(ctx, m, [5, 1, 7])
        real = analytic._orbit_levels
        for fam in FAMILIES:
            for v in (0, 3, ctx.D):
                for drop in (0, 1):
                    def lowered(f, m, fam=fam, v=v, drop=drop):
                        table = real(f, m)
                        table[fam][v] = f.val_c() - m * v - drop
                        return table

                    monkeypatch.setattr(analytic, "_orbit_levels", lowered)
                    if drop:
                        with pytest.raises(InvariantViolation, match=rf"at {fam}\[{v}\]$"):
                            analytic._orbit_tail_guard(w, m, "witness")
                    else:
                        analytic._orbit_tail_guard(w, m, "witness")


def _binom(n, k):
    """binom(n, k) with the builders' corners: 1 for k = 0 (n = -1 too), 0 for k > n."""
    return 1 if k == 0 else comb(n, k)


def _digits(x, ctx):
    """(val, unit modulo p^N) of a nonzero int or Fraction."""
    v = valuation(x, ctx.p)
    num, den = x.numerator, x.denominator
    if v >= 0:
        num //= ctx.p ** v
    else:
        den //= ctx.p ** -v
    return v, num * pow(den, -1, ctx.pN) % ctx.pN


def _oracle_orbit_terms(f):
    """Each family's component q as its nonzero terms (j, val, unit): the
    coefficient of z^j is (-1)^q a_l binom(n, q) (the sign for translation
    and inv_torus only), and a product of stored values keeps the sum of the
    valuations and the product of the units modulo p^N.  The digits of a_l
    are read through to_fraction, the binomials come from math.comb."""
    ctx = f.ctx
    D = ctx.D
    a = [_digits(x, ctx) if x else None for x in (c.to_fraction() for c in f.coeffs)]

    def terms(layout, sign):
        out = []
        for j, l, b in layout:
            if a[l] is not None and b:
                vb, ub = _digits(b, ctx)
                out.append((j, a[l][0] + vb, sign * a[l][1] * ub % ctx.pN))
        return out

    n = len(a)
    out = {fam: [] for fam in FAMILIES}
    for q in range(D + 1):
        sign = -1 if q % 2 else 1
        out["translation"].append(terms([(l - q, l, _binom(l, q)) for l in range(q, n)], sign))
        out["mobius"].append(terms([(l + q, l, _binom(l + q - 1, q))
                                    for l in range(min(n, D + 1 - q))], 1))
        out["dilation"].append(terms([(l, l, _binom(l, q)) for l in range(q, n)], 1))
        out["inv_torus"].append(terms([(l, l, _binom(l + q - 1, q)) for l in range(n)], sign))
    return out


class TestOrbitBuildersReadTheFactorialTable:
    """The orbit builders read binomials from the factorial table, never
    through ctx.binom, and store exactly the digits of the exact products."""

    @pytest.mark.parametrize("lctx", LEVEL_CONTEXTS, ids=lambda c: f"p{c.p}-D{c.D}")
    def test_bit_identical_to_binom_products(self, lctx, monkeypatch):
        def refuse(*args):
            raise AssertionError("ctx.binom called")

        for f in _level_cases(lctx, lctx.p + 1):
            monkeypatch.setattr(PadicContext, "binom", refuse)
            exps = expand_all(f, f.m)
            monkeypatch.undo()
            want = _oracle_orbit_terms(f)
            for fam, exp in exps.items():
                for comp, terms in zip(exp.components, want[fam], strict=True):
                    digits = [(INF, 0)] * (max((j for j, _, _ in terms), default=-1) + 1)
                    for j, v, u in terms:
                        digits[j] = (v, u)
                    assert [(c.val, c.unit) for c in comp.coeffs] == digits, (fam, f)


@functools.lru_cache(maxsize=None)
def _oracle_bounds(f, m):
    """{family: (lhs, rhs)} of the orbit inequalities from the exact terms:
    val_C of each component against the levels v(a_l) + m l of f."""
    p = f.ctx.p
    a = [c.to_fraction() for c in f.coeffs]
    levels = [valuation(x, p) + m * l if x else INF for l, x in enumerate(a)]
    stored = min(levels, default=INF)
    out = {}
    for fam, comps in _oracle_orbit_terms(f).items():
        lhs, rhs = [], []
        for idx, terms in enumerate(comps):
            c = min((v + m * j for j, v, _ in terms), default=INF)
            suffix = min(levels[idx:], default=INF)
            if fam == "translation":
                lhs.append(c + m * idx if c is not INF else INF)
                rhs.append(suffix)
            elif fam == "mobius":
                lhs.append(c)
                rhs.append(stored + m * idx if stored is not INF else INF)
            elif fam == "dilation":
                lhs.append(c)
                rhs.append(suffix)
            else:
                lhs.append(c)
                rhs.append(stored)
        out[fam] = tuple(lhs), tuple(rhs)
    return out


def _oracle_bound_report(f, m, tamper=None):
    """bound_report over the exact terms of _oracle_orbit_terms.  A tamper
    scales the named component by p**-(margin + 1), which lowers the
    valuation of each of its terms, and so its val_C, by margin + 1."""
    if f.m != m:
        raise DomainError(f"series lives at level {f.m}, expansion requested at {m}")
    bounds = dict(_oracle_bounds(f, m))
    if tamper is not None:
        fam, idx = tamper
        if fam not in FAMILIES:
            raise ParameterError(f"unknown orbit family {fam!r}")
        lhs, rhs = bounds[fam]
        if not 0 <= idx < len(lhs):
            raise ParameterError(f"tamper index {idx} outside [0, {len(lhs)}) for {fam}")
        margin = _margin(lhs[idx], rhs[idx])
        if margin is INF:
            raise ParameterError(f"component {fam}[{idx}] has no finite margin to break")
        lhs = list(lhs)
        lhs[idx] -= int(margin) + 1
        bounds[fam] = lhs, rhs
    return BoundReport(m, tuple(bounds[fam] for fam in FAMILIES))


def _outcome(report_fn, f, m, tamper=None):
    try:
        return report_fn(f, m, tamper).to_dict()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


class TestBoundReportOracle:
    """bound_report on the valuation table matches the materialised route,
    tampers and refusals included."""

    @pytest.mark.parametrize("lctx", LEVEL_CONTEXTS, ids=lambda c: f"p{c.p}-D{c.D}")
    def test_reports_and_tampers_match(self, lctx):
        rng = random.Random(lctx.D)
        cases = [TateSeries.zero(lctx, 1), TateSeries.monomial(lctx, 2, 2)]
        for m in range(4):
            for degree in (0, 3, lctx.D):
                cases.append(_random_series(lctx, rng, m, degree, rng.choice([0, -2]), INF))
        tampers = [None] + [(fam, i) for fam in FAMILIES for i in (0, 1, lctx.D)]
        for f in cases:
            for tamper in tampers:
                got = _outcome(bound_report, f, f.m, tamper)
                assert got == _outcome(_oracle_bound_report, f, f.m, tamper), (f, tamper)

    def test_refusals_match(self, ctx):
        f = TateSeries.monomial(ctx, 1, 2)
        refusals = [
            (f, 1, ("rotation", 0)),
            (f, 1, ("mobius", -1)),
            (f, 1, ("translation", ctx.D + 1)),
            (f, 1, ("dilation", 5)),  # past the degree: infinite margin
            (f, 2, None),
            (f, 2, ("translation", 1)),
        ]
        for g, m, tamper in refusals:
            got = _outcome(bound_report, g, m, tamper)
            assert isinstance(got, tuple), (m, tamper)
            assert got == _outcome(_oracle_bound_report, g, m, tamper)
        assert _outcome(bound_report, f, 2)[0] is DomainError
        assert "no finite margin" in _outcome(bound_report, f, 1, ("dilation", 5))[1]


class TestBoundReportViews:
    """A report keeps one (certified, bound) row pair per family; entries,
    ok, first_violation and to_dict read the same margins from it."""

    def test_views_agree(self, ctx):
        rng = random.Random(67)
        tampers = [None] + [(fam, i) for fam in FAMILIES for i in (0, 1, ctx.D)]
        for m in (1, 2, 3):
            for _ in range(4):
                f = rand_series(ctx, rng, m)
                for tamper in tampers:
                    try:
                        rep = bound_report(f, m, tamper)
                    except ParameterError:  # no finite margin to break
                        continue
                    entries = rep.entries
                    assert len(entries) == len(FAMILIES) * (ctx.D + 1)
                    assert rep.to_dict() == {"m": m, "ok": rep.ok,
                                             "entries": [e.to_dict() for e in entries]}
                    assert rep.ok == all(e.ok for e in entries)
                    bad = [e for e in entries if not e.ok]
                    assert rep.first_violation() == (bad[0] if bad else None)
                    assert (tamper is None) == (not bad), tamper

    def test_passing_report_builds_no_entry(self, ctx, monkeypatch):
        built = []

        class Counted(BoundEntry):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(analytic, "BoundEntry", Counted)
        f = TateSeries(ctx, 1, [3, 5, 0, 7, 25], 0)
        rep = bound_report(f, 1)
        assert rep.ok and rep.first_violation() is None
        assert verify_bounds(f, 1).ok
        assert rep.to_dict()["ok"]
        assert built == []
        assert len(rep.entries) == len(built) == len(FAMILIES) * (ctx.D + 1)
        built.clear()
        assert not bound_report(f, 1, ("mobius", 3)).ok
        assert [args[:2] for args in built] == [("mobius", 3)]


def _split_ball(ctx, hot_center: int, level: int):
    """Partition of Z_p that is 1 on one level-`level` coset inside the
    ball p^(level-1) Z_p and 0 everywhere else."""
    p = ctx.p
    inner = []
    for i in range(p):
        c = i * p ** (level - 1)
        val = 1 if c == hot_center else 0
        inner.append(Leaf(c, level, TateSeries.constant(ctx, level, val)))
    outer = []
    for lev in range(level - 1, 0, -1):
        for i in range(1, p):
            c = i * p ** (lev - 1)
            outer.append(Leaf(c, lev, TateSeries.constant(ctx, lev, 0)))
    return PiecewiseFunction(ctx, inner + outer)


class TestAnalyticMembership:
    def test_global_series_analytic_at_zero(self, ctx):
        f = PiecewiseFunction.from_global_series(TateSeries(ctx, 0, [1, 5, 2]))
        assert is_analytic_vector(f, 0) is Verdict.YES

    def test_indicator_analytic_inside_ball(self, ctx):
        f = StepFunction.indicator_ball(ctx, 1)
        assert is_analytic_vector(f, 1) is Verdict.YES

    def test_disagreeing_pieces_rejected(self, ctx):
        f = _split_ball(ctx, 5, 2)
        assert is_analytic_vector(f, 1) is Verdict.NO

    def test_two_routes_agree(self, ctx):
        rng = random.Random(61)
        cases = []
        for _ in range(8):
            g = PiecewiseFunction.from_global_series(
                TateSeries(ctx, 0, [rng.randrange(-99, 99) for _ in range(4)])
            ).refine(rng.randint(1, 2))
            cases.append(g)
        cases.append(StepFunction.indicator_ball(ctx, 2))
        cases.append(_split_ball(ctx, 25, 3))
        for f in cases:
            # the same leaves with no coarse partition take the re-expansion route
            full = PiecewiseFunction(ctx, f.leaves)
            for m in (1, 2):
                b = orbit_membership(f, m)
                assert is_analytic_vector(f, m) is b
                assert is_analytic_vector(full, m) is b

    def test_routes_agree_on_negative(self, ctx):
        f = _split_ball(ctx, 5, 2)
        assert is_analytic_vector(f, 1) is Verdict.NO
        assert orbit_membership(f, 1) is Verdict.NO

    def test_orbit_route_counts_re_expansion_ceilings(self):
        # re-expanding this level-2 refinement around 0 from the leaf at
        # centre 20 cancels digits of the candidate's coefficients: evaluating
        # that candidate without their ceilings read rounding as a wrong NO,
        # and with them the comparison starved to INDETERMINATE.  The leaf at
        # centre 0 needs no shift, so both routes answer YES.  (The same input
        # is the one disagreement in 2,250 selftest two-route draws from
        # random.Random(3), at index 1825.)
        ctx = PadicContext(5, 40, 64, 4)
        g = TateSeries(
            ctx,
            0,
            [
                776380830486270838372490366375,
                44760593792847777683296493110,
                22331107755394813929902068460,
            ],
            0,
        )
        f = PiecewiseFunction.from_global_series(g).refine(2)
        assert is_analytic_vector(f, 1) is Verdict.YES
        assert orbit_membership(f, 1) is Verdict.YES

    def test_tamper_index_out_of_range(self, ctx):
        f = TateSeries.monomial(ctx, 1, 2)
        for tamper in (("mobius", ctx.D + 1), ("translation", -1), ("rotation", 0)):
            with pytest.raises(ParameterError):
                bound_report(f, 1, tamper=tamper)


def _action_image_draw():
    """The draw of the scan in ROADMAP direction 1 at p = 5, N = 20, D = 24."""
    ctx = PadicContext(5, 20, 24)
    rng = random.Random(5)
    m = rng.randint(1, 2)
    f = rand_refined_global(ctx, rng, m + 1, max_deg=5)
    g = rand_iwahori(ctx, rng, m)
    chi = rand_chi(ctx, rng)
    return m, f, g, act(g, f, chi)


class TestActionImagesStayAnalytic:
    """g in G(m) maps p^m Z_p onto itself analytically, so the image of a
    G(m)-analytic vector is G(m)-analytic: no route may refuse it."""

    def test_the_draw(self):
        m, f, g, image = _action_image_draw()
        assert m == 2
        assert [v.to_fraction() for v in (g.a, g.b, g.c, g.d)] == [63226, 12950, 13525, 45551]
        assert is_analytic_vector(f, m) is Verdict.YES
        assert orbit_membership(image, m) is Verdict.YES

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP direction 1: re-expanding a truncated leaf onto p^m Z_p ignores "
        "its omitted coefficients, so the re-expansion route answers a wrong NO"))
    def test_image_is_not_refused(self):
        m, _, _, image = _action_image_draw()
        assert is_analytic_vector(image, m) is not Verdict.NO


class TestGAElement:
    def test_certification_required(self, ctx):
        # 1 on 25+125Z_p inside 25Z_p: no single series on that level-2
        # ball matches, so the identity cell fails its certificate
        bad = _split_ball(ctx, 25, 3)
        vec = WeylCellVector(bad, PiecewiseFunction.constant(ctx, 0))
        with pytest.raises(DomainError):
            GAElement(vec, 1, 2)

    def test_level_ordering_required(self, ctx):
        vec = WeylCellVector(
            PiecewiseFunction.constant(ctx, 1),
            PiecewiseFunction.constant(ctx, 0),
        )
        with pytest.raises(DomainError):
            GAElement(vec, 2, 2)

    def test_congruence_level_guard(self, ctx):
        vec = WeylCellVector(
            PiecewiseFunction.constant(ctx, 1),
            PiecewiseFunction.constant(ctx, 0),
        )
        with pytest.raises(ParameterError):
            GAElement(vec, 0, 2)

    def test_zero_element(self, ctx):
        z = GAElement.zero(ctx, 1, 2)
        assert z.agrees_with(GAElement.zero(ctx, 1, 2))
        assert set(z.certificates) == {"identity", "w0"}


def _poly_shift(ctx, *ints):
    return PiecewiseFunction.from_global_series(TateSeries(ctx, 0, ints))


class TestCokernel:
    def _witness(self, ctx, k):
        alpha = ctx.from_int(5 ** max(k - 2, 1) * 2)
        beta = ctx.from_int(5 ** max(k - 1 - max(k - 2, 1), 1) * 3)
        return witness_nonzero(ctx, alpha, beta, k, 1, 2)

    def _zero_class(self, ctx, elt):
        return CokernelElement(
            elt.chi, elt.n, elt.m,
            GAElement.zero(ctx, elt.n, elt.m),
            GAElement.zero(ctx, elt.n, elt.m),
        )

    def test_witness_weight_two(self, ctx):
        elt, proof = self._witness(ctx, 2)
        assert proof["alpha_difference_zero"] is False
        assert not cokernel_equal(elt, self._zero_class(ctx, elt))

    def test_witness_weight_three(self, ctx):
        elt, proof = self._witness(ctx, 3)
        assert proof["small_slope"] == elt.chi.small_slope
        assert not cokernel_equal(elt, self._zero_class(ctx, elt))

    def test_reflexive(self, ctx):
        elt, _ = self._witness(ctx, 3)
        assert cokernel_equal(elt, elt)

    def test_beta_shift_inside_image_is_invisible(self, ctx):
        # adding a degree <= k-2 polynomial to both beta cells lands in
        # the embedded locally algebraic image, hence the same class
        elt, _ = self._witness(ctx, 3)
        shift = _poly_shift(ctx, 4, 2)
        vec = WeylCellVector(
            elt.F_beta.vector.identity + shift,
            elt.F_beta.vector.w0 + shift,
        )
        other = CokernelElement(
            elt.chi, elt.n, elt.m, elt.F_alpha, GAElement(vec, elt.n, elt.m)
        )
        assert cokernel_equal(elt, other)

    def test_beta_shift_outside_image_changes_class(self, ctx):
        # z^2 exceeds the degree bound k-2 = 1, so it is not absorbed
        elt, _ = self._witness(ctx, 3)
        shift = _poly_shift(ctx, 0, 0, 1)
        vec = WeylCellVector(
            elt.F_beta.vector.identity + shift,
            elt.F_beta.vector.w0,
        )
        other = CokernelElement(
            elt.chi, elt.n, elt.m, elt.F_alpha, GAElement(vec, elt.n, elt.m)
        )
        assert not cokernel_equal(elt, other)

    def test_alpha_shift_changes_class(self, ctx):
        elt, _ = self._witness(ctx, 3)
        shift = PiecewiseFunction.constant(ctx, 1)
        vec = WeylCellVector(
            elt.F_alpha.vector.identity + shift,
            elt.F_alpha.vector.w0,
        )
        other = CokernelElement(
            elt.chi, elt.n, elt.m, GAElement(vec, elt.n, elt.m), elt.F_beta
        )
        assert not cokernel_equal(elt, other)

    def test_parameter_mismatch_rejected(self, ctx):
        e2, _ = self._witness(ctx, 2)
        e3, _ = self._witness(ctx, 3)
        with pytest.raises(ParameterMismatch):
            cokernel_equal(e2, e3)

    def test_equivalence_on_random_triples(self, ctx):
        rng = random.Random(67)
        base, _ = self._witness(ctx, 3)
        pool = []
        for _ in range(8):
            c0 = rng.randrange(-9, 9)
            c2 = rng.randrange(0, 3)
            shift = _poly_shift(ctx, c0, 0, c2)
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
        for _ in range(20):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            assert cokernel_equal(a, a)
            if cokernel_equal(a, b):
                assert cokernel_equal(b, a)
            if cokernel_equal(a, b) and cokernel_equal(b, c):
                assert cokernel_equal(a, c)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP direction 12: cokernel_equal reads the INDETERMINATE of "
        "is_member_pi_an on the beta difference as False"))
    def test_beta_cells_differing_by_5_pow_35_plus_z_on_25Z5_are_not_unequal(self, ctx):
        # F_beta's identity cell is [r + 5**35 + 7, 1] (or the constant 7)
        # on the level-3 leaves r + 125Z_5 inside 25Z_5 and 0 elsewhere, so
        # the beta difference is 5**35 + z there: degree 1 = k - 2, the same
        # class; each re-expansion cancels r against r * 1, which starves
        chi = InductionCharacter(ctx.from_int(10), ctx.from_int(15), 3, strict=False)
        zero = PiecewiseFunction.constant(ctx, 0)
        F_alpha = GAElement(WeylCellVector(PiecewiseFunction.constant(ctx, 1), zero), 1, 2)

        def cls(series_at):
            leaves = [Leaf(r, 1, TateSeries.zero(ctx, 1)) for r in range(1, 5)]
            leaves += [Leaf(r, 2, TateSeries.zero(ctx, 2)) for r in (5, 10, 15, 20)]
            leaves += [Leaf(r, 3, TateSeries(ctx, 3, series_at(r))) for r in range(0, 125, 25)]
            vector = WeylCellVector(PiecewiseFunction(ctx, leaves), zero)
            return CokernelElement(chi, 1, 2, F_alpha, GAElement(vector, 1, 2))

        c1, c2 = cls(lambda r: [r + 5 ** 35 + 7, 1]), cls(lambda r: [7])
        assert cokernel_equal(c1, c2) is not False


def _ranked(relation):
    """A stand-in for cokernel_equal: relation(rank(a), rank(b), a, b), each
    element ranked by the order in which it is first seen."""
    rank = {}

    def equal(a, b):
        for c in (a, b):
            rank.setdefault(id(c), len(rank))
        return relation(rank[id(a)], rank[id(b)], a, b)

    return equal


class TestCokernelEquivalenceCase:
    """The selftest case still checks all three properties of cokernel_equal."""

    @pytest.mark.parametrize("relation, detail", [
        (lambda i, j, a, b: a is not b, "equality is not reflexive"),
        (lambda i, j, a, b: i <= j, "equality is not symmetric"),
        (lambda i, j, a, b: abs(i - j) <= 1, "equality is not transitive"),
    ])
    def test_each_broken_property_is_reported(self, ctx, monkeypatch, relation, detail):
        monkeypatch.setattr(analytic, "cokernel_equal", _ranked(relation))
        assert case_cokernel_equivalence(ctx, random.Random(5)) == detail

    def test_one_call_per_ordered_pair(self, ctx, monkeypatch):
        calls = []
        equal = analytic.cokernel_equal
        monkeypatch.setattr(analytic, "cokernel_equal",
                            lambda a, b: calls.append((a, b)) or equal(a, b))
        for seed in range(3):
            calls.clear()
            assert case_cokernel_equivalence(ctx, random.Random(seed)) is None
            assert len(calls) == 9
            assert len({(id(a), id(b)) for a, b in calls}) == 9


class TestExpandAll:
    def test_families_complete(self, ctx):
        f = TateSeries(ctx, 1, [1, 5])
        exps = expand_all(f, 1)
        assert set(exps) == {"translation", "mobius", "dilation", "inv_torus"}
