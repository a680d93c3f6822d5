"""Truncated series on closed balls: frozen expansion oracles and the
Banach-valuation laws the operations must respect."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpadic.errors import DomainError, ParameterError
from rigidpadic.functions import Leaf, _re_expand
from rigidpadic.padic import INF, PadicContext, PadicNumber
from rigidpadic.series import TateSeries, _taylor_shift, one_minus_cz_pow, twisted_mobius


def poly(ctx, m, *ints):
    return TateSeries(ctx, m, [ctx.from_int(n) for n in ints])


class TestValC:
    def test_zero_series(self, ctx):
        assert TateSeries.zero(ctx, 1).val_c() is INF

    def test_constant_one(self, ctx):
        for m in (0, 1, 3):
            assert TateSeries.constant(ctx, m, 1).val_c() == 0

    def test_enumerates_weighted_valuations(self, ctx):
        # candidates are 1, 0 + 2, 2 + 6
        f = poly(ctx, 2, 5, 1, 0, 25)
        assert f.val_c() == 1

    def test_tail_bound_caps(self, ctx):
        f = TateSeries(ctx, 1, (1,), tail_bound=-3)
        assert f.val_c() == -3

    def test_suffix_levels_decreasing_prefix(self, ctx):
        f = poly(ctx, 1, 5, 1, 0, 25)
        suf = f.suffix_levels()
        # suffix minima can only grow with the starting index
        assert all(suf[v] <= suf[v + 1] for v in range(len(suf) - 1))
        assert suf[0] == f.val_c()


class TestTranslate:
    def test_linear(self, ctx):
        f = TateSeries.monomial(ctx, 0, 1)
        y = ctx.from_int(3)
        g = f.translate(y)
        assert g.coeff(0) == -y
        assert g.coeff(1) == ctx.one()

    def test_identity_at_zero(self, ctx):
        f = poly(ctx, 1, 7, 0, 3)
        assert f.translate(0) == f

    def test_square_shift_oracle(self, ctx):
        # (z - 5)**2 = z**2 - 10 z + 25
        f = TateSeries.monomial(ctx, 1, 2)
        g = f.translate(ctx.from_int(5))
        assert g.coeff(0) == ctx.from_int(25)
        assert g.coeff(1) == ctx.from_int(-10)
        assert g.coeff(2) == ctx.one()
        assert g.degree == 2

    def test_domain_guard(self, ctx):
        f = TateSeries.monomial(ctx, 2, 1)
        with pytest.raises(DomainError):
            f.translate(ctx.from_int(5))


class TestDilate:
    def test_identity_at_one(self, ctx):
        f = poly(ctx, 1, 2, 0, 11)
        assert f.dilate(1) == f

    def test_square_scaling_oracle(self, ctx):
        f = TateSeries.monomial(ctx, 0, 2)
        g = f.dilate(ctx.from_int(6))
        assert g.degree == 2
        assert g.coeff(2) == ctx.from_int(36)

    def test_constants_fixed(self, ctx):
        f = TateSeries.constant(ctx, 1, 9)
        assert f.dilate(ctx.from_int(6)) == f

    def test_domain_guard(self, ctx):
        # s - 1 must vanish to the ball level
        f = TateSeries.monomial(ctx, 2, 1)
        with pytest.raises(DomainError):
            f.dilate(ctx.from_int(6))


class TestMobiusTwist:
    def test_identity_at_zero(self, ctx):
        f = poly(ctx, 1, 1, 5)
        assert f.mobius_twist(0, 2) == f

    def test_weight_three_constant_oracle(self, ctx):
        # the twist factor alone: (1 - 5 z)**1
        f = TateSeries.constant(ctx, 0, 1)
        g = f.mobius_twist(ctx.from_int(5), 3)
        assert g.degree == 1
        assert g.coeff(0) == ctx.one()
        assert g.coeff(1) == ctx.from_int(-5)

    def test_weight_two_geometric_oracle(self, ctx):
        # z / (1 - 5 z) = sum 5**q z**(q+1)
        f = TateSeries.monomial(ctx, 1, 1)
        g = f.mobius_twist(ctx.from_int(5), 2)
        assert g.coeff(0).is_zero
        for j in range(1, ctx.D + 1):
            assert g.coeff(j) == ctx.from_int(5 ** (j - 1))

    def test_weight_guard(self, ctx):
        f = TateSeries.monomial(ctx, 1, 1)
        with pytest.raises(ParameterError):
            f.mobius_twist(ctx.from_int(5), 1)

    def test_parameter_guard(self, ctx):
        f = TateSeries.monomial(ctx, 2, 1)
        with pytest.raises(DomainError):
            f.mobius_twist(ctx.from_int(5), 2)

    def test_exact_polynomial_of_degree_at_most_twist_stays_exact(self, ctx):
        # (1 + 5 z / (1 - 5 z)) (1 - 5 z) = 1
        g = TateSeries(ctx, 1, [1, 5]).mobius_twist(ctx.from_int(5), 3)
        assert g == TateSeries.constant(ctx, 1, 1)
        assert g.tail_bound is INF
        # e = 0: an exact constant is fixed by the untwisted substitution
        c = TateSeries.constant(ctx, 1, 25)
        assert c.raw_mobius(ctx.from_int(5)) == c
        assert TateSeries.zero(ctx, 1).raw_mobius(ctx.from_int(5)).is_zero

    def test_longer_or_truncated_input_keeps_val_c_tail(self, ctx):
        x = ctx.from_int(5)
        for f in (TateSeries(ctx, 1, [1, 5, 25]), TateSeries(ctx, 1, [1, 5], tail_bound=3)):
            g = f.mobius_twist(x, 3)
            assert g.tail_bound == f.val_c() == 0
        assert TateSeries(ctx, 1, [5, 5]).raw_mobius(x).tail_bound == 1


class TestInvTorus:
    def test_identity_at_one(self, ctx):
        f = poly(ctx, 1, 3, 1)
        assert f.inv_torus(1, 2) == f

    def test_weight_four_constant_oracle(self, ctx):
        f = TateSeries.constant(ctx, 1, 1)
        g = f.inv_torus(ctx.from_int(6), 4)
        assert g.degree == 0
        assert g.coeff(0) == ctx.from_int(36)

    def test_weight_two_geometric_oracle(self, ctx):
        # z / (1 + p): the reciprocal is exact in the coefficient field
        f = TateSeries.monomial(ctx, 1, 1)
        g = f.inv_torus(ctx.from_int(6), 2)
        assert g.degree == 1
        assert g.coeff(1) == ctx.from_fraction(Fraction(1, 6))

    def test_domain_guard(self, ctx):
        f = TateSeries.monomial(ctx, 2, 1)
        with pytest.raises(DomainError):
            f.inv_torus(ctx.from_int(6), 2)

    def test_non_unit_refused_at_level_zero(self, ctx):
        # t = 5 passes valp(t - 1) >= 0, but f(z / 5) leaves the ball
        with pytest.raises(DomainError, match="unit"):
            TateSeries(ctx, 0, [1, 2]).inv_torus(ctx.from_int(5), 3)


class TestRecenter:
    def test_identity(self, ctx):
        f = poly(ctx, 1, 0, 1, 4)
        assert f.recenter(0, 1) == f

    def test_linear_shift(self, ctx):
        f = TateSeries.monomial(ctx, 1, 1)
        g = f.recenter(ctx.from_int(5), 2)
        assert g.m == 2
        assert g.coeff(0) == ctx.from_int(5)
        assert g.coeff(1) == ctx.one()

    def test_square_recenter_oracle(self, ctx):
        # (5 + z')**2 = 25 + 10 z' + z'**2
        f = TateSeries.monomial(ctx, 1, 2)
        g = f.recenter(ctx.from_int(5), 2)
        assert [g.coeff(i) for i in range(3)] == [
            ctx.from_int(25),
            ctx.from_int(10),
            ctx.one(),
        ]

    def test_center_outside_ball(self, ctx):
        f = TateSeries.monomial(ctx, 1, 1)
        with pytest.raises(DomainError):
            f.recenter(ctx.from_int(3), 1)

    def test_level_cannot_drop(self, ctx):
        f = TateSeries.monomial(ctx, 2, 1)
        with pytest.raises(DomainError):
            f.recenter(ctx.from_int(25), 1)


class TestEvaluate:
    def test_constant(self, ctx):
        f = TateSeries.constant(ctx, 1, 1)
        assert f.evaluate(ctx.from_int(5)) == ctx.one()

    def test_square(self, ctx):
        f = TateSeries.monomial(ctx, 1, 2)
        assert f.evaluate(ctx.from_int(5)) == ctx.from_int(25)

    def test_horner_oracle(self, ctx):
        f = poly(ctx, 1, 5, 1, 0, 25)
        assert f.evaluate(ctx.from_int(5)) == ctx.from_int(3135)

    def test_domain_guard(self, ctx):
        f = TateSeries.monomial(ctx, 1, 1)
        with pytest.raises(DomainError):
            f.evaluate(ctx.from_int(2))


class TestRing:
    def test_mul_matches_integer_polynomials(self, ctx):
        f = poly(ctx, 1, 1, 5)
        g = poly(ctx, 1, 2, 0, 25)
        h = f * g
        # (1 + 5z)(2 + 25z**2) = 2 + 10z + 25z**2 + 125z**3
        assert [h.coeff(i) for i in range(4)] == [
            ctx.from_int(2),
            ctx.from_int(10),
            ctx.from_int(25),
            ctx.from_int(125),
        ]

    def test_twist_polynomial_product(self, ctx):
        tw = one_minus_cz_pow(ctx, 1, ctx.from_int(5), 2)
        assert [tw.coeff(i) for i in range(3)] == [
            ctx.one(),
            ctx.from_int(-10),
            ctx.from_int(25),
        ]

    def test_level_mismatch_rejected(self, ctx):
        f = poly(ctx, 1, 1)
        g = poly(ctx, 2, 1)
        with pytest.raises(DomainError):
            f + g


def random_series(ctx, rng, m, max_deg=8):
    coeffs = []
    for _ in range(rng.randint(1, max_deg + 1)):
        coeffs.append(rng.randrange(-(5 ** 6), 5 ** 6))
    tail = max(
        (v for v in ( _wval(c, ctx.p) + m * l for l, c in enumerate(coeffs) if c) ),
        default=0,
    )
    return TateSeries(ctx, m, [ctx.from_int(c) for c in coeffs], tail_bound=tail)


def _wval(n, p):
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


class TestIsometryAndCompatibility:
    """Parameters drawn from the proper congruence range must preserve
    the Banach valuation exactly and commute with evaluation."""

    @pytest.mark.parametrize("m", [1, 2])
    def test_all_four_operations_preserve_val_c(self, ctx, m):
        rng = random.Random(101 + m)
        pm = ctx.p ** m
        for _ in range(40):
            f = random_series(ctx, rng, m)
            base = f.val_c()
            y = ctx.from_int(pm * rng.randrange(1, 50))
            x = ctx.from_int(pm * rng.randrange(1, 50))
            s = ctx.from_int(1 + pm * rng.randrange(1, 50))
            t = ctx.from_int(1 + pm * rng.randrange(1, 50))
            k = rng.randint(2, 5)
            assert f.translate(y).val_c() == base
            assert f.dilate(s).val_c() == base
            assert f.mobius_twist(x, k).val_c() == base
            assert f.inv_torus(t, k).val_c() == base

    def test_translate_evaluation_compatibility(self, ctx):
        rng = random.Random(7)
        for _ in range(25):
            f = random_series(ctx, rng, 1)
            y = ctx.from_int(5 * rng.randrange(1, 100))
            z = ctx.from_int(5 * rng.randrange(1, 100))
            lhs = f.translate(y).evaluate(z)
            rhs = f.evaluate(z - y)
            assert lhs.agrees_with(rhs)

    def test_dilate_evaluation_compatibility(self, ctx):
        rng = random.Random(8)
        for _ in range(25):
            f = random_series(ctx, rng, 1)
            s = ctx.from_int(1 + 5 * rng.randrange(1, 100))
            z = ctx.from_int(5 * rng.randrange(1, 100))
            assert f.dilate(s).evaluate(z).agrees_with(f.evaluate(s * z))

    def test_mobius_evaluation_compatibility(self, ctx):
        rng = random.Random(9)
        for _ in range(25):
            f = random_series(ctx, rng, 1, max_deg=6)
            x = ctx.from_int(5 * rng.randrange(1, 100))
            z = ctx.from_int(5 * rng.randrange(1, 100))
            k = rng.randint(2, 5)
            one_minus = ctx.one() - x * z
            lhs = f.mobius_twist(x, k).evaluate(z)
            rhs = f.evaluate(z / one_minus) * one_minus ** (k - 2)
            # the substituted series truncates at D, so compare inside
            # the absolute window it can actually certify
            d = lhs - rhs
            assert d.is_zero or d.val >= min(ctx.N - ctx.kappa, (ctx.D + 1) * x.val)

    def test_inv_torus_evaluation_compatibility(self, ctx):
        rng = random.Random(10)
        for _ in range(25):
            f = random_series(ctx, rng, 1)
            t = ctx.from_int(1 + 5 * rng.randrange(1, 100))
            z = ctx.from_int(5 * rng.randrange(1, 100))
            k = rng.randint(2, 5)
            lhs = f.inv_torus(t, k).evaluate(z)
            rhs = f.evaluate(z / t) * t ** (k - 2)
            assert lhs.agrees_with(rhs)

    def test_recenter_evaluation_compatibility(self, ctx):
        rng = random.Random(11)
        for _ in range(25):
            f = random_series(ctx, rng, 1)
            a = ctx.from_int(5 * rng.randrange(0, 100))
            z = ctx.from_int(25 * rng.randrange(1, 100))
            assert f.recenter(a, 2).evaluate(z).agrees_with(f.evaluate(a + z))


small_coeffs = st.lists(
    st.integers(min_value=-(5 ** 5), max_value=5 ** 5), min_size=1, max_size=6
)


class TestSubadditivity:
    @given(aa=small_coeffs, bb=small_coeffs)
    @settings(max_examples=60)
    def test_product_and_sum_bounds(self, ctx, aa, bb):
        f = poly(ctx, 1, *aa)
        g = poly(ctx, 1, *bb)
        fg = f * g
        if not fg.is_zero:
            assert fg.val_c() >= f.val_c() + g.val_c()
        s = f + g
        if not s.is_zero:
            assert s.val_c() >= min(f.val_c(), g.val_c())

    @given(aa=small_coeffs, c=st.integers(min_value=-(5 ** 5), max_value=5 ** 5).filter(bool))
    @settings(max_examples=60)
    def test_scaling_shifts_val_c(self, ctx, aa, c):
        f = poly(ctx, 1, *aa)
        if f.is_zero:
            return
        gain = ctx.from_int(c).val
        assert f.scale(c).val_c() == f.val_c() + gain


class TestConstruction:
    def test_degree_cap(self, ctx):
        with pytest.raises(ParameterError):
            TateSeries(ctx, 0, [1] * (ctx.D + 2))

    def test_trailing_zeros_stripped(self, ctx):
        f = TateSeries(ctx, 0, [1, 0, 0])
        assert f.degree == 0

    def test_negative_level_rejected(self, ctx):
        with pytest.raises(ParameterError):
            TateSeries(ctx, -1, [1])

    def test_agrees_mod_absolute_window(self, ctx):
        f = poly(ctx, 1, 1, 5)
        g = f + poly(ctx, 1, 5 ** 35)
        assert f.agrees_mod(g, 35)
        assert not f.agrees_mod(g, 36)


# -- the integer Taylor-shift kernel against the PadicNumber loops ------------
#
# The oracles below are the PadicNumber loops the kernel replaced.  The
# kernel promises bit-identical stored digits, so every comparison is exact
# equality of (val, unit), never agreement at precision.


def _oracle_shift(f, c):
    """b_v = sum_{l >= v} a_l binom(l, v) c^(l-v), summed left to right."""
    ctx = f.ctx
    c_pow = [ctx.one()]
    for _ in range(max(f.degree, 0)):
        c_pow.append(c_pow[-1] * c)
    out = []
    for v in range(f.degree + 1):
        acc, floor = ctx.zero(), INF
        for l in range(v, f.degree + 1):
            a = f.coeffs[l]
            if not a.is_zero:
                term = a * ctx.binom(l, v) * c_pow[l - v]
                acc = acc + term
                floor = min(floor, term.val)
        out.append((acc, floor + ctx.N))
    return out


def _oracle_translate(f, y):
    return TateSeries(f.ctx, f.m, [b for b, _ in _oracle_shift(f, -y)], f.tail_bound)


def _oracle_recenter(f, a, new_m):
    return TateSeries(f.ctx, new_m, [b for b, _ in _oracle_shift(f, a)], f.tail_bound)


def _oracle_re_expand(ctx, lf, m):
    sums = _oracle_shift(lf.series, -ctx.from_int(lf.center))
    coeffs = [b for b, _ in sums]
    cand = TateSeries(ctx, m, coeffs)
    if lf.series.tail_bound is not INF:
        cand = TateSeries(ctx, m, coeffs, cand.stored_val_c())
    return cand, [ceiling for _, ceiling in sums]


def _oracle_raw_mobius(f, x):
    ctx = f.ctx
    x_pow = [ctx.one()]
    for _ in range(ctx.D):
        x_pow.append(x_pow[-1] * x)
    cs = []
    for j in range(ctx.D + 1):
        acc = ctx.zero()
        for q in range(max(0, j - f.degree), j + 1):
            a = f.coeffs[j - q]
            if not a.is_zero:
                b = ctx.binom(j - 1, q)
                if not b.is_zero:
                    acc = acc + a * b * x_pow[q]
        cs.append(acc)
    # an exact constant maps to itself
    tail = INF if f.tail_bound is INF and f.degree <= 0 else f.val_c()
    return TateSeries(ctx, f.m, cs, tail)


def _oracle_evaluate_tracked(f, z):
    ctx = f.ctx
    acc, floor, pw = ctx.zero(), INF, ctx.one()
    for l, a in enumerate(f.coeffs):
        if l:
            pw = pw * z
        term = a * pw
        acc = acc + term
        if not term.is_zero:
            floor = min(floor, term.val)
    return acc, floor + ctx.N


def _oracle_mul(f, g):
    ctx = f.ctx
    if not f.coeffs or not g.coeffs:
        prod_tail = INF if (f.is_zero or g.is_zero) else f.val_c() + g.val_c()
        return TateSeries(ctx, f.m, (), prod_tail)
    top = min(ctx.D, f.degree + g.degree)
    cs = [ctx.zero() for _ in range(top + 1)]
    for i, a in enumerate(f.coeffs):
        if a.is_zero:
            continue
        for j, b in enumerate(g.coeffs):
            if i + j > top:
                break
            if not b.is_zero:
                cs[i + j] = cs[i + j] + a * b
    exact = (
        f.tail_bound is INF
        and g.tail_bound is INF
        and f.degree + g.degree <= ctx.D
    )
    tb = INF if exact else f.val_c() + g.val_c()
    return TateSeries(ctx, f.m, cs, tb)


def _oracle_mobius_poly(ctx, m, coeffs, lam, mu, e):
    cs = [ctx.zero() for _ in range(e + 1)]
    neg_mu_pow = [ctx.one()]
    for _ in range(e):
        neg_mu_pow.append(neg_mu_pow[-1] * (-mu))
    lam_pow = ctx.one()
    for j, b in enumerate(coeffs):
        if j:
            lam_pow = lam_pow * lam
        if b.is_zero:
            continue
        w = b * lam_pow
        for i in range(e - j + 1):
            cs[j + i] = cs[j + i] + w * ctx.binom(e - j, i) * neg_mu_pow[i]
    return TateSeries(ctx, m, cs)


def _oracle_one_minus_cz_pow(ctx, m, c, e):
    return TateSeries(ctx, m, [ctx.binom(e, i) * (-c) ** i for i in range(e + 1)])


def _dropped_summands(f, c):
    """(summands N or more digits above their nonzero partial sum, those
    exactly N above, all nonzero summands) over every b_v of the shift."""
    ctx = f.ctx
    dropped = at_edge = total = 0
    for v in range(f.degree + 1):
        acc = ctx.zero()
        for l in range(v, f.degree + 1):
            a = f.coeffs[l]
            if a.is_zero:
                continue
            term = a * ctx.binom(l, v) * c ** (l - v)
            total += 1
            if not acc.is_zero and term.val - acc.val >= ctx.N:
                dropped += 1
                at_edge += term.val - acc.val == ctx.N
            acc = acc + term
    return dropped, at_edge, total


def _rand_unit(ctx, rng):
    unit = rng.randrange(1, ctx.pN)
    while unit % ctx.p == 0:
        unit = rng.randrange(1, ctx.pN)
    return unit


def _kernel_series(ctx, rng, m, degree, lo=-2, spread=6):
    """Degree-exact series with zero coefficients and valuations from lo."""
    cs = []
    for l in range(degree + 1):
        if l < degree and rng.random() < 0.2:
            cs.append(ctx.zero())
            continue
        cs.append(PadicNumber(ctx, rng.randint(lo, lo + spread), _rand_unit(ctx, rng),
                              _checked=True))
    return TateSeries(ctx, m, cs, rng.choice([INF, lo]))


class TestTaylorShiftKernel:
    """translate, recenter, _re_expand, evaluate_tracked, the product and
    twisted_mobius for e = 0 (raw_mobius), for deg S <= e and for S = 1
    (one_minus_cz_pow) give exactly the digits (and, for _re_expand and
    evaluate_tracked, the ceilings) of the PadicNumber loops."""

    CONTEXTS = [
        PadicContext(5, 40, 64),
        PadicContext(3, 4, 64),
        PadicContext(7, 6, 64),
        PadicContext(3, 2, 64, kappa=1),
    ]

    def _check_all(self, f, rng):
        ctx = f.ctx
        p = ctx.p
        y = ctx.from_int(p ** (f.m + rng.randrange(3)) * rng.randrange(1, p ** 4))
        assert f.translate(y) == _oracle_translate(f, y)
        assert f.recenter(y, f.m + 1) == _oracle_recenter(f, y, f.m + 1)
        x = ctx.from_int(p ** max(1, f.m) * rng.randrange(1, p ** 4))
        one = ctx.one()
        assert f.raw_mobius(x) == _oracle_raw_mobius(f, x)
        assert twisted_mobius(f, one, x, 0) == f.raw_mobius(x)
        level = f.m + 1
        center = rng.randrange(1, p ** level)
        leaf = Leaf(center, level, TateSeries(ctx, level, f.coeffs, f.tail_bound))
        assert _re_expand(ctx, leaf, f.m) == _oracle_re_expand(ctx, leaf, f.m)
        for z in (y, ctx.zero()):
            assert f.evaluate_tracked(z) == _oracle_evaluate_tracked(f, z)
        g = _kernel_series(ctx, rng, f.m, rng.randrange(ctx.D + 1))
        assert f * g == _oracle_mul(f, g)
        assert g * f == _oracle_mul(g, f)
        e = rng.randint(0, 6)
        lam = PadicNumber(ctx, 0, _rand_unit(ctx, rng), _checked=True)
        mu = PadicNumber(ctx, rng.randint(1, 3), _rand_unit(ctx, rng), _checked=True)
        low = f.coeffs[:e + 1]
        assert twisted_mobius(TateSeries(ctx, f.m, low), lam, mu, e) == _oracle_mobius_poly(
            ctx, f.m, low, lam, mu, e)
        one_s = TateSeries.constant(ctx, f.m, 1)
        assert twisted_mobius(one_s, one, mu, e) == _oracle_one_minus_cz_pow(ctx, f.m, mu, e)
        assert one_minus_cz_pow(ctx, f.m, mu, e) == _oracle_one_minus_cz_pow(ctx, f.m, mu, e)
        # e = 0 with lam != 1: the untwisted mobius step of the leafwise action
        assert twisted_mobius(f, lam, mu, 0) == _oracle_raw_mobius(
            f.raw_scale(lam), mu)

    @pytest.mark.parametrize("degree", [0, 1, 2, 5, 64])
    @pytest.mark.parametrize("lo", [0, -2])
    def test_random_series_all_routes(self, degree, lo):
        rng = random.Random(1000 * degree + lo)
        for ctx in self.CONTEXTS:
            for m in (0, 1, 2):
                self._check_all(_kernel_series(ctx, rng, m, degree, lo), rng)

    @pytest.mark.parametrize("degree", [1, 2, 5, 64])
    def test_far_apart_valuations_take_the_d_ge_n_branch(self, degree):
        # N = 4 with valuations spread over 20 digits: most partial sums
        # absorb a summand N or more digits below them unchanged
        rng = random.Random(degree)
        ctx = PadicContext(3, 4, 64)
        for m in (0, 1):
            self._check_all(_kernel_series(ctx, rng, m, degree, lo=-2, spread=20), rng)

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_full_cancellation(self, ctx, n):
        # (z - c)^n recentred by c is z^n: every lower coefficient cancels
        c = ctx.from_int(5 * 7)
        f = TateSeries.monomial(ctx, 1, n).recenter(-c, 1)
        assert f.degree == n
        g = f.recenter(c, 1)
        assert g == _oracle_recenter(f, c, 1)
        assert g.coeffs[:n] == tuple(ctx.zero() for _ in range(n))
        assert g.translate(c) == _oracle_translate(g, c)
        # the leaf at centre 7 carries (z' + 7)^n, which re-expands to z^n
        s = TateSeries.monomial(ctx, 0, n).recenter(ctx.from_int(7), 0)
        leaf = Leaf(7, 2, TateSeries(ctx, 2, s.coeffs))
        cand, ceilings = _re_expand(ctx, leaf, 0)
        assert (cand, ceilings) == _oracle_re_expand(ctx, leaf, 0)
        assert cand.coeffs[:n] == tuple(ctx.zero() for _ in range(n))
        assert INF not in ceilings

    def test_zero_and_constant_series(self, ctx):
        rng = random.Random(7)
        for coeffs in ((), (0, 0, 3), (2,)):
            self._check_all(TateSeries(ctx, 1, coeffs), rng)

    @pytest.mark.parametrize("p, D", [(5, 64), (3, 40)])
    @pytest.mark.parametrize("cv", [3, 4])
    def test_most_summands_fall_below_the_rounding(self, p, D, cv):
        # val(c) >= 3 with N = 8: a summand three or more places past v lies
        # at least 9 digits up, where the partial sum keeps none, so the kernel
        # skips it without computing its unit; its valuation still counts
        # towards the floor
        ctx = PadicContext(p, 8, D)
        rng = random.Random(10 * p + cv)
        f = _kernel_series(ctx, rng, 0, D, lo=0, spread=2)
        c = PadicNumber(ctx, cv, rng.randrange(1, ctx.pN, p), _checked=True)
        dropped, at_edge, total = _dropped_summands(f, c)
        assert dropped > total // 2 and at_edge
        coeffs, floors = _taylor_shift(f.coeffs, c)
        expected = _oracle_shift(f, c)
        assert coeffs == [b for b, _ in expected]
        assert [fl + ctx.N for fl in floors] == [ceiling for _, ceiling in expected]
        # raw_mobius (x^q) and evaluate_tracked (z^l) sum through the same
        # kernel and skip the same way; at val(z) = cv - 1 some summand of the
        # evaluation lies just below the N-digit edge
        assert f.raw_mobius(c) == _oracle_raw_mobius(f, c)
        for z in (c, c / ctx.from_int(p)):
            assert f.evaluate_tracked(z) == _oracle_evaluate_tracked(f, z)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_low_precision_sums_keep_the_first_factor_order(self, N):
        # p = 3 with one to three digits and small coefficients: partial sums
        # cancel and round often, so adding c_n = sum_i a_i b_(n-i) by
        # ascending j = n - i instead gives other digits for many f, g
        ctx = PadicContext(3, N, 16, kappa=0)
        rng = random.Random(N)
        small = [0, 1, -1, 2, -2, 3, -3, 4]
        order_sensitive = 0
        for _ in range(300):
            f, g = (TateSeries(ctx, 0, [rng.choice(small) for _ in range(rng.randint(1, 8))])
                    for _ in range(2))
            assert f * g == _oracle_mul(f, g)
            order_sensitive += _oracle_mul(f, g) != _oracle_mul(g, f)
            e = rng.randint(0, 6)
            lam = ctx.from_int(rng.choice([1, -1, 2, -2, 4]))
            mu = ctx.from_int(rng.choice([3, -3, 6, 12, 9]))
            low = f.coeffs[:e + 1]
            assert twisted_mobius(TateSeries(ctx, 0, low), lam, mu, e) == _oracle_mobius_poly(
                ctx, 0, low, lam, mu, e)
        assert order_sensitive > 10

    @pytest.mark.parametrize("e", [0, 1, 5])
    def test_zero_twist_parameter_gives_the_constant_one(self, ctx, e):
        assert one_minus_cz_pow(ctx, 1, ctx.zero(), e) == TateSeries.constant(ctx, 1, 1)

    @pytest.mark.parametrize("e", [-1, 5, 18])
    def test_twist_exponent_outside_zero_to_d_is_refused(self, e):
        # e = 18 > 2D also lies past the factorial table
        ctx = PadicContext(5, 10, 4)
        with pytest.raises(ParameterError, match="twist exponent"):
            one_minus_cz_pow(ctx, 0, ctx.from_int(5), e)
        with pytest.raises(ParameterError, match="twist exponent"):
            twisted_mobius(TateSeries.constant(ctx, 0, 1), ctx.one(), ctx.from_int(5), e)

    @pytest.mark.parametrize("raised", [False, True])
    def test_summand_after_cancellation_is_added(self, raised):
        # b_0 = 1 + a_1 c + c^3 with c = p^3 and N = 8.  The first two summands
        # cancel to 0, or to p^2; the third, p^9, lies 9 digits above the first
        # summand but must still enter the sum: b_0 = p^9, or p^2 + p^9
        p = 5
        ctx = PadicContext(p, 8, 16)
        c = ctx.from_int(p ** 3)
        a1 = Fraction(p ** 2 - 1 if raised else -1, p ** 3)
        f = TateSeries(ctx, 0, [1, a1, p ** 3])
        coeffs, floors = _taylor_shift(f.coeffs, c)
        expected = _oracle_shift(f, c)
        assert coeffs == [b for b, _ in expected]
        assert [fl + ctx.N for fl in floors] == [ceiling for _, ceiling in expected]
        assert coeffs[0] == ctx.from_int((p ** 2 if raised else 0) + p ** 9)


#: extra digits of the context that stands in for the exact image
EXTRA_DIGITS = 150


def _assert_within_contract(series, exact):
    """Every coefficient a_l of series agrees with the exact image, read up
    to z^D of series' context, modulo p^(val_C - m l + N - kappa), m the ball
    level."""
    ctx, hi = series.ctx, exact.ctx
    need = series.val_c() + ctx.N - ctx.kappa
    for l in range(ctx.D + 1):
        gap = (exact.coeff(l) - hi.num(series.coeff(l).to_fraction())).val
        assert gap >= need - series.m * l, (l, gap, need - series.m * l)


def _product_route(f, lam, mu, e):
    """S(lam z / (1 - mu z)) (1 - mu z)^e as the untwisted substitution times
    the twist, through the PadicNumber loops: two rounded sums per coefficient."""
    return _oracle_mul(_oracle_raw_mobius(f.raw_scale(lam), mu),
                       _oracle_one_minus_cz_pow(f.ctx, f.m, mu, e))


class TestTwistedMobiusContract:
    """For deg S > e >= 1, twisted_mobius rounds one sum per coefficient where
    the product route rounds two, so their digits may differ.  Both agree with
    the exact image (the product route run with EXTRA_DIGITS more digits)
    inside the precision contract."""

    CONTEXTS = [PadicContext(5, 40, 64), PadicContext(3, 12, 32), PadicContext(7, 20, 24)]

    @staticmethod
    def _check(f, lam, mu, e, got):
        ctx = f.ctx
        hi = PadicContext(ctx.p, ctx.N + EXTRA_DIGITS, ctx.D, ctx.kappa)
        lift = [hi.num(a.to_fraction()) for a in (lam, mu)]
        fh = TateSeries(hi, f.m, [a.to_fraction() for a in f.coeffs], f.tail_bound)
        exact = _product_route(fh, *lift, e)
        assert got.tail_bound == got.val_c() == f.val_c()
        _assert_within_contract(got, exact)
        _assert_within_contract(_product_route(f, lam, mu, e), exact)

    @pytest.mark.parametrize("ci", range(3), ids=["p5", "p3", "p7"])
    def test_one_sum_meets_the_contract(self, ci):
        ctx = self.CONTEXTS[ci]
        rng = random.Random(ci)
        for m in (0, 1, 2):
            for e in (1, 2, 5):
                f = _kernel_series(ctx, rng, m, rng.randint(e + 1, ctx.D))
                lam = PadicNumber(ctx, 0, _rand_unit(ctx, rng), _checked=True)
                mu = PadicNumber(ctx, rng.randint(max(1, m), 3), _rand_unit(ctx, rng),
                                 _checked=True)
                self._check(f, lam, mu, e, twisted_mobius(f, lam, mu, e))
                self._check(f, ctx.one(), mu, e, f.mobius_twist(mu, e + 2))
