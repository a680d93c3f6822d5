"""Truncated series on closed balls: frozen expansion oracles and the
Banach-valuation laws the operations must respect."""

import operator
import random
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpadic import series
from rigidpadic.actions import I1, InductionCharacter, IwahoriElement, act
from rigidpadic.errors import DomainError, ParameterError
from rigidpadic.functions import Leaf, _re_expand
from rigidpadic.padic import INF, PadicContext, PadicNumber
from rigidpadic.series import TateSeries, _offset_sums, _taylor_shift, twisted_mobius
from exact_image import assert_meets_contract, twisted_image


def poly(ctx, m, *ints):
    return TateSeries(ctx, m, [ctx.from_int(n) for n in ints])


def diag(ctx, s, t):
    """diag(s, t) in I(1): acts as f(z) -> f(s z / t) t^(k - 2)."""
    return IwahoriElement(ctx, s, 0, 0, t, I1)


def weight(ctx, k):
    """A weight-k character; only k enters the action."""
    return InductionCharacter(ctx.one(), ctx.one(), k, strict=False)


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
    """f(z) -> f(s z) is the action of diag(s, 1)."""

    def test_identity_at_one(self, ctx):
        f = poly(ctx, 1, 2, 0, 11)
        assert act(diag(ctx, 1, 1), f, weight(ctx, 2)) == f

    def test_square_scaling_oracle(self, ctx):
        f = TateSeries.monomial(ctx, 0, 2)
        g = act(diag(ctx, 6, 1), f, weight(ctx, 2))
        assert g.degree == 2
        assert g.coeff(2) == ctx.from_int(36)

    def test_constants_fixed(self, ctx):
        f = TateSeries.constant(ctx, 1, 9)
        assert act(diag(ctx, 6, 1), f, weight(ctx, 3)) == f

    def test_domain_guard(self, ctx):
        # s - 1 must vanish to the ball level: diag(6, 1) is not in G(2)
        f = TateSeries.monomial(ctx, 2, 1)
        with pytest.raises(DomainError, match=r"G\(2\)"):
            act(diag(ctx, 6, 1), f, weight(ctx, 2))


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
        # 5**v z / (1 - 5 z) = sum 5**(v + j - 1) z**j on 5 Z_5, val_C = v + 1.
        # c_j is stored exactly while v + j - 1 < max(val_C, 0) + N: up to
        # j = 41 for v = 0, where every c_j meets the bound lo + j of
        # _twisted_sums, and up to j = 42 for v = -2, where val_C + N would
        # stop at j = 41.  The tail certificate covers the c_j past it
        for v, stored in ((0, 41), (-2, 42)):
            f = TateSeries(ctx, 1, [0, Fraction(5) ** v])
            g = f.mobius_twist(ctx.from_int(5), 2)
            assert g.degree == stored
            assert g.coeff(0).is_zero
            for j in range(1, stored + 1):
                assert g.coeff(j) == ctx.from_fraction(Fraction(5) ** (v + j - 1))
            cut = max(f.val_c(), 0) + ctx.N
            assert all(v + j - 1 >= cut for j in range(stored + 1, ctx.D + 1))
            assert g.tail_bound == f.val_c() == v + 1

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
    """f(z) -> f(z / t) t^(k - 2) is the action of diag(1, t) at weight k."""

    def test_identity_at_one(self, ctx):
        f = poly(ctx, 1, 3, 1)
        assert act(diag(ctx, 1, 1), f, weight(ctx, 2)) == f

    def test_weight_four_constant_oracle(self, ctx):
        f = TateSeries.constant(ctx, 1, 1)
        g = act(diag(ctx, 1, 6), f, weight(ctx, 4))
        assert g.degree == 0
        assert g.coeff(0) == ctx.from_int(36)

    def test_weight_two_geometric_oracle(self, ctx):
        # z / (1 + p): the reciprocal is exact in the coefficient field
        f = TateSeries.monomial(ctx, 1, 1)
        g = act(diag(ctx, 1, 6), f, weight(ctx, 2))
        assert g.degree == 1
        assert g.coeff(1) == ctx.from_fraction(Fraction(1, 6))

    def test_domain_guard(self, ctx):
        f = TateSeries.monomial(ctx, 2, 1)
        with pytest.raises(DomainError, match=r"G\(2\)"):
            act(diag(ctx, 1, 6), f, weight(ctx, 2))

    def test_non_unit_refused_at_level_zero(self, ctx):
        # t = 5 would send f(z / 5) off the ball, and diag(1, 5) is not in I(1)
        with pytest.raises(DomainError, match="declared level"):
            diag(ctx, 1, 5)


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
        tw = twisted_mobius(TateSeries.constant(ctx, 1, 1), ctx.one(), ctx.from_int(5), 2)
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
            assert act(diag(ctx, s, 1), f, weight(ctx, k)).val_c() == base
            assert f.mobius_twist(x, k).val_c() == base
            assert act(diag(ctx, 1, t), f, weight(ctx, k)).val_c() == base

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
            lhs = act(diag(ctx, s, 1), f, weight(ctx, 2)).evaluate(z)
            assert lhs.agrees_with(f.evaluate(s * z))

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
            lhs = act(diag(ctx, 1, t), f, weight(ctx, k)).evaluate(z)
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

    def test_level_must_be_an_integer(self, ctx):
        # True == 1, but io.wrap would write "m": true, which io.load refuses
        for m in (True, False, 1.5, 1.0):
            with pytest.raises(ParameterError, match=f"an integer >= 0, got {m}"):
                TateSeries(ctx, m, [1, 5])

    def test_agrees_mod_absolute_window(self, ctx):
        f = poly(ctx, 1, 1, 5)
        g = f + poly(ctx, 1, 5 ** 35)
        assert f.agrees_mod(g, 35)
        assert not f.agrees_mod(g, 36)

    def test_comparisons_refuse_another_context(self, ctx):
        f = TateSeries(PadicContext(5, 20, 16), 0, [1, 2])
        g = TateSeries(PadicContext(3, 20, 16), 0, [1, 2])
        with pytest.raises(ParameterError, match="different contexts"):
            f.agrees_with(g)
        with pytest.raises(ParameterError, match="different contexts"):
            f.agrees_mod(g, 10)
        # another ball level of the same context is a plain disagreement
        assert not f.agrees_with(TateSeries(f.ctx, 1, [1, 2]))
        assert not f.agrees_mod(TateSeries(f.ctx, 1, [1, 2]), 10)

    def test_unit_scaling_returns_its_input(self, ctx):
        f = poly(ctx, 1, 3, 5, 7)
        assert f.scale(1) is f
        # the ratio path of the leafwise action (b = 0): a_l -> a_l 2^l
        assert (tuple(series._scaled(ctx, f.pairs, (0, 1), (0, 2)))
                == TateSeries(ctx, 1, [3, 10, 28]).pairs)

    def test_variable_scaling_needs_a_unit_ratio(self, ctx):
        # ratio = 5 stores the unit 1, as ratio = 1 does
        f = poly(ctx, 1, 3, 5, 7)
        five = ctx.from_int(5)
        for c in (ctx.one(), ctx.from_int(3)):
            with pytest.raises(DomainError, match="unit factor"):
                series._scaled(ctx, f.pairs, (c.val, c.unit), (five.val, five.unit))


# -- the series kernel against exact sums -------------------------------------
#
# Every kernel route stores, per output, the exact sum of its summands (each
# a product of stored values and an exact binomial) reduced modulo
# p^(floor + N), floor the least summand valuation, and reports floor + N as
# the ceiling.  The oracle sums the summands as Fractions, so every
# comparison is exact equality of (val, unit), never agreement at precision.


def _exact_sum(ctx, terms):
    """((val, unit), ceiling) of the exact sum of the Fractions terms modulo
    p^(floor + N), floor the least valuation of a nonzero term; ((INF, 0), INF)
    for none.  Over a common denominator, floor is the valuation of the gcd
    of the numerators."""
    p, pN = ctx.p, ctx.pN
    terms = [t for t in terms if t]
    if not terms:
        return (INF, 0), INF
    den = lcm(*(t.denominator for t in terms))
    nums = [t.numerator * (den // t.denominator) for t in terms]
    floor = _wval(gcd(*nums), p) - _wval(den, p)
    y = Fraction(sum(nums), den) / Fraction(p) ** floor
    r = y.numerator * pow(y.denominator, -1, pN) % pN
    if not r:
        return (INF, 0), floor + ctx.N
    k = _wval(r, p)
    return (floor + k, r // p ** k), floor + ctx.N


def _assert_exact(ctx, got, sums, ceilings=None):
    """got (coefficients) and ceilings are the exact sums of sums' summands."""
    want = [_exact_sum(ctx, terms) for terms in sums]
    pairs = [(c.val, c.unit) for c in got]
    exact = [pair for pair, _ in want]
    for xs in (pairs, exact):
        while xs and xs[-1] == (INF, 0):
            xs.pop()
    assert pairs == exact
    if ceilings is not None:
        assert list(ceilings) == [ceiling for _, ceiling in want]


def _shift_terms(coeffs, c):
    """Summands of b_v = sum_{l >= v} a_l binom(l, v) c^(l-v), per v."""
    cq, aq = c.to_fraction(), [a.to_fraction() for a in coeffs]
    cpow = [cq ** k for k in range(len(coeffs))]
    return [[aq[l] * comb(l, v) * cpow[l - v] for l in range(v, len(coeffs))]
            for v in range(len(coeffs))]


def _gbinom(n, k):
    """binom(n, k) for any integer n and k >= 0."""
    return prod(range(n, n - k, -1)) // factorial(k)


def _twisted_terms(f, lam, mu, e):
    """Summands of c_j = sum_{l <= j} a_l lam^l binom(e - l, j - l) (-mu)^(j - l)
    for j <= D, or j <= e when deg S <= e."""
    top = f.ctx.D if f.degree > e else e
    lq, mq = lam.to_fraction(), -mu.to_fraction()
    aq = [a.to_fraction() * lq ** l for l, a in enumerate(f.coeffs)]
    mpow = [mq ** q for q in range(top + 1)]
    return [[aq[l] * _gbinom(e - l, j - l) * mpow[j - l] for l in range(min(j, f.degree) + 1)]
            for j in range(top + 1)]


def _assert_twisted(f, lam, mu, e, got):
    """got stores the exact sums up to its degree.  Past it, each c_j up to
    D either rounds to zero as an exact sum or has every summand at or above
    max(val_C, 0) + N, where the tail certificate covers it."""
    ctx = f.ctx
    sums = _twisted_terms(f, lam, mu, e)
    _assert_exact(ctx, got.coeffs, sums[:got.degree + 1])
    cut = max(f.val_c(), 0) + ctx.N
    for terms in sums[got.degree + 1:]:
        assert _exact_sum(ctx, terms)[0] == (INF, 0) or all(
            _wval(t.numerator, ctx.p) - _wval(t.denominator, ctx.p) >= cut for t in terms if t)
    assert got.m == f.m
    assert got.tail_bound == (INF if f.tail_bound is INF and f.degree <= e else f.val_c())


def _product_terms(f, g):
    top = min(f.ctx.D, f.degree + g.degree)
    fq, gq = ([a.to_fraction() for a in h.coeffs] for h in (f, g))
    return [[fq[i] * gq[n - i] for i in range(max(0, n - g.degree), min(n, f.degree) + 1)]
            for n in range(top + 1)]


def _assert_product(f, g):
    got = f * g
    _assert_exact(f.ctx, got.coeffs, _product_terms(f, g))
    exact = f.tail_bound is INF and g.tail_bound is INF and f.degree + g.degree <= f.ctx.D
    assert got.tail_bound == (INF if exact else f.val_c() + g.val_c())


def _assert_evaluation(f, z):
    total, ceiling = f.evaluate_tracked(z)
    zq = z.to_fraction()
    _assert_exact(f.ctx, [total], [[a.to_fraction() * zq ** l for l, a in enumerate(f.coeffs)]],
                  [ceiling])


def _nums(ctx, pairs):
    """Kernel (val, unit) pairs read as PadicNumbers."""
    return [PadicNumber(ctx, v, u, _checked=True) for v, u in pairs]


def _shift(coeffs, c):
    """_taylor_shift with its pairs read as PadicNumbers."""
    pairs, floors = _taylor_shift(c.ctx, [(a.val, a.unit) for a in coeffs], (c.val, c.unit))
    return _nums(c.ctx, pairs), floors


def _assert_re_expand(ctx, leaf, m):
    pairs, ceilings, tail_bound = _re_expand(ctx, leaf, m)
    cand = TateSeries(ctx, m, _nums(ctx, pairs), tail_bound)
    _assert_exact(ctx, cand.coeffs, _shift_terms(leaf.series.coeffs, -ctx.from_int(leaf.center)),
                  ceilings)
    tail = leaf.series.tail_bound
    if tail is not INF:
        tail = min((b.val + m * l for l, b in enumerate(cand.coeffs) if not b.is_zero),
                   default=tail)
    assert (cand.m, cand.tail_bound) == (m, tail)
    return cand, ceilings


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


def _assert_below_ceilings(coeffs, ceilings):
    """No stored coefficient has a nonzero digit at or above its ceiling."""
    for b, ceiling in zip(coeffs, ceilings):
        assert b.is_zero or b.unit < b.ctx.p ** (ceiling - b.val), (b.val, b.unit, ceiling)


class TestTaylorShiftKernel:
    """translate, recenter, the shift itself, _re_expand, evaluate_tracked,
    the product and twisted_mobius (both halves, raw_mobius, mobius_twist
    and the twist (1 - mu z)^e of the constant 1) store exactly the exact
    sums of their summands modulo p^(floor + N) and report floor + N as
    their ceilings."""

    CONTEXTS = [
        PadicContext(5, 40, 64),
        PadicContext(3, 4, 64, kappa=3),
        PadicContext(7, 6, 64),
        PadicContext(3, 2, 64, kappa=1),
    ]

    def _check_all(self, f, rng):
        ctx = f.ctx
        p = ctx.p
        y = ctx.from_int(p ** (f.m + rng.randrange(3)) * rng.randrange(1, p ** 4))
        g = f.translate(y)
        _assert_exact(ctx, g.coeffs, _shift_terms(f.coeffs, -y))
        assert (g.m, g.tail_bound) == (f.m, f.tail_bound)
        g = f.recenter(y, f.m + 1)
        _assert_exact(ctx, g.coeffs, _shift_terms(f.coeffs, y))
        assert (g.m, g.tail_bound) == (f.m + 1, f.tail_bound)
        coeffs, floors = _shift(f.coeffs, y)
        _assert_exact(ctx, coeffs, _shift_terms(f.coeffs, y), [fl + ctx.N for fl in floors])
        x = ctx.from_int(p ** max(1, f.m) * rng.randrange(1, p ** 4))
        one = ctx.one()
        _assert_twisted(f, one, x, 0, f.raw_mobius(x))
        level = f.m + 1
        center = rng.randrange(1, p ** level)
        leaf = Leaf(center, level, TateSeries(ctx, level, f.coeffs, f.tail_bound))
        _assert_re_expand(ctx, leaf, f.m)
        for z in (y, ctx.zero()):
            _assert_evaluation(f, z)
        g = _kernel_series(ctx, rng, f.m, rng.randrange(ctx.D + 1))
        _assert_product(f, g)
        _assert_product(g, f)
        e = rng.randint(0, 6)
        lam = PadicNumber(ctx, 0, _rand_unit(ctx, rng), _checked=True)
        mu = PadicNumber(ctx, rng.randint(max(1, f.m), 3), _rand_unit(ctx, rng), _checked=True)
        _assert_twisted(f, lam, mu, e, twisted_mobius(f, lam, mu, e))
        low = TateSeries(ctx, f.m, f.coeffs[:e + 1])
        _assert_twisted(low, lam, mu, e, twisted_mobius(low, lam, mu, e))
        _assert_twisted(f, one, mu, e, f.mobius_twist(mu, e + 2))
        one_s = TateSeries.constant(ctx, f.m, 1)
        _assert_twisted(one_s, one, mu, e, twisted_mobius(one_s, one, mu, e))

    @pytest.mark.parametrize("degree", [0, 1, 2, 5, 64])
    @pytest.mark.parametrize("lo", [0, -2])
    def test_random_series_all_routes(self, degree, lo):
        rng = random.Random(1000 * degree + lo)
        for ctx in self.CONTEXTS:
            for m in (0, 1, 2):
                self._check_all(_kernel_series(ctx, rng, m, degree, lo), rng)

    @pytest.mark.parametrize("degree", [1, 2, 5, 64])
    def test_far_apart_valuations_take_the_d_ge_n_branch(self, degree):
        # N = 4 with valuations spread over 20 digits: many summands lie N
        # or more digits above the running floor, or N or more below it
        rng = random.Random(degree)
        ctx = PadicContext(3, 4, 64, kappa=3)
        for m in (0, 1):
            self._check_all(_kernel_series(ctx, rng, m, degree, lo=-2, spread=20), rng)

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_full_cancellation(self, ctx, n):
        # (z - c)^n recentred by c is z^n: every lower coefficient cancels
        c = ctx.from_int(5 * 7)
        f = TateSeries.monomial(ctx, 1, n).recenter(-c, 1)
        assert f.degree == n
        g = f.recenter(c, 1)
        _assert_exact(ctx, g.coeffs, _shift_terms(f.coeffs, c))
        assert g.coeffs[:n] == tuple(ctx.zero() for _ in range(n))
        _assert_exact(ctx, g.translate(c).coeffs, _shift_terms(g.coeffs, -c))
        # the leaf at centre 7 carries (z' + 7)^n, which re-expands to z^n
        s = TateSeries.monomial(ctx, 0, n).recenter(ctx.from_int(7), 0)
        leaf = Leaf(7, 2, TateSeries(ctx, 2, s.coeffs))
        cand, ceilings = _assert_re_expand(ctx, leaf, 0)
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
        # at least 9 digits up, at or above floor + N, where the sum keeps no
        # digit, so the kernel skips it without computing its unit; its
        # valuation still counts towards the floor
        ctx = PadicContext(p, 8, D)
        rng = random.Random(10 * p + cv)
        f = _kernel_series(ctx, rng, 0, D, lo=0, spread=2)
        c = PadicNumber(ctx, cv, rng.randrange(1, ctx.pN, p), _checked=True)
        sums = _shift_terms(f.coeffs, c)
        total = dropped = at_edge = 0
        for terms in sums:
            vals = [_wval(t.numerator, p) - _wval(t.denominator, p) for t in terms if t]
            top = min(vals, default=INF) + ctx.N
            total += len(vals)
            dropped += sum(v >= top for v in vals)
            at_edge += sum(v == top for v in vals)
        assert dropped > total // 2 and at_edge
        coeffs, floors = _shift(f.coeffs, c)
        _assert_exact(ctx, coeffs, sums, [fl + ctx.N for fl in floors])
        # raw_mobius (x^q) and evaluate_tracked (z^l) sum through the same
        # kernel and skip the same way; at val(z) = cv - 1 some summand of the
        # evaluation lies just below the N-digit edge
        _assert_twisted(f, ctx.one(), c, 0, f.raw_mobius(c))
        for z in (c, c / ctx.from_int(p)):
            _assert_evaluation(f, z)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_low_precision_products_commute(self, N):
        # p = 3 with one to three digits and small coefficients: partial sums
        # cancel often, so rounding each partial sum made f * g and g * f
        # differ for many pairs; the exact sum of c_n does not depend on
        # which factor comes first
        ctx = PadicContext(3, N, 16, kappa=0)
        rng = random.Random(N)
        small = [0, 1, -1, 2, -2, 3, -3, 4]
        for _ in range(300):
            f, g = (TateSeries(ctx, 0, [rng.choice(small) for _ in range(rng.randint(1, 8))])
                    for _ in range(2))
            assert f * g == g * f
            _assert_product(f, g)
            e = rng.randint(0, 6)
            lam = ctx.from_int(rng.choice([1, -1, 2, -2, 4]))
            mu = ctx.from_int(rng.choice([3, -3, 6, 12, 9]))
            _assert_twisted(f, lam, mu, e, twisted_mobius(f, lam, mu, e))

    @pytest.mark.parametrize("e", [0, 1, 5])
    def test_zero_twist_parameter_gives_the_constant_one(self, ctx, e):
        one = TateSeries.constant(ctx, 1, 1)
        assert twisted_mobius(one, ctx.one(), ctx.zero(), e) == one

    @pytest.mark.parametrize("e", [-1, 5, 18])
    def test_twist_exponent_outside_zero_to_d_is_refused(self, e):
        # e = 18 > 2D also lies past the factorial table
        ctx = PadicContext(5, 10, 4)
        with pytest.raises(ParameterError, match="twist exponent"):
            twisted_mobius(TateSeries.constant(ctx, 0, 1), ctx.one(), ctx.from_int(5), e)

    @pytest.mark.parametrize("raised", [False, True])
    def test_summand_after_cancellation_is_added(self, raised):
        # b_0 = 1 + a_1 c + c^3 with c = p^3 and N = 8.  The first two summands
        # cancel to 0, or to p^2; the third, p^9, lies at or above floor + N =
        # 8, so it leaves no digit: b_0 = 0, or p^2, which agrees with the
        # exact value p^9, or p^2 + p^9, modulo p^8
        p = 5
        ctx = PadicContext(p, 8, 16)
        c = ctx.from_int(p ** 3)
        a1 = Fraction(p ** 2 - 1 if raised else -1, p ** 3)
        f = TateSeries(ctx, 0, [1, a1, p ** 3])
        coeffs, floors = _shift(f.coeffs, c)
        _assert_exact(ctx, coeffs, _shift_terms(f.coeffs, c), [fl + ctx.N for fl in floors])
        assert floors[0] == 0
        assert coeffs[0] == (ctx.from_int(p ** 2) if raised else ctx.zero())
        exact = (p ** 2 if raised else 0) + p ** 9
        assert (coeffs[0].to_fraction() - exact) % p ** 8 == 0


class TestFromPairs:
    """TateSeries._from_pairs on kernel outputs gives the series the public
    constructor gives on the same values: trailing zero pairs dropped, the
    same coefficients, tail and hash."""

    @staticmethod
    def _assert_same(ctx, m, pairs, tail):
        got = TateSeries._from_pairs(ctx, m, pairs, tail)
        want = TateSeries(ctx, m, [PadicNumber(ctx, v, u, _checked=True) if u else ctx.zero()
                                   for v, u in pairs], tail)
        assert got == want and hash(got) == hash(want)
        assert (got.m, got.coeffs, got.tail_bound) == (want.m, want.coeffs, want.tail_bound)
        return got

    def test_trailing_zero_pairs(self, ctx):
        # suffix sums of four coefficients asked for at seven outputs: the
        # last three have no summand
        f = TateSeries(ctx, 1, [3, 0, Fraction(7, 5), 25])
        src = [(l, a.val, a.unit) for l, a in enumerate(f.coeffs) if a.unit]
        pairs, floors = _offset_sums(ctx, src, [(0, 1)] * 4, [(v, 0, 1) for v in range(7)])
        assert pairs[4:] == [(INF, 0)] * 3 and floors[4:] == [INF] * 3
        for tail in (INF, 5):
            assert self._assert_same(ctx, 1, pairs, tail).degree == 3

    def test_all_zero_outputs(self, ctx):
        # an empty source, and two summands that cancel exactly
        pN = ctx.pN
        empty, _ = _taylor_shift(ctx, [(INF, 0)] * 3, (1, 1))
        cancelled, floors = _offset_sums(ctx, [(0, 2, 1), (0, 2, pN - 1)], [(0, 1)],
                                         [(0, 0, 1)])
        assert empty == [(INF, 0)] * 3 and cancelled == [(INF, 0)] and floors == [2]
        for pairs in (empty, cancelled, []):
            for tail in (INF, 3):
                got = self._assert_same(ctx, 2, pairs, tail)
                assert got == TateSeries(ctx, 2, [], tail)

    def test_kernel_routes(self, ctx):
        rng = random.Random(5)
        for _ in range(20):
            f = _kernel_series(ctx, rng, 1, rng.randint(0, 8))
            c = ctx.from_int(5 * rng.randrange(1, 99))
            pairs, _ = _taylor_shift(ctx, f.pairs, (c.val, c.unit))
            self._assert_same(ctx, 1, pairs + [(INF, 0)] * rng.randint(0, 3), f.tail_bound)


class TestStoredForm:
    """The (val, unit) pairs are the one stored form of a series: no trailing
    zero pair, coeffs and coeff(l) read them as PadicNumbers, the hash is that
    of (m, coeffs, tail_bound), and _from_pairs stores what the public
    constructor stores."""

    @staticmethod
    def _inputs(ctx, rng):
        for _ in range(40):
            f = _kernel_series(ctx, rng, rng.randint(0, 2), rng.randint(0, 8))
            yield list(f.coeffs) + [ctx.zero()] * rng.randint(0, 3), f.m, f.tail_bound
        for m in (0, 2):
            for tail in (INF, 3):
                yield [], m, tail
                yield [0] * rng.randint(1, 4), m, tail

    def test_random_series(self, ctx):
        rng = random.Random(24)
        for cs, m, tail in self._inputs(ctx, rng):
            f = TateSeries(ctx, m, cs, tail)
            assert all(u for _, u in f.pairs[-1:])
            assert list(f.pairs) == [(c.val, c.unit) for c in f.coeffs]
            assert [f.coeff(l) for l in range(len(cs) + 1)] == [
                f.coeffs[l] if l <= f.degree else ctx.zero() for l in range(len(cs) + 1)]
            assert hash(f) == hash((f.m, f.coeffs, f.tail_bound))
            pairs = [(c.val, c.unit) for c in map(ctx.num, cs)]
            g = TateSeries._from_pairs(ctx, m, pairs, tail)
            assert g == f and hash(g) == hash(f) and g.pairs == f.pairs


class TestSumOnPairs:
    """TateSeries.__add__ and __sub__ run padic._pair_sum on the stored pairs:
    they build no PadicNumber, and each coefficient is the scalar sum."""

    def test_sum_builds_no_scalar(self, ctx, monkeypatch):
        f, g = TateSeries(ctx, 1, [3, 5, 0, 7, 25], 9), TateSeries(ctx, 1, [-3, 1, 2])
        made, real = [], PadicNumber.__init__
        monkeypatch.setattr(PadicNumber, "__init__",
                            lambda self, *a, **k: made.append(1) or real(self, *a, **k))
        sums = [(a, b, a + b, a - b) for a, b in ((f, g), (g, f))]
        monkeypatch.undo()
        assert made == []
        for a, b, plus, minus in sums:
            for s, op in ((plus, operator.add), (minus, operator.sub)):
                padded = list(s.coeffs) + [ctx.zero()] * (5 - len(s.pairs))
                assert padded == [op(a.coeff(l), b.coeff(l)) for l in range(5)]
                assert s.tail_bound == 9


class TestStoredDigitsBelowCeilings:
    """No coefficient stored by the shift, _re_expand or evaluate_tracked has
    a nonzero digit at or above its ceiling: unit < p^(ceiling - val)."""

    @pytest.mark.parametrize("ci", range(4), ids=["p5N40", "p3N4", "p7N6", "p3N2"])
    def test_random_series(self, ci):
        ctx = TestTaylorShiftKernel.CONTEXTS[ci]
        rng = random.Random(ci)
        p = ctx.p
        for m in (0, 1, 2):
            for degree in (2, 5, 16, 64):
                f = _kernel_series(ctx, rng, m, degree, lo=0, spread=3)
                c = ctx.from_int(p ** (m + rng.randrange(3)) * rng.randrange(1, p ** 4))
                coeffs, floors = _shift(f.coeffs, c)
                _assert_below_ceilings(coeffs, [fl + ctx.N for fl in floors])
                leaf = Leaf(rng.randrange(1, p ** (m + 1)), m + 1,
                            TateSeries(ctx, m + 1, f.coeffs, f.tail_bound))
                pairs, ceilings, _ = _re_expand(ctx, leaf, m)
                _assert_below_ceilings(_nums(ctx, pairs), ceilings)
                total, ceiling = f.evaluate_tracked(c)
                _assert_below_ceilings([total], [ceiling])

    def test_cancelled_partial_sum(self):
        # the input of test_summand_after_cancellation_is_added: rounding the
        # cancelled partial sum at its own valuation left p^9 above ceiling 8
        ctx = PadicContext(5, 8, 16)
        f = TateSeries(ctx, 0, [1, Fraction(-1, 125), 125])
        coeffs, floors = _shift(f.coeffs, ctx.from_int(125))
        _assert_below_ceilings(coeffs, [fl + ctx.N for fl in floors])
        total, ceiling = f.evaluate_tracked(ctx.from_int(125))
        _assert_below_ceilings([total], [ceiling])


# -- twisted_mobius against the exact image -------------------------------------


class TestTwistedMobiusContract:
    """For deg S > e >= 1, twisted_mobius rounds one sum per coefficient, so
    its digits need not be the exact sums of the product of the untwisted
    substitution and the twist.  It agrees with the exact image
    S(lam z / (1 - mu z)) (1 - mu z)^e (tests/exact_image.py) inside the
    precision contract."""

    CONTEXTS = [PadicContext(5, 40, 64), PadicContext(3, 12, 32), PadicContext(7, 20, 24)]

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
                assert_meets_contract(twisted_mobius(f, lam, mu, e), twisted_image(f, lam, mu, e))
                assert_meets_contract(f.mobius_twist(mu, e + 2),
                                      twisted_image(f, ctx.one(), mu, e))


class TestTwistedSumsSkipTheEmptyHalf:
    """For an exact S of degree <= e every c_j with j > e is zero, so
    _twisted_sums runs the kernel once, for the j <= e half; the zero series
    runs it not at all."""

    def test_one_kernel_call_up_to_degree_e(self, ctx, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _offset_sums(*args)

        monkeypatch.setattr(series, "_offset_sums", counted)
        lam, mu = ctx.from_int(2), ctx.from_int(15)
        for coeffs, e, tail, want in (([3], 0, INF, 1), ([1, 5], 2, INF, 1),
                                      ([1, 2, 3, 4], 3, INF, 1), ([], 2, INF, 0),
                                      ([], 2, 4, 0), ([1, 5], 2, 4, 1),
                                      ([1, 2, 3, 4], 2, INF, 2)):
            f = TateSeries(ctx, 1, coeffs, tail)
            calls.clear()
            got = twisted_mobius(f, lam, mu, e)
            assert len(calls) == want, (coeffs, e)
            _assert_twisted(f, lam, mu, e, got)

    def test_zero_series_returns_its_own_tail(self, ctx, monkeypatch):
        def refuse(*args):
            raise AssertionError("the zero series ran the kernel")

        monkeypatch.setattr(series, "_offset_sums", refuse)
        lam, mu = (0, 2), (1, 3)
        for tail in (INF, 4, -3):
            for e in (0, 2, ctx.D):
                assert series._twisted_sums(ctx, 1, [], tail, lam, mu, e) == ([], tail)


# -- the kernel's outer rows and its short inputs -------------------------------


SMALL_D_CONTEXTS = [PadicContext(p, 12, D) for p in (3, 5, 7) for D in (0, 1, 2)]


class TestOuterRowsFromTheTable:
    """The outer rows of the Taylor shift and of both halves of
    _twisted_sums are read from the context's FactorialTable.  They equal
    the lists each call used to build, the high half's up to the shift of
    every output index by deg - e - 1, which the kernel does not read (it
    reads l - v = j - l and the order)."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("D", [0, 1, 2, 64])
    def test_rows_equal_the_per_call_lists(self, p, D):
        ctx = PadicContext(p, 12, D)
        fac = ctx.factorials
        fvals, finvs = fac.vals, fac.invs
        assert len(fac.rows) == len(fac.hrows) == 2 * D + 1
        for n in range(1, 2 * D + 2):
            # the Taylor shift of n coefficients
            assert list(fac.rows[:n]) == [(v, -fvals[v], finvs[v]) for v in range(n)]
        for e in range(D + 1):
            assert list(fac.rows[:e + 1]) == [(e - j, -fvals[e - j], finvs[e - j])
                                              for j in range(e, -1, -1)]
            high = fac.hrows[len(fac.hrows) - (D - e):]
            # deg = D + 1 stands for the empty high half at e = D
            for deg in range(e + 1, D + 2):
                want = [(deg - j, fvals[j - e - 1], fac.units[j - e - 1])
                        for j in range(D, e, -1)]
                assert [(v + deg - e - 1, fv, fu) for v, fv, fu in high] == want, (e, deg)

    @pytest.mark.parametrize("ci", range(len(SMALL_D_CONTEXTS)),
                             ids=[f"p{c.p}-D{c.D}" for c in SMALL_D_CONTEXTS])
    def test_twisted_mobius_at_the_ends_of_e(self, ci):
        # e = 0 runs the high half on every a_l with l >= 1; e = D runs the
        # low half alone on rows[:D + 1]
        ctx = SMALL_D_CONTEXTS[ci]
        rng = random.Random(ci)
        for m in (0, 1, 2):
            for degree in range(ctx.D + 1):
                for _ in range(3):
                    f = _kernel_series(ctx, rng, m, degree)
                    lam = PadicNumber(ctx, rng.randint(-1, 1), _rand_unit(ctx, rng),
                                      _checked=True)
                    mu = PadicNumber(ctx, rng.randint(max(1, m), 3), _rand_unit(ctx, rng),
                                     _checked=True)
                    for e in {0, ctx.D}:
                        _assert_twisted(f, lam, mu, e, twisted_mobius(f, lam, mu, e))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_one_pair_shift_is_the_kernel_run(self, p):
        # the old set-up of _taylor_shift on one pair: source (0, v, u),
        # ck[0] = (0, 1) and the outer row (0, 0, 1)
        ctx = PadicContext(p, 6, 8)
        rng = random.Random(p)
        pairs = [(INF, 0)] + [(v, _rand_unit(ctx, rng)) for v in (-3, -1, 0, 2, 7)]
        for v, u in pairs:
            for cv in (0, 1, 4):
                c = (cv, _rand_unit(ctx, rng))
                src = [(0, v, u)] if u else []
                want = _offset_sums(ctx, src, [(0, 1)], [(0, 0, 1)])
                assert _taylor_shift(ctx, [(v, u)], c) == want, (v, u, c)
