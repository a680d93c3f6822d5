"""Exact-valuation arithmetic: frozen oracles plus algebraic properties."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidpadic.padic as padic_mod
from rigidpadic.errors import DivisionError, DomainError, ParameterError
from rigidpadic.padic import (
    INF,
    MAX_DEGREE,
    MAX_PRECISION,
    _ZERO,
    FactorialTable,
    PadicContext,
    _is_prime,
    binom,
    invert,
    padic_log,
    valp,
)
from rigidpadic.verdict import Verdict


class TestValuation:
    def test_valp_of_p_is_one(self, ctx):
        assert valp(ctx.from_int(5)) == 1

    def test_valp_of_unit(self, ctx):
        assert valp(ctx.one()) == 0

    def test_valp_50_is_2(self, ctx):
        # 50 = 2 * 5**2
        assert valp(ctx.from_int(50)) == 2

    def test_zero_valuation_is_infinite(self, ctx):
        assert valp(ctx.zero()) is INF

    def test_negative_valuation_from_fraction(self, ctx):
        assert valp(ctx.from_fraction(Fraction(1, 5))) == -1


class TestInvert:
    def test_invert_one(self, ctx):
        assert invert(ctx.one()) == ctx.one()

    def test_invert_6_mod_25(self):
        # extended Euclid: 6 * 21 = 126 = 1 + 5 * 25
        ctx = PadicContext(p=5, N=2, kappa=1)
        x = invert(ctx.from_int(6))
        assert x.val == 0
        assert x.unit == 21

    def test_invert_p_negates_valuation(self, ctx):
        x = invert(ctx.from_int(5))
        assert x.val == -1
        assert (x * ctx.from_int(5)) == ctx.one()

    def test_invert_zero_raises(self, ctx):
        with pytest.raises(DivisionError):
            invert(ctx.zero())

    def test_invert_involution(self, ctx):
        for n in (3, 7, 12, 5 * 9, 126):
            x = ctx.from_int(n)
            assert invert(invert(x)) == x


class TestBinom:
    def test_small_value(self, ctx):
        assert binom(ctx, 4, 2) == ctx.from_int(6)

    def test_vanishes_above_row(self, ctx):
        assert binom(ctx, 3, 5).is_zero

    def test_kummer_carry_count(self, ctx):
        # C(25,5) = 53130 = 5 * 10626; one carry when adding 5 + 20 in base 5
        assert valp(binom(ctx, 25, 5)) == 1

    def test_row_symmetry(self, ctx):
        for n in range(12):
            for k in range(n + 1):
                assert binom(ctx, n, k) == binom(ctx, n, n - k)

    @pytest.mark.parametrize("N", [1, 3, 20])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_table_matches_math_comb(self, p, N):
        # the oracle reduces the exact integer binomial, never the table
        ctx = PadicContext(p, N, 64, kappa=0)
        top = 2 * ctx.D
        fv = ctx.factorials.vals
        assert len(fv) >= top + 1
        for n in range(top + 1):
            for k in range(n + 1):
                b = ctx.binom(n, k)
                assert b == ctx.from_int(math.comb(n, k)), (n, k)
        # the corners: binom(n, 0) = 1 (n = -1 too), binom(q - 1, q) = 0,
        # and zero for negative n or k
        for n in (-1, -3, 0, 5):
            assert ctx.binom(n, 0) == ctx.one()
        for q in range(1, ctx.D + 1):
            assert ctx.binom(q - 1, q).is_zero
        assert ctx.binom(-1, 2).is_zero and ctx.binom(4, -1).is_zero

    @pytest.mark.parametrize("p", [3, 5])
    def test_refuses_past_2d(self, p):
        ctx = PadicContext(p, 3, 4, kappa=0)
        # contexts differing only in kappa share one table, built to 2D
        assert PadicContext(p, 3, 4, kappa=2).factorials is ctx.factorials
        assert len(FactorialTable(p, 3, 8).invs) == 9
        assert ctx.binom(8, 3) == ctx.from_int(math.comb(8, 3))
        with pytest.raises(ParameterError, match="n <= 2D = 8"):
            ctx.binom(9, 1)
        # the corners are answered before the table is read
        assert ctx.binom(9, 0) == ctx.one() and ctx.binom(9, 10).is_zero
        t = ctx.factorials
        assert len(t.vals) == len(t.units) == len(t.invs) == 2 * ctx.D + 1
        for n in range(len(t.invs)):
            assert t.units[n] * t.invs[n] % ctx.pN == 1


class TestLog:
    def test_log_of_one_is_zero(self, ctx):
        assert padic_log(ctx.one()).is_zero

    def test_log_one_plus_p_partial_sums(self):
        # independent oracle: exact rational partial sums of the
        # alternating series, kept while the term valuation n - valp(n)
        # stays within the window
        ctx = PadicContext(p=5, N=6)
        total = Fraction(0)
        n = 1
        while True:
            term_val = n - _valp_int(n, 5)
            if term_val > ctx.N + 1:
                break
            total += Fraction((-1) ** (n + 1) * 5 ** n, n)
            n += 1
        got = padic_log(ctx.from_int(6))
        assert got.agrees_with(ctx.from_fraction(total))

    def test_log_rejects_non_principal_units(self, ctx):
        with pytest.raises(DomainError):
            padic_log(ctx.from_int(2))
        with pytest.raises(DomainError):
            padic_log(ctx.from_int(5))
        with pytest.raises(DomainError, match="got -1"):
            padic_log(ctx.from_fraction(Fraction(1, 5)))  # not integral

    def test_log_square_doubles(self, ctx):
        u = ctx.from_int(1 + 5 * 13)
        assert padic_log(u * u).agrees_with(padic_log(u) + padic_log(u))

    def test_log_homomorphism_budget(self, ctx):
        u = ctx.from_int(1 + 5 * 2)
        v = ctx.from_int(1 + 25 * 3)
        gap = padic_log(u * v) - padic_log(u) - padic_log(v)
        assert gap.is_zero or gap.val >= ctx.N - ctx.kappa


def _fraction_log_pair(p: int, N: int, r: int):
    """Reference logarithm of the 1-unit with residue r mod p**N: the exact
    Fraction partial sum, cut by padic_log's stopping rule at the wider
    target N + j + 1 (the extra terms lie past the window), with its
    (val, unit) read from the rational itself (unit mod p**N).  Calls no
    library code."""
    if r == 1:
        return INF, 0
    val = _valp_int(r - 1, p)
    rep = r - 1
    target = N + val + 1
    total = Fraction(0)
    power = 1
    n = 1
    ilog = 0
    while True:
        if p ** (ilog + 1) <= n:
            ilog += 1
        if n > 1 and n * val - ilog > target:
            break
        power *= rep
        term = Fraction(power, n)
        total = total + term if n % 2 == 1 else total - term
        n += 1
    vn, vd = _valp_int(total.numerator, p), _valp_int(total.denominator, p)
    un = total.numerator // p ** vn
    ud = total.denominator // p ** vd
    return vn - vd, un * pow(ud, -1, p ** N) % p ** N


class TestLogOracle:
    """padic_log against the exact Fraction partial sum, pair for pair."""

    def test_pairs_match_the_fraction_sum(self):
        rng = random.Random(20201)
        cases = [(p, N, j) for p in (3, 5, 7, 101) for N in (1, 2, 3, 12, 40)
                 for j in range(1, 7)]
        cases += [(3, 200, 1), (5, 200, 1), (7, 200, 2), (5, 200, 3)]
        # here n = 27 and n = 54 have valuation N + j - 1 (inside the window)
        # though n*j passes the cut: floor(log_p n) is what keeps them
        cases += [(3, 24, 1), (3, 51, 1)]
        for p, N, j in cases:
            ctx = PadicContext(p, N, 4, kappa=0)
            for _ in range(3):
                # r = 1 + p**j * t mod p**N with t a unit; r = 1 when j >= N
                r = (1 + p ** j * (rng.randrange(p ** N) * p + rng.randrange(1, p))) % p ** N
                got = padic_log(ctx.from_int(r))
                assert (got.val, got.unit) == _fraction_log_pair(p, N, r), (p, N, r)

    def test_builds_no_fraction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("padic_log built a Fraction")

        ctx = PadicContext(3, 200, 4)
        u = ctx.from_int(1 + 3 * 11)
        want = padic_log(u)
        monkeypatch.setattr(padic_mod, "Fraction", refuse)
        assert padic_log(u) == want
        assert padic_log(ctx.one()).is_zero


def _valp_int(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


nonzero_ints = st.integers(min_value=-(10 ** 9), max_value=10 ** 9).filter(bool)


class TestArithmeticProperties:
    @given(a=nonzero_ints, b=nonzero_ints)
    def test_product_valuation_adds(self, ctx, a, b):
        x, y = ctx.from_int(a), ctx.from_int(b)
        assert valp(x * y) == valp(x) + valp(y)

    @given(a=nonzero_ints, b=nonzero_ints)
    def test_sum_valuation_ultrametric(self, ctx, a, b):
        x, y = ctx.from_int(a), ctx.from_int(b)
        s = x + y
        lo = min(valp(x), valp(y))
        assert s.is_zero or valp(s) >= lo
        if valp(x) != valp(y):
            assert valp(s) == lo

    @given(a=nonzero_ints, b=nonzero_ints)
    def test_subtraction_recovers_addend(self, ctx, a, b):
        # the round trip is only visible inside the absolute window of
        # the intermediate sum, so compare there rather than relatively
        x, y = ctx.from_int(a), ctx.from_int(b)
        d = ((x + y) - y) - x
        window = min(valp(x), valp(y)) + ctx.N - ctx.kappa
        assert d.is_zero or valp(d) >= window

    @given(a=nonzero_ints)
    def test_division_round_trip(self, ctx, a):
        x = ctx.from_int(a)
        assert (x / x) == ctx.one()

    @given(
        num=nonzero_ints,
        den=nonzero_ints,
    )
    @settings(max_examples=60)
    def test_fraction_embedding_is_multiplicative(self, ctx, num, den):
        q = Fraction(num, den)
        lhs = ctx.from_fraction(q)
        rhs = ctx.from_int(num) / ctx.from_int(den)
        assert lhs.agrees_with(rhs)

    @given(a=nonzero_ints, e=st.integers(min_value=-4, max_value=6))
    def test_integer_powers(self, ctx, a, e):
        x = ctx.from_int(a)
        direct = x ** e
        expect = ctx.one()
        for _ in range(abs(e)):
            expect = expect * x
        if e < 0:
            expect = expect.invert()
        assert direct.agrees_with(expect)


def _strip_loop(ctx, val, raw):
    """Reference normaliser: reduce raw modulo p**N, then move one factor of
    p at a time into val.  Calls no library code."""
    raw %= ctx.pN
    if not raw:
        return INF, 0
    while not raw % ctx.p:
        raw //= ctx.p
        val += 1
    return val, raw


class TestNormalised:
    def test_pairs_match_the_strip_loop(self):
        rng = random.Random(29)
        for p in (3, 5, 7, 101):
            for N in (1, 2, 3, 40):
                ctx = PadicContext(p, N, 4, kappa=0)
                raws = [0, ctx.pN, -ctx.pN, 7 * ctx.pN, ctx.pN * p ** 3]
                for k in range(N + 3):
                    for _ in range(3):
                        u = rng.randrange(1, ctx.pN * p)
                        while u % p == 0:
                            u = rng.randrange(1, ctx.pN * p)
                        raws += [p ** k * u, -(p ** k) * u]
                for raw in raws:
                    for val in (0, -3, 5):
                        got = padic_mod._normalised(ctx, val, raw)
                        assert got == _strip_loop(ctx, val, raw), (p, N, val, raw)
                        assert (got[0] is INF) == (raw % ctx.pN == 0)

    def test_pair_sum_keeps_a_summand_to_the_last_stored_digit(self):
        # 3 * 5**d lands on the unit of 2 while d < N, and is dropped from d = N on
        ctx = PadicContext(5, 6, 4)
        for d in range(1, 9):
            x, y = ctx.from_int(2), ctx.from_int(3 * 5 ** d)
            want = (0, (2 + 3 * 5 ** d) % ctx.pN)
            assert ((x + y).val, (x + y).unit) == want, d
            assert ((y + x).val, (y + x).unit) == want, d

    def test_agreement_skips_the_subtraction_of_identical_pairs(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("identical pairs were subtracted")

        ctx = PadicContext(5, 40, 8)
        pairs = [(0, 7), (37, 5 ** 39 + 1), _ZERO, (-2, ctx.pN - 3), (39, 2)]
        monkeypatch.setattr(padic_mod, "_pair_sum", refuse)
        assert padic_mod._agreement(ctx, pairs, (), list(pairs), ()) is Verdict.YES
        # the window is still read: a shallow ceiling starves the comparison
        for xc, yc in (((1,), ()), ((), (INF, 40))):
            got = padic_mod._agreement(ctx, pairs, xc, list(pairs), yc)
            assert got is Verdict.INDETERMINATE, (xc, yc)


class TestComparison:
    def test_zero_agrees_with_zero(self, ctx):
        assert ctx.zero().agrees_with(ctx.zero())

    def test_deep_residual_counts_as_zero(self, ctx):
        # a residual at depth N - kappa past the joint valuation is
        # invisible at working precision
        x = ctx.from_int(7)
        y = x + ctx.from_int(5 ** (ctx.N - 1))
        assert x.agrees_with(y)
        z = x + ctx.from_int(5 ** (ctx.N - ctx.kappa - 1))
        assert not x.agrees_with(z)

    def test_agrees_with_refuses_another_context(self):
        # both values store the pair (0, 7)
        x, y = PadicContext(5, 20, 16).from_int(7), PadicContext(3, 20, 16).from_int(7)
        with pytest.raises(ParameterError, match="different contexts"):
            x.agrees_with(y)
        assert x.agrees_with(PadicContext(5, 20, 16, kappa=0).from_int(7))

    def test_context_guards(self):
        with pytest.raises(ParameterError):
            PadicContext(p=4)
        with pytest.raises(ParameterError):
            PadicContext(p=2)
        with pytest.raises(ParameterError):
            PadicContext(N=0)
        with pytest.raises(ParameterError):
            PadicContext(N=MAX_PRECISION + 1)
        with pytest.raises(ParameterError):
            PadicContext(D=-1)
        with pytest.raises(ParameterError):
            PadicContext(D=MAX_DEGREE + 1)
        assert PadicContext(p=3, N=4, D=MAX_DEGREE, kappa=3).D == MAX_DEGREE

    def test_context_refuses_slack_at_or_past_precision(self):
        # kappa = N would ask for zero agreeing digits
        for N, kappa in ((6, 6), (6, 7), (1, 1), (40, -1)):
            with pytest.raises(ParameterError, match="slack kappa"):
                PadicContext(5, N, 8, kappa=kappa)
        assert PadicContext(5, 6, 8, kappa=5).kappa == 5
        assert PadicContext(5, 1, 8, kappa=0).kappa == 0
        with pytest.raises(ParameterError):
            PadicContext(p=10 ** 25 + 13)

    def test_context_refuses_non_integer_parameters(self):
        # a float or bool parameter is refused up front: kappa = 1.5 would
        # move the agreement threshold to N - 1.5
        for bad in ({"p": 5.0}, {"N": 40.0}, {"D": 64.0}, {"kappa": 1.5},
                    {"kappa": True}, {"p": True}, {"N": True}, {"D": False}):
            with pytest.raises(ParameterError, match="must be an integer"):
                PadicContext(**bad)

    def test_arithmetic_refuses_another_context(self):
        # both orders used to answer: with 20 digits, or claiming 40
        x, y = PadicContext(5, 20, 16).from_int(7), PadicContext(5, 40, 64).from_int(1 + 5 ** 25)
        for a, b in ((x, y), (y, x)):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(ParameterError, match="values belong to different contexts"):
                    op(a, b)
        # a context that differs only in kappa is the same context
        loose = PadicContext(5, 20, 16, kappa=0).from_int(3)
        assert (x + loose).ctx is x.ctx and (loose - x).ctx is loose.ctx
        assert (x + loose).to_fraction() == 10 and (x * loose / loose).to_fraction() == 7

    def test_unparsable_strings_are_parameter_errors(self, ctx):
        for text in ("abc", "1/0", ""):
            with pytest.raises(ParameterError):
                ctx.num(text)


class TestPrimality:
    def test_matches_trial_division(self):
        def by_division(n):
            return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))

        assert [n for n in range(5000) if _is_prime(n)] == [
            n for n in range(5000) if by_division(n)
        ]

    def test_strong_pseudoprimes_rejected(self):
        # strong pseudoprimes to the first 1, 4, 9 and 12 prime bases
        for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
            assert not _is_prime(n)
        assert _is_prime(10 ** 18 + 3) and _is_prime(2 ** 61 - 1)

    def test_refuses_what_it_cannot_certify(self):
        with pytest.raises(ParameterError):
            _is_prime(3317044064679887385961981)
