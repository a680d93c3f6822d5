"""Continuous characters, trianguline parameter classification, and the
filtered Frobenius module."""

import random
from fractions import Fraction

import pytest

from rigidpadic.errors import ParameterError
from rigidpadic.galois import (
    ContinuousCharacter,
    Ext1Result,
    FilteredPhiModule,
    TriangulineParam,
    abs_x_character,
    ext1_dimension,
    in_S_cris,
    in_S_star,
    nearest_integer,
    validate_crystalline,
    weight,
    x_character,
)
from rigidpadic.padic import INF, PadicContext, PadicNumber
from rigidpadic.verdict import Verdict


class TestCharacterConstruction:
    def test_zero_value_rejected(self, ctx):
        with pytest.raises(ParameterError):
            ContinuousCharacter(ctx.zero(), 0, ctx.one())

    def test_non_unit_wild_rejected(self, ctx):
        with pytest.raises(ParameterError):
            ContinuousCharacter(ctx.one(), 0, ctx.from_int(5))

    def test_wild_not_principal_rejected(self, ctx):
        with pytest.raises(ParameterError):
            ContinuousCharacter(ctx.one(), 0, ctx.from_int(2))

    def test_wild_value_of_another_context_rejected(self, ctx):
        # checked before the wild value is compared with 1, so the
        # character's own message wins over the scalar one
        wild = PadicContext(5, 20, 16).from_int(6)
        with pytest.raises(ParameterError,
                           match="character components belong to different contexts"):
            ContinuousCharacter(ctx.from_int(5), 1, wild)

    def test_distinguished_characters(self, ctx):
        x = x_character(ctx)
        assert x.value_at_p == ctx.from_int(5)
        assert x.tame_exponent == 1
        assert x.wild_value == ctx.from_int(6)
        absx = abs_x_character(ctx)
        assert absx.value_at_p.val == -1
        assert absx.tame_exponent == 0
        assert absx.wild_value == ctx.one()


class TestCharacterAlgebra:
    def test_product_is_unitary(self, ctx):
        prod = x_character(ctx) * abs_x_character(ctx)
        assert prod.value_at_p.agrees_with(ctx.one())

    def test_inverse_roundtrip(self, ctx):
        x = x_character(ctx)
        assert (x * x.inverse()).agrees_with(ContinuousCharacter.trivial(ctx))

    def test_division_matches_inverse(self, ctx):
        x = x_character(ctx)
        absx = abs_x_character(ctx)
        assert (x / absx).agrees_with(x * absx.inverse())

    def test_power_zero_is_trivial(self, ctx):
        assert (x_character(ctx) ** 0).agrees_with(ContinuousCharacter.trivial(ctx))

    def test_negative_power(self, ctx):
        x = x_character(ctx)
        assert (x ** -2).value_at_p.agrees_with(ctx.from_fraction(Fraction(1, 25)))


class TestWeight:
    def test_trivial_character(self, ctx):
        assert weight(ContinuousCharacter.trivial(ctx)).is_zero

    def test_inclusion_character(self, ctx):
        assert weight(x_character(ctx)) == ctx.one()

    def test_absolute_value(self, ctx):
        assert weight(abs_x_character(ctx)).is_zero

    def test_cubed_wild_value(self, ctx):
        chi = ContinuousCharacter(ctx.one(), 0, ctx.from_int(6) ** 3)
        assert weight(chi).agrees_with(ctx.from_int(3))

    def test_additivity(self, ctx):
        a = ContinuousCharacter(ctx.from_int(25), 2, ctx.from_int(6) ** 2)
        b = ContinuousCharacter(ctx.from_int(3), 1, ctx.from_int(36))
        lhs = weight(a * b)
        assert lhs.agrees_with(weight(a) + weight(b))


class TestNearestInteger:
    def test_exact_hit(self, ctx):
        v, n = nearest_integer(ctx.from_int(7), 10)
        assert v is Verdict.YES and n == 7

    def test_deep_agreement(self, ctx):
        v, n = nearest_integer(ctx.from_int(7 + 5 ** 38), 10)
        assert v is Verdict.YES and n == 7

    def test_fractional_rejected(self, ctx):
        v, n = nearest_integer(ctx.from_fraction(Fraction(1, 5)), 10)
        assert v is Verdict.NO and n is None

    def test_out_of_range_indeterminate(self, ctx):
        v, n = nearest_integer(ctx.from_int(100), 10)
        assert v is Verdict.INDETERMINATE and n is None

    def test_shallow_agreement_indeterminate(self, ctx):
        # 7 + 5^10 is an integer, just not one the bound can see
        v, n = nearest_integer(ctx.from_int(7 + 5 ** 10), 10)
        assert v is Verdict.INDETERMINATE and n is None


def _weighted_delta1(ctx, w: int):
    """val_p(value at p) = 1 and weight w."""
    return ContinuousCharacter(ctx.from_int(5), 1, ctx.from_int(6) ** w)


class TestStarLocus:
    def test_member(self, ctx):
        s = TriangulineParam(_weighted_delta1(ctx, 1), abs_x_character(ctx))
        res = in_S_star(s)
        assert res.is_member and res.u == 1
        assert res.w == ctx.one()

    def test_flat_first_valuation_rejected(self, ctx):
        s = TriangulineParam(
            ContinuousCharacter.trivial(ctx), ContinuousCharacter.trivial(ctx)
        )
        assert not in_S_star(s).is_member

    def test_unbalanced_sum_rejected(self, ctx):
        s = TriangulineParam(x_character(ctx), x_character(ctx))
        assert not in_S_star(s).is_member


class TestCrystallineLocus:
    def test_member(self, ctx):
        s = TriangulineParam(_weighted_delta1(ctx, 2), abs_x_character(ctx))
        res = in_S_cris(s)
        assert res.status is Verdict.YES
        assert res.in_star and res.u == 1 and res.w_integer == 2

    def test_equal_slope_and_gap_rejected(self, ctx):
        s = TriangulineParam(_weighted_delta1(ctx, 1), abs_x_character(ctx))
        res = in_S_cris(s)
        assert res.status is Verdict.NO
        assert res.u == 1 and res.w_integer == 1
        assert "u < w" in res.reason

    def test_finite_extension_coordinate_rejected(self, ctx):
        s = TriangulineParam(
            _weighted_delta1(ctx, 2), abs_x_character(ctx), scriptL="0"
        )
        res = in_S_cris(s)
        assert res.status is Verdict.NO and res.in_star
        assert "finite" in res.reason

    def test_base_failure_reported(self, ctx):
        s = TriangulineParam(x_character(ctx), x_character(ctx))
        res = in_S_cris(s)
        assert res.status is Verdict.NO and not res.in_star

    def test_negative_gap_rejected(self, ctx):
        chi1 = ContinuousCharacter(ctx.from_int(5), 1, ctx.one())
        chi2 = ContinuousCharacter(
            ctx.from_fraction(Fraction(1, 5)), 0, ctx.from_int(6)
        )
        res = in_S_cris(TriangulineParam(chi1, chi2))
        assert res.status is Verdict.NO
        assert res.w_integer == -1

    @pytest.mark.parametrize("exponent, status, w_integer", [
        (60, Verdict.INDETERMINATE, None), (50, Verdict.YES, 50)])
    def test_weight_gap_beyond_the_integer_bound_is_indeterminate(
            self, ctx, exponent, status, w_integer):
        # the weight gap is log(6^e)/log(1 + p) = e, and only integers of
        # absolute value <= INTEGER_BOUND = 50 are tried
        d1 = ContinuousCharacter(ctx.from_int(5), 0, ctx.from_int(6) ** exponent)
        d2 = ContinuousCharacter(ctx.from_int(5).invert(), 0, ctx.one())
        res = in_S_cris(TriangulineParam(d1, d2))
        assert res.status is status and res.w_integer == w_integer
        if status is Verdict.INDETERMINATE:
            assert res.reason == "weight gap not identifiable with an integer in range"

    def test_carries_the_star_weight_gap(self, ctx):
        # the six classify rows the CI pins: both ext1 families, dimension 1
        # and INDETERMINATE, in and out of the base locus
        n, x, a = ctx.from_int, x_character(ctx), abs_x_character(ctx)
        c, one = ContinuousCharacter(n(15), 2, n(31)), ContinuousCharacter.trivial(ctx)
        rows = [(ContinuousCharacter(n(5), 1, n(36)), a), (x, a), (x ** -3 * c, c),
                (a * x ** 2 * c, c), (x ** -25, one), (x ** 3, one)]
        for d1, d2 in rows:
            s = TriangulineParam(d1, d2)
            cris, star = in_S_cris(s), in_S_star(s)
            assert (cris.w.val, cris.w.unit) == (star.w.val, star.w.unit)
            assert (cris.in_star, cris.u) == (star.is_member, star.u)


class TestExt1Dimension:
    def test_table(self, ctx):
        x = x_character(ctx)
        absx = abs_x_character(ctx)
        rows = [
            (x ** 0, 2, "x^-0"),
            (x ** -1, 2, "x^-1"),
            (x ** -2, 2, "x^-2"),
            (x ** -7, 2, "x^-7"),
            (absx * x, 2, "|x|x^1"),
            (absx * x ** 3, 2, "|x|x^3"),
            (absx * x ** 6, 2, "|x|x^6"),
            (absx, 1, None),
            (x, 1, None),
            (x ** 2, 1, None),
            (ContinuousCharacter.unramified(ctx, 2), 1, None),
            (ContinuousCharacter(ctx.from_int(5), 3, ctx.one()), 1, None),
        ]
        trivial = ContinuousCharacter.trivial(ctx)
        for q, dim, form in rows:
            res = ext1_dimension(q, trivial)
            assert res.status is Verdict.YES
            assert res.dimension == dim
            assert res.matched_form == form

    def test_quotient_invariance(self, ctx):
        x = x_character(ctx)
        c = ContinuousCharacter(ctx.from_int(15), 2, ctx.from_int(31))
        res = ext1_dimension(x ** -3 * c, c)
        assert res.dimension == 2 and res.matched_form == "x^-3"

    def test_swap_inverts_quotient(self, ctx):
        # x^-2 against trivial matches; the swapped pair tests x^2,
        # which neither family contains
        x = x_character(ctx)
        trivial = ContinuousCharacter.trivial(ctx)
        assert ext1_dimension(x ** -2, trivial).dimension == 2
        assert ext1_dimension(trivial, x ** -2).dimension == 1

    def test_beyond_bound_indeterminate(self, ctx):
        x = x_character(ctx)
        trivial = ContinuousCharacter.trivial(ctx)
        res = ext1_dimension(x ** -25, trivial, bound=20)
        assert res.status is Verdict.INDETERMINATE
        assert res.dimension is None
        wide = ext1_dimension(x ** -25, trivial, bound=30)
        assert wide.dimension == 2 and wide.matched_form == "x^-25"
        # a match is answered before the bound rule: i = 0 matches at bound 0
        # although the second family's index v + 1 = 1 lies beyond it
        assert ext1_dimension(trivial, trivial, bound=0) == Ext1Result(2, "x^-0", Verdict.YES)


def _scan_nearest_integer(x, bound):
    """Reference: the full scan of [-bound, bound], kept as an oracle."""
    ctx = x.ctx
    if not x.is_zero and x.val < 0:
        return Verdict.NO, None
    best = None
    best_val = -1
    for n in range(-bound, bound + 1):
        d = x - ctx.from_int(n)
        dv = INF if d.is_zero else d.val
        if dv is INF:
            return Verdict.YES, n
        if dv > best_val:
            best_val = dv
            best = n
    if best is not None and best_val >= ctx.N - ctx.kappa:
        return Verdict.YES, best
    return Verdict.INDETERMINATE, None


def _scan_ext1_dimension(delta1, delta2, bound=20):
    """Reference: every index of both families up to the bound, kept as an
    oracle."""
    ctx = delta1.ctx
    q = delta1 / delta2
    x = x_character(ctx)
    absx = abs_x_character(ctx)
    for i in range(0, bound + 1):
        if q.agrees_with(x ** (-i)):
            return Ext1Result(2, f"x^-{i}", Verdict.YES)
    for i in range(1, bound + 1):
        if q.agrees_with(absx * x ** i):
            return Ext1Result(2, f"|x|x^{i}", Verdict.YES)
    v = q.value_at_p.val
    if v is not INF and (-v > bound or v + 1 > bound):
        return Ext1Result(None, None, Verdict.INDETERMINATE)
    return Ext1Result(1, None, Verdict.YES)


def _grid_contexts():
    """p in {3, 5, 7}, N in {1, 2, 3, 6, 40}, kappa in {0, 1, N - 1} below N."""
    for p in (3, 5, 7):
        for N in (1, 2, 3, 6, 40):
            for kappa in sorted({0, 1, N - 1} & set(range(N))):
                yield PadicContext(p, N, 4, kappa=kappa)


def _rand_unit(ctx, rng):
    return rng.randrange(ctx.pN // ctx.p) * ctx.p + rng.randrange(1, ctx.p)


def _rand_character(ctx, rng):
    p = ctx.p
    value = ctx.from_int(_rand_unit(ctx, rng)) * ctx.from_int(p) ** rng.randint(-3, 3)
    return ContinuousCharacter(value, rng.randrange(p - 1), ctx.from_int(1 + p * rng.randrange(10 ** 6)))


class TestClassificationMatchesTheScans:
    """The index and residue-class rules give the answers of the full scans
    whenever kappa < N."""

    def test_nearest_integer(self):
        rng = random.Random(2027)
        for ctx in _grid_contexts():
            p, N = ctx.p, ctx.N
            xs = [ctx.zero()]
            xs += [ctx.from_int(rng.randint(-60, 60)) for _ in range(4)]
            for _ in range(6):
                j = rng.randint(0, N + 2)
                xs.append(ctx.from_int(rng.randint(-30, 30) + p ** j * rng.randint(-9, 9)))
            for _ in range(6):
                xs.append(PadicNumber(ctx, rng.randint(-1, N + 2), _rand_unit(ctx, rng)))
            for x in xs:
                for bound in (0, 1, rng.randint(2, 40)):
                    assert nearest_integer(x, bound) == _scan_nearest_integer(x, bound), (
                        ctx, x, bound)

    def test_ext1_dimension(self):
        rng = random.Random(2029)
        for ctx in _grid_contexts():
            x, absx = x_character(ctx), abs_x_character(ctx)
            c = _rand_character(ctx, rng)
            u = ContinuousCharacter.unramified(ctx, _rand_unit(ctx, rng))
            quotients = [c]
            for i in rng.sample(range(-25, 26), 4) + [0, 1, -1]:
                quotients += [x ** i, absx * x ** i, x ** i * u]
            for q in quotients:
                for bound in (0, 1, rng.randint(2, 25)):
                    want = _scan_ext1_dimension(q * c, c, bound)
                    assert ext1_dimension(q * c, c, bound) == want, (ctx, q, bound)

    def test_ext1_tests_at_most_two_indices(self, ctx, monkeypatch):
        calls = []
        agrees = ContinuousCharacter.agrees_with

        def counted(self, other):
            calls.append(other)
            return agrees(self, other)

        monkeypatch.setattr(ContinuousCharacter, "agrees_with", counted)
        x, absx = x_character(ctx), abs_x_character(ctx)
        trivial = ContinuousCharacter.trivial(ctx)
        for q in (x ** -20, absx * x ** 20, x ** 3, x ** -7 * trivial, absx, x ** 40,
                  ContinuousCharacter.unramified(ctx, 2)):
            calls.clear()
            ext1_dimension(q, trivial)
            assert len(calls) <= 2, q

    def test_nearest_integer_scans_one_residue_class(self, ctx, monkeypatch):
        # at the default context the class step is 5^36, so at most one
        # candidate of [-50, 50] is ever subtracted
        calls = []
        sub = PadicNumber.__sub__

        def counted(self, other):
            calls.append(other)
            return sub(self, other)

        monkeypatch.setattr(PadicNumber, "__sub__", counted)
        for n in (7, -50, 50, 100, 7 + 5 ** 10):
            calls.clear()
            nearest_integer(ctx.from_int(n), 50)
            assert len(calls) <= 1, n

    def test_zero_digit_agreement_is_not_a_match(self):
        # at kappa = N two nonzero values would "agree" at zero digits (the
        # old full scan matched x^3 with x^-1 there), so the context is
        # refused; at kappa = N - 1 they differ and the index rule tests
        # only i = -3 and 4
        with pytest.raises(ParameterError):
            PadicContext(5, 6, 8, kappa=6)
        ctx = PadicContext(5, 6, 8, kappa=5)
        assert not ctx.from_int(7).agrees_with(ctx.from_int(5))
        trivial = ContinuousCharacter.trivial(ctx)
        assert ext1_dimension(x_character(ctx) ** 3, trivial) == Ext1Result(1, None, Verdict.YES)


class TestValidateCrystalline:
    def test_valid_small_slope(self, ctx):
        chi = validate_crystalline(ctx.from_int(5), ctx.from_int(10), 3)
        assert chi.small_slope
        assert not chi.violations()

    def test_equal_eigenvalues_rejected(self, ctx):
        with pytest.raises(ParameterError):
            validate_crystalline(ctx.from_int(5), ctx.from_int(5), 3)

    def test_unit_beta_rejected(self, ctx):
        with pytest.raises(ParameterError):
            validate_crystalline(ctx.from_int(25), ctx.from_int(2), 3)


class TestFilteredPhiModule:
    def _module(self, ctx, k):
        va = max(k - 2, 1)
        vb = max(k - 1 - va, 1)
        return FilteredPhiModule(
            ctx.from_int(5 ** va * 2), ctx.from_int(5 ** vb * 3), k
        )

    def test_three_step_filtration(self, ctx):
        mod = self._module(ctx, 4)
        assert mod.fil_dimension(-5) == (2, ("e_alpha", "e_beta"))
        assert mod.fil_dimension(-3) == (2, ("e_alpha", "e_beta"))
        assert mod.fil_dimension(-2) == (1, ("e_alpha + e_beta",))
        assert mod.fil_dimension(0) == (1, ("e_alpha + e_beta",))
        assert mod.fil_dimension(1) == (0, ())

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_hodge_tate_weights(self, ctx, k):
        assert self._module(ctx, k).hodge_tate_weights() == {0, k - 1}

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_filtration_non_increasing(self, ctx, k):
        mod = self._module(ctx, k)
        dims = [mod.fil_dimension(i)[0] for i in range(-(k + 1), 3)]
        assert all(a >= b for a, b in zip(dims, dims[1:]))

    def test_phi_eigenvalues(self, ctx):
        alpha, beta = ctx.from_int(5), ctx.from_int(10)
        mod = FilteredPhiModule(alpha, beta, 3)
        ca, cb = mod.phi_action((ctx.one(), ctx.zero()))
        assert ca.agrees_with(alpha.invert()) and cb.is_zero
        ca, cb = mod.phi_action((ctx.one(), ctx.one()))
        assert ca.agrees_with(ctx.from_fraction(Fraction(1, 5)))
        assert cb.agrees_with(ctx.from_fraction(Fraction(1, 10)))

    def test_phi_zero_vector(self, ctx):
        mod = self._module(ctx, 3)
        ca, cb = mod.phi_action((ctx.zero(), ctx.zero()))
        assert ca.is_zero and cb.is_zero

    def test_phi_commutes_with_scaling(self, ctx):
        mod = self._module(ctx, 3)
        v = (ctx.from_int(7), ctx.from_int(11))
        c = ctx.from_int(9)
        scaled = mod.phi_action((v[0] * c, v[1] * c))
        plain = mod.phi_action(v)
        assert scaled[0].agrees_with(plain[0] * c)
        assert scaled[1].agrees_with(plain[1] * c)

    def test_weight_guard(self, ctx):
        with pytest.raises(ParameterError):
            FilteredPhiModule(ctx.from_int(5), ctx.from_int(10), 1)

    def test_zero_eigenvalue_guard(self, ctx):
        with pytest.raises(ParameterError):
            FilteredPhiModule(ctx.zero(), ctx.from_int(10), 3)
