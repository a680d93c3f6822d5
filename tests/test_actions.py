"""Iwahori elements and the twisted left action on every function model."""

import hashlib
import random
from fractions import Fraction

import pytest

from rigidpadic import actions, functions
from rigidpadic.actions import (
    I1,
    InductionCharacter,
    IwahoriElement,
    WeylCellVector,
    act,
    act_cell,
    act_locally_algebraic,
    act_smooth,
)
from rigidpadic.errors import DomainError, ParameterError, PrecisionError
from rigidpadic.functions import (
    Leaf,
    LocallyAlgebraicFunction,
    PiecewiseFunction,
    StepFunction,
)
from rigidpadic.padic import INF, PadicContext
from rigidpadic.series import TateSeries
from exact_image import assert_meets_contract, leaf_image, valuation


def chi_for(ctx, k):
    # valuations (1, k-2) satisfy the slope constraints for k >= 3;
    # k = 2 needs the relaxed constructor since no split works over Q_p
    if k == 2:
        return InductionCharacter(
            ctx.from_int(5), ctx.from_int(2 * 5 ** 0), k, strict=False
        )
    alpha = ctx.from_int(5 ** (k - 2) * 3)
    beta = ctx.from_int(5)
    return InductionCharacter(alpha, beta, k, strict=False)


def upper(ctx, x):
    return IwahoriElement(ctx, ctx.one(), ctx.num(x), ctx.zero(), ctx.one(), I1)


def lower(ctx, y):
    return IwahoriElement(ctx, ctx.one(), ctx.zero(), ctx.num(y), ctx.one(), I1)


def diag(ctx, s, t, level=I1):
    return IwahoriElement(ctx, ctx.num(s), ctx.zero(), ctx.zero(), ctx.num(t), level)


class TestIwahoriElement:
    def test_identity_accepted(self, ctx):
        g = IwahoriElement(ctx, 1, 0, 0, 1, I1)
        assert g.a == ctx.one() and g.d == ctx.one()
        assert g.b.is_zero and g.c.is_zero

    def test_pro_p_membership_guards(self, ctx):
        # b must be divisible by p in I(1)
        with pytest.raises(DomainError):
            IwahoriElement(ctx, 1, 1, 0, 1, I1)
        # diagonal must be 1 mod p
        with pytest.raises(DomainError):
            IwahoriElement(ctx, 2, 0, 0, 1, I1)

    def test_congruence_level_guards(self, ctx):
        IwahoriElement(ctx, 1, 0, 25, 1, 2)
        with pytest.raises(DomainError):
            IwahoriElement(ctx, 1, 0, 5, 1, 2)

    def test_bool_level_refused(self, ctx):
        # True == 1, but a file cannot carry a bool level back
        for level in (True, False):
            with pytest.raises(ParameterError, match=f"integer >= 1, got {level}"):
                IwahoriElement(ctx, 1, 0, 0, 1, level)

    def test_singular_matrix_rejected(self, ctx):
        with pytest.raises(DomainError):
            IwahoriElement(ctx, 1, 5, ctx.from_fraction(Fraction(1, 5)), 1, I1)

    def test_level_is_part_of_equality(self, ctx):
        # one matrix, declared in G(2) and in I(1): conjugate_by_w0 and @
        # keep the level, so the two are different elements
        g2 = IwahoriElement(ctx, 26, 25, 25, 1, 2)
        g1 = IwahoriElement(ctx, 26, 25, 25, 1, I1)
        assert g2 != g1
        assert g2 == IwahoriElement(ctx, 26, 25, 25, 1, 2)
        assert len({g2, g1, IwahoriElement(ctx, 26, 25, 25, 1, 2)}) == 2

    def test_product_stays_in_group(self, ctx):
        g = IwahoriElement(ctx, 6, 5, 1, 6, I1)
        h = IwahoriElement(ctx, 1, 10, 3, 11, I1)
        gh = g @ h
        assert gh.level == I1
        assert gh.a == g.a * h.a + g.b * h.c


class TestActOnSeries:
    def test_identity_action(self, ctx):
        f = TateSeries(ctx, 1, [2, 5, 1])
        g = IwahoriElement(ctx, 1, 0, 0, 1, I1)
        assert act(g, f, chi_for(ctx, 3)) == f

    def test_lower_reduces_to_translate(self, ctx):
        # moving z**2 by y gives z**2 - 2 y z + y**2
        f = TateSeries.monomial(ctx, 1, 2)
        y = ctx.from_int(10)
        out = act(lower(ctx, y), f, chi_for(ctx, 2))
        assert out.coeff(0) == y * y
        assert out.coeff(1) == ctx.from_int(-20)
        assert out.coeff(2) == ctx.one()

    def test_upper_reduces_to_twist(self, ctx):
        f = TateSeries.constant(ctx, 0, 1)
        out = act(upper(ctx, 5), f, chi_for(ctx, 3))
        assert out.coeff(0) == ctx.one()
        assert out.coeff(1) == ctx.from_int(-5)
        assert out.degree == 1

    def test_series_level_needs_matching_matrix(self, ctx):
        f = TateSeries.monomial(ctx, 2, 1)
        g = lower(ctx, 5)
        with pytest.raises(DomainError):
            act(g, f, chi_for(ctx, 2))

    def test_weight_mismatch_guard(self, ctx):
        leaves = [Leaf(0, 0, TateSeries.constant(ctx, 0, 1))]
        f = LocallyAlgebraicFunction(ctx, leaves, 4)
        with pytest.raises(ParameterError):
            act_locally_algebraic(lower(ctx, 5), f, chi_for(ctx, 3))


    def test_matrix_of_another_context_refused(self, ctx):
        # g's integers would meet f's p**N: the z-coefficient would store a
        # unit above 5**20
        other = PadicContext(5, 20, 16)
        g = IwahoriElement(ctx, 6, 5, 2, 11, I1)
        f = TateSeries(other, 0, [1, 3, 7], tail_bound=2)
        glob = PiecewiseFunction.from_global_series(f)
        la = LocallyAlgebraicFunction(other, [Leaf(0, 0, TateSeries(other, 0, [1, 3, 7]))], 4)
        chi = chi_for(other, 4)
        match = "matrix and function belong to different contexts"
        for run in (lambda: act(g, f, chi), lambda: act(g, glob, chi),
                    lambda: act_cell(g, WeylCellVector(glob, glob), chi),
                    lambda: act_smooth(g, StepFunction.indicator_ball(other, 1)),
                    lambda: act_locally_algebraic(g, la, chi)):
            with pytest.raises(ParameterError, match=match):
                run()


class TestIsometryAndCocycle:
    @pytest.mark.parametrize("m", [1, 2])
    def test_level_preserving_isometry(self, ctx, m):
        rng = random.Random(m * 13)
        pm = ctx.p ** m
        for _ in range(20):
            coeffs = [rng.randrange(-(5 ** 5), 5 ** 5) for _ in range(6)]
            f = TateSeries(ctx, m, coeffs, tail_bound=8 * m)
            g = IwahoriElement(
                ctx,
                1 + pm * rng.randrange(0, 40),
                pm * rng.randrange(0, 40),
                pm * rng.randrange(0, 40),
                1 + pm * rng.randrange(0, 40),
                m,
            )
            out = act(g, f, chi_for(ctx, rng.randint(2, 5)))
            assert out.m == m
            assert out.val_c() == f.val_c()

    def test_cocycle_on_series(self, ctx):
        rng = random.Random(23)
        for _ in range(15):
            k = rng.randint(2, 5)
            chi = chi_for(ctx, k)
            g = _random_i1(ctx, rng)
            h = _random_i1(ctx, rng)
            f = TateSeries(ctx, 0, [rng.randrange(-(5 ** 4), 5 ** 4) for _ in range(7)])
            once = act(g @ h, f, chi)
            twice = act(g, act(h, f, chi), chi)
            assert once.agrees_mod(twice, ctx.N - 8)

    def test_cocycle_on_piecewise(self, ctx):
        rng = random.Random(29)
        for _ in range(6):
            k = rng.randint(2, 4)
            chi = chi_for(ctx, k)
            g = _random_i1(ctx, rng)
            h = _random_i1(ctx, rng)
            f = PiecewiseFunction.from_global_series(
                TateSeries(ctx, 0, [rng.randrange(-625, 625) for _ in range(4)])
            ).refine(1)
            once = act(g @ h, f, chi)
            twice = act(g, act(h, f, chi), chi)
            assert once.agrees_mod(twice, ctx.N - 8)


def _random_i1(ctx, rng):
    while True:
        try:
            return IwahoriElement(
                ctx,
                1 + 5 * rng.randrange(0, 200),
                5 * rng.randrange(0, 200),
                rng.randrange(0, 200),
                1 + 5 * rng.randrange(0, 200),
                I1,
            )
        except DomainError:
            continue


class TestWeylCells:
    def test_identity_fixes_vector(self, ctx):
        vec = WeylCellVector(
            PiecewiseFunction.constant(ctx, 2),
            PiecewiseFunction.constant(ctx, 3),
        )
        out = act_cell(IwahoriElement(ctx, 1, 0, 0, 1, I1), vec, chi_for(ctx, 3))
        assert out.identity.agrees_with(vec.identity)
        assert out.w0.agrees_with(vec.w0)

    def test_diagonal_scales_cells_oppositely(self, ctx):
        # conjugation by w0 swaps the torus entries, so the constant on
        # each cell picks up the twist of the entry facing it
        k = 4
        s, t = ctx.from_int(6), ctx.from_int(11)
        vec = WeylCellVector(
            PiecewiseFunction.constant(ctx, 1),
            PiecewiseFunction.constant(ctx, 1),
        )
        out = act_cell(diag(ctx, s, t), vec, chi_for(ctx, k))
        e = k - 2
        id_c = out.identity.leaves[0].series.coeff(0)
        w0_c = out.w0.leaves[0].series.coeff(0)
        assert id_c.agrees_with(t ** e)
        assert w0_c.agrees_with(s ** e)

    def test_lower_becomes_upper_on_w0_cell(self, ctx):
        y = ctx.from_int(5)
        k = 3
        vec = WeylCellVector(
            PiecewiseFunction.constant(ctx, 1),
            PiecewiseFunction.constant(ctx, 1),
        )
        out = act_cell(lower(ctx, y), vec, chi_for(ctx, k))
        # identity cell: translation fixes constants
        assert out.identity.leaves[0].series.coeff(0) == ctx.one()
        # w0 cell: sees upper(y), the twist (1 - y z)**(k-2)
        got = out.w0
        assert any(lf.series.degree == 1 for lf in got.leaves)
        ref = act(
            upper(ctx, y), PiecewiseFunction.constant(ctx, 1), chi_for(ctx, k)
        )
        assert got.agrees_with(ref)


class TestSmoothAction:
    def test_translation_preserves_matching_indicator(self, ctx):
        f = StepFunction.indicator_ball(ctx, 1)
        out = act_smooth(lower(ctx, 5), f)
        assert isinstance(out, StepFunction)
        assert out.agrees_with(f)

    def test_torus_fixes_constants(self, ctx):
        f = StepFunction(ctx, [Leaf(0, 0, TateSeries.constant(ctx, 0, 7))])
        out = act_smooth(diag(ctx, 6, 11), f)
        assert out.agrees_with(f)

    def test_no_character_factor(self, ctx):
        # unlike the weighted action, the smooth action of the torus
        # carries exponent 0
        f = StepFunction.indicator_ball(ctx, 1)
        out = act_smooth(diag(ctx, 6, 16), f)
        assert out.evaluate(ctx.zero()).agrees_with(ctx.one())


class TestLocallyAlgebraic:
    def test_monomial_fixed_by_identity(self, ctx):
        for k in (2, 3, 5):
            f = LocallyAlgebraicFunction(
                ctx, [Leaf(0, 0, TateSeries.monomial(ctx, 0, k - 2))], k
            )
            out = act_locally_algebraic(
                IwahoriElement(ctx, 1, 0, 0, 1, I1), f, chi_for(ctx, k)
            )
            assert out.agrees_with(f)

    def test_weight_three_upper_fixes_z(self, ctx):
        # (z / (1 - xz)) * (1 - xz) collapses exactly back to z
        f = LocallyAlgebraicFunction(
            ctx, [Leaf(0, 0, TateSeries.monomial(ctx, 0, 1))], 3
        )
        out = act_locally_algebraic(upper(ctx, 25), f, chi_for(ctx, 3))
        assert isinstance(out, LocallyAlgebraicFunction)
        lf = out.leaves[0]
        assert lf.series.degree == 1
        assert lf.series.coeff(1) == ctx.one()
        assert lf.series.coeff(0).is_zero

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_degree_never_exceeds_bound(self, ctx, k):
        rng = random.Random(k)
        for j in range(k - 1):
            f = LocallyAlgebraicFunction(
                ctx, [Leaf(0, 0, TateSeries.monomial(ctx, 0, j))], k
            )
            g = _random_i1(ctx, rng)
            out = act_locally_algebraic(g, f, chi_for(ctx, k))
            assert all(lf.series.degree <= k - 2 for lf in out.leaves)


class TestOneBuildPerAction:
    """Every public action on a piecewise function builds its result once:
    one partition check, however many generators act."""

    def _count_checks(self, monkeypatch):
        calls = []
        real = functions._check_partition
        monkeypatch.setattr(
            functions, "_check_partition", lambda *a: calls.append(1) or real(*a)
        )
        return calls

    def test_each_action_checks_once(self, ctx, monkeypatch):
        g = IwahoriElement(ctx, 1 + 5 * 3, 5 * 2, 7, 1 + 25, I1)
        step = StepFunction.indicator_ball(ctx, 2)
        z = PiecewiseFunction.from_global_series(TateSeries.monomial(ctx, 0, 1))
        la = LocallyAlgebraicFunction(ctx, z.refine(1).leaves, 3)
        calls = self._count_checks(monkeypatch)
        assert type(act_smooth(g, step)) is StepFunction
        assert len(calls) == 1
        assert type(act(g, step, chi_for(ctx, 3))) is PiecewiseFunction
        assert len(calls) == 2
        assert type(act_locally_algebraic(g, la, chi_for(ctx, 3))) is LocallyAlgebraicFunction
        assert len(calls) == 3


class TestOneRecenterPerLeaf:
    """Every action reads one Mobius substitution from g's entries, so it
    Taylor-shifts each leaf once (a leaf whose offset is zero is not shifted),
    also where every factor of g = [[1, 0], [y, 1]] diag(s, t) [[1, x], [0, 1]]
    is nontrivial."""

    @staticmethod
    def _zero_offsets(g, f, conjugate=False):
        """The leaves of f whose offset A = (a R - c) / (d - b R) - z0 is 0."""
        a, b, c, d = (v.to_fraction() for v in (g.a, g.b, g.c, g.d))
        if conjugate:
            a, b, c, d = d, c, b, a
        centers = [(lf.center, leaf_image(g, lf, 2, conjugate).center) for lf in f.leaves]
        return sum(a * r - c == z0 * (d - b * r) for z0, r in centers)

    def test_each_leaf_recenters_once(self, ctx, monkeypatch):
        # every generator acts: x = b / a, y = c / a, s = a and t = d - c b / a
        # are none of them trivial; c in p Z_p keeps the w0 cell in I(1)
        g = IwahoriElement(ctx, 1 + 5 * 3, 5 * 2, 5 * 7, 1 + 25, I1)
        a, b, c, d = (v.to_fraction() for v in (g.a, g.b, g.c, g.d))
        assert b != 0 and c != 0 and a != 1 and d - c * b / a != 1
        rng = random.Random(7)
        f = _random_function(ctx, rng, 2, 2)
        w0 = _random_function(ctx, rng, 3, 2)
        step = StepFunction.indicator_ball(ctx, 2)
        la = LocallyAlgebraicFunction(ctx, [
            Leaf(lf.center, lf.level, TateSeries(ctx, lf.level, [1, 5, 2]))
            for lf in f.leaves
        ], 4)
        calls = []
        real = actions._taylor_shift
        monkeypatch.setattr(actions, "_taylor_shift", lambda *a: calls.append(1) or real(*a))
        zero = self._zero_offsets
        assert zero(diag(ctx, 1, 1), f) == len(f.leaves)
        for run, leaves in [
            (lambda: act(g, f, chi_for(ctx, 4)), len(f.leaves) - zero(g, f)),
            (lambda: act_smooth(g, step), len(step.leaves) - zero(g, step)),
            (lambda: act_locally_algebraic(g, la, chi_for(ctx, 4)),
             len(la.leaves) - zero(g, la)),
            (lambda: act_cell(g, WeylCellVector(f, w0), chi_for(ctx, 4)),
             len(f.leaves) + len(w0.leaves) - zero(g, f) - zero(g, w0, True)),
            # the identity moves no leaf: every offset is zero
            (lambda: act(diag(ctx, 1, 1), f, chi_for(ctx, 4)), 0),
        ]:
            calls.clear()
            run()
            assert len(calls) == leaves


class TestInductionCharacter:
    def test_slope_constraints_enforced(self, ctx):
        # valuations must be positive, ordered, and sum to k - 1
        with pytest.raises(ParameterError):
            InductionCharacter(ctx.from_int(5), ctx.from_int(25), 4)
        with pytest.raises(ParameterError):
            InductionCharacter(ctx.from_int(3), ctx.from_int(25), 4)
        with pytest.raises(ParameterError):
            InductionCharacter(ctx.from_int(25), ctx.from_int(25), 5)

    def test_valid_split(self, ctx):
        chi = InductionCharacter(ctx.from_int(25), ctx.from_int(10), 4)
        assert chi.k == 4
        assert chi.small_slope

    def test_swapped_flips_side_tag(self, ctx):
        chi = InductionCharacter(ctx.from_int(25), ctx.from_int(10), 4)
        sw = chi.swapped()
        assert sw.alpha == chi.alpha and sw.beta == chi.beta
        assert sw.which != chi.which
        assert sw.swapped().which == chi.which

    def test_relaxed_mode_for_weight_two(self, ctx):
        chi = InductionCharacter(ctx.from_int(5), ctx.from_int(2), 2, strict=False)
        assert chi.violations()


# -- the leafwise action against the exact image ------------------------------
#
# tests/exact_image.py computes the image of each leaf from Fractions, with no
# rigidpadic arithmetic.  The action's centres and levels are the image's,
# each leaf keeps its Banach valuation, its tail follows the rule of
# twisted_mobius, and its digits agree with the image to N - kappa digits
# relative to val_C (the precision contract).


def _random_cosets(ctx, rng, max_level):
    """A random coset partition; the branch through 0 reaches max_level."""
    out = []

    def grow(center, level):
        if level < max_level and (center == 0 or rng.random() < 0.15):
            for r in range(ctx.p):
                grow(center + r * ctx.p ** level, level + 1)
        else:
            out.append((center, level))

    grow(0, 0)
    return out


def _random_coeff(ctx, rng):
    if rng.random() < 0.15:
        return 0
    return Fraction(rng.randrange(1, ctx.p ** 4), ctx.p ** rng.randint(0, 2))


def _random_leaf_series(ctx, rng, level, e, kind):
    if kind == "zero":
        return TateSeries.zero(ctx, level)
    if kind == "short exact":
        # degree <= e: the exact polynomial route of the mobius step
        return TateSeries(ctx, level, [_random_coeff(ctx, rng) for _ in range(e + 1)])
    degree = rng.randint(e + 1, min(ctx.D, e + 4))
    coeffs = [_random_coeff(ctx, rng) for _ in range(degree)] + [1]
    tail = INF if kind == "long exact" else rng.randint(-2, 6)
    return TateSeries(ctx, level, coeffs, tail)


LEAF_KINDS = ("short exact", "truncated", "long exact", "truncated", "zero")


def _random_function(ctx, rng, max_level, e):
    """Random partition whose leaf kinds cycle, so any three leaves in a
    row include an exact and a truncated series."""
    shift = rng.randrange(len(LEAF_KINDS))
    return PiecewiseFunction(ctx, [
        Leaf(c, h, _random_leaf_series(ctx, rng, h, e, LEAF_KINDS[(i + shift) % 5]))
        for i, (c, h) in enumerate(_random_cosets(ctx, rng, max_level))
    ])


def _assert_images(out, g, f, k, conjugate=False):
    """The leaves out are the exact images of f's leaves under g (under
    w0 g w0 when conjugate is set).  Returns each source leaf by the
    (centre, level) of its image."""
    sources = {}
    for lf in f.leaves:
        image = leaf_image(g, lf, k, conjugate)
        sources[image.center, image.level] = lf, image
    assert sorted(sources) == sorted((lf.center, lf.level) for lf in out)
    for lf in out:
        assert_meets_contract(lf.series, sources[lf.center, lf.level][1])
    return {key: lf for key, (lf, _) in sources.items()}


class TestExactImage:
    """The reference itself, against images worked out by hand."""

    def test_upper_sends_z_to_a_geometric_series(self):
        # z / (1 - 5 z) cut at z^4
        ctx = PadicContext(5, 40, 4)
        image = leaf_image(upper(ctx, 5), Leaf(0, 0, TateSeries.monomial(ctx, 0, 1)), 2)
        assert (image.center, image.level, image.K) == (0, 0, 0)
        assert image.coeffs == [0, 1, 5, 25, 125]

    def test_lower_translates_z_squared(self, ctx):
        # (z - y)^2 = z^2 - 2 y z + y^2
        y = 7
        image = leaf_image(lower(ctx, y), Leaf(0, 0, TateSeries.monomial(ctx, 0, 2)), 2)
        assert (image.center, image.level, image.K) == (0, 0, 0)
        assert image.coeffs == [y * y, -2 * y % ctx.p ** image.M, 1] + [0] * (ctx.D - 2)


class TestLeafwiseActionMeetsTheContract:
    CONTEXTS = [PadicContext(5, 40, 16), PadicContext(3, 12, 12), PadicContext(7, 20, 10)]

    @staticmethod
    def _chi(ctx, k):
        return InductionCharacter(ctx.from_int(3 * ctx.p), ctx.from_int(ctx.p), k, strict=False)

    @staticmethod
    def _matrices(ctx, rng, c_val=0):
        """Two random I(1) elements, one per trivial factor of
        g = [[1, 0], [y, 1]] diag(s, t) [[1, x], [0, 1]] (x = b / a = 0,
        s = a = 1, t = d - c b / a = 1, y = c / a = 0) with the other three
        nontrivial, and the identity."""
        p = ctx.p

        def r():
            return rng.randrange(1, p ** 3)

        c = p ** c_val * r()
        a, q = 1 + p * r(), p * r()
        no_x = IwahoriElement(ctx, 1 + p * r(), 0, c, 1 + p * r(), I1)
        no_s = IwahoriElement(ctx, 1, p * r(), c, 1 + p * r(), I1)
        # b = a q makes c b / a = c q an exact integer, so t = d - c q = 1
        no_t = IwahoriElement(ctx, a, a * q, c, 1 + c * q, I1)
        no_y = IwahoriElement(ctx, 1 + p * r(), p * r(), 0, 1 + p * r(), I1)
        assert no_x.b.is_zero
        assert no_s.a == ctx.one()
        a, b, c, d = (v.to_fraction() for v in (no_t.a, no_t.b, no_t.c, no_t.d))
        assert d - c * b / a == 1 and a != 1 and b != 0 and c != 0
        assert no_y.c.is_zero
        generic = [IwahoriElement(ctx, 1 + p * r(), p * r(), c, 1 + p * r(), I1) for _ in range(2)]
        return generic + [no_x, no_s, no_t, no_y, IwahoriElement(ctx, 1, 0, 0, 1, I1)]

    @pytest.mark.parametrize("ci", range(3), ids=["p5", "p3", "p7"])
    @pytest.mark.parametrize("max_level", [1, 2, 3], ids=lambda h: f"level{h}")
    def test_act(self, ci, max_level):
        ctx = self.CONTEXTS[ci]
        rng = random.Random(100 * ci + max_level)
        for k in range(2, 7):
            f = _random_function(ctx, rng, max_level, k - 2)
            assert {lf.series.tail_bound is INF for lf in f.leaves} == {True, False}
            assert max_level == f.max_level()
            for g in self._matrices(ctx, rng):
                out = act(g, f, self._chi(ctx, k))
                assert type(out) is PiecewiseFunction
                _assert_images(out.leaves, g, f, k)

    @pytest.mark.parametrize("ci", range(3), ids=["p5", "p3", "p7"])
    def test_act_smooth(self, ci):
        ctx = self.CONTEXTS[ci]
        rng = random.Random(ci)
        for max_level in (1, 2, 3):
            f = StepFunction(ctx, [
                Leaf(c, h, TateSeries(ctx, h, [_random_coeff(ctx, rng)],
                                      rng.choice([INF, rng.randint(0, 4)])))
                for c, h in _random_cosets(ctx, rng, max_level)
            ])
            for g in self._matrices(ctx, rng):
                out = act_smooth(g, f)
                assert type(out) is StepFunction
                sources = _assert_images(out.leaves, g, f, 2)
                # each constant is carried exactly
                for lf in out.leaves:
                    assert lf.series.coeffs == sources[lf.center, lf.level].series.coeffs

    @pytest.mark.parametrize("ci", range(3), ids=["p5", "p3", "p7"])
    def test_act_locally_algebraic(self, ci):
        ctx = self.CONTEXTS[ci]
        rng = random.Random(10 + ci)
        for k in range(2, 7):
            for max_level in (1, 2, 3):
                f = LocallyAlgebraicFunction(ctx, [
                    Leaf(c, h, TateSeries(ctx, h, [_random_coeff(ctx, rng) for _ in range(k - 1)]))
                    for c, h in _random_cosets(ctx, rng, max_level)
                ], k)
                for g in self._matrices(ctx, rng):
                    out = act_locally_algebraic(g, f, self._chi(ctx, k))
                    assert all(lf.series.tail_bound is INF for lf in out.leaves)
                    _assert_images(out.leaves, g, f, k)

    @pytest.mark.parametrize("ci", range(3), ids=["p5", "p3", "p7"])
    def test_act_cell(self, ci):
        ctx = self.CONTEXTS[ci]
        rng = random.Random(20 + ci)
        for k in (2, 4, 6):
            e = k - 2
            vec = WeylCellVector(_random_function(ctx, rng, 2, e), _random_function(ctx, rng, 3, e))
            # the w0 cell needs c in p Z_p
            for g in self._matrices(ctx, rng, c_val=1):
                out = act_cell(g, vec, self._chi(ctx, k))
                _assert_images(out.identity.leaves, g, vec.identity, k)
                _assert_images(out.w0.leaves, g, vec.w0, k, conjugate=True)


class TestImageLeafFromEntries:
    """The action reads the image of the leaf (z0, h) from g's own entries:
    it lies at the residue R of (c + d z0) / (a + b z0) modulo p**h, and its
    offset A = (a R - c) / (d - b R) - z0 is exact and rounded once."""

    @pytest.mark.parametrize("ci", range(3), ids=["p5", "p3", "p7"])
    def test_centres_and_offsets_follow_the_entries(self, ci):
        ctx = TestLeafwiseActionMeetsTheContract.CONTEXTS[ci]
        rng = random.Random(30 + ci)
        chi = TestLeafwiseActionMeetsTheContract._chi(ctx, 2)
        for max_level in (1, 2, 3):
            cosets = _random_cosets(ctx, rng, max_level)
            # S = z and k = 2: the image's z^0 is A
            f = PiecewiseFunction(ctx, [Leaf(c, h, TateSeries.monomial(ctx, h, 1))
                                        for c, h in cosets])
            for g in TestLeafwiseActionMeetsTheContract._matrices(ctx, rng):
                a, b, c, d = (v.to_fraction() for v in (g.a, g.b, g.c, g.d))
                out = {(lf.center, lf.level): lf.series for lf in act(g, f, chi).leaves}
                assert len(out) == len(cosets)
                for lf in f.leaves:
                    z0, h = lf.center, lf.level
                    w, ph = (c + d * z0) / (a + b * z0), ctx.p ** h
                    center = w.numerator * pow(w.denominator, -1, ph) % ph
                    assert leaf_image(g, lf, 2).center == center
                    offset = (a * center - c) / (d - b * center) - z0
                    assert out[center, h].coeff(0) == ctx.from_fraction(offset)


class TestDeepLeavesMeetTheContract:
    """Leaves deeper than kappa + v(c) meet the contract against g's own
    entries also when a != 1, where the rounded factors y = c / a,
    t = d - c b / a and x = b / a of g would each lose digits."""

    @pytest.mark.parametrize("entries", [(471, 0, 101, 441), (471, 5, 101, 441),
                                         (6, 10, 3, 11)], ids=["lower", "generic", "small"])
    @pytest.mark.parametrize("k", [2, 4])
    def test_coset_tree_to_level_six(self, entries, k):
        ctx = PadicContext(5, 12, 10, kappa=4)
        # the 25 cosets down to 5**6 Z_p: (0, 6) and every r 5**(j - 1), j = 1..6
        cosets = [(0, 6)] + [(r * 5 ** (j - 1), j) for j in range(1, 7) for r in range(1, 5)]
        f = PiecewiseFunction(ctx, [Leaf(c, h, TateSeries(ctx, h, [1, Fraction(1, 5 ** h)], 0))
                                    for c, h in cosets])
        g = IwahoriElement(ctx, *entries, I1)
        out = act(g, f, TestLeafwiseActionMeetsTheContract._chi(ctx, k))
        assert len(out.leaves) == 25
        _assert_images(out.leaves, g, f, k)


class TestImageResidueNeedsStoredDigits:
    """The stored digits of g fix y modulo p**(v(y) + N) and c / (r (1 + x c))
    modulo p**(v(c) + N), also where they read 1 or 0.  A leaf whose image
    residue needs digits beyond these is refused."""

    def test_deep_ball(self):
        ctx = PadicContext(5, 3, 8, kappa=1)
        f = StepFunction.indicator_ball(ctx, 5)
        for g in (IwahoriElement(ctx, 1, 5, 1, 1), IwahoriElement(ctx, 1, 0, 3, 1)):
            with pytest.raises(PrecisionError, match=r"mod p\^4 exceeds stored precision p\^3"):
                act_smooth(g, f)
        assert len(act_smooth(IwahoriElement(ctx, 6, 0, 0, 1), f).leaves) == 21

    # N = 1: a = 4 is stored as 1 and y = 405 / a as 2 * 3**4, so the stored
    # diagonal is the identity, y is known modulo 3**5 and c / a modulo
    # 3**(v(c) + 1).  [[4, 0], [405, 1]] sends the leaf (1, 3) to
    # 406 / 4 = 7 mod 27, where the stored digits give 1 + 162 = 1 mod 27
    @pytest.mark.parametrize("a, y", [(1, 405), (4, 405), (4, 0), (1, 7)])
    def test_unit_leaves_below_the_stored_digits(self, a, y):
        ctx = PadicContext(3, 1, 4, kappa=0)
        one = TateSeries.constant(ctx, 3, 1)
        f = StepFunction(ctx, [Leaf(c, 3, one) for c in range(27)])
        with pytest.raises(PrecisionError, match=r"mod p\^3 exceeds stored precision p\^1"):
            act_smooth(IwahoriElement(ctx, a, 0, y, 1), f)

    @pytest.mark.parametrize("a, y", [(1, 405), (4, 405), (4, 0)])
    def test_answered_leaves_land_on_the_true_image(self, a, y):
        # every leaf (c, h) has h <= v(c) + N and v(y) >= 4, so the image
        # residue (c + y) / a is needed modulo 3**(v(c) + N) only
        ctx = PadicContext(3, 1, 4, kappa=0)
        cells = [(1, 1), (2, 1), (3, 2), (6, 2), (0, 3), (9, 3), (18, 3)]
        f = StepFunction(ctx, [Leaf(c, h, TateSeries.constant(ctx, h, 1)) for c, h in cells])
        out = act_smooth(IwahoriElement(ctx, a, 0, y, 1), f)
        want = {((c + y) * pow(a, -1, 3 ** h) % 3 ** h, h) for c, h in cells}
        assert {(lf.center, lf.level) for lf in out.leaves} == want


class TestCentreInverseModuloLevel:
    """The image centre of a leaf (z0, h) inverts a + b z0 modulo p**h, not
    p**N.  Its residue is the one that the inverse modulo p**N gives, also on
    accepted leaves deeper than N, and an action with b != 0 makes one
    inverse modulo p**N per leaf (the offset's q) besides those of a and d."""

    @staticmethod
    def _centres_by_inverse_mod_pn(g, leaves):
        p, pN = g.ctx.p, g.ctx.pN
        a, b, c, d = (v.unit * p ** v.val if v.unit else 0 for v in (g.a, g.b, g.c, g.d))
        return [(c + d * lf.center) * pow(a + b * lf.center, -1, pN) % p ** lf.level
                for lf in leaves]

    def _assert_centres(self, g, f):
        assert not g.b.is_zero
        got = [lf.center for lf in actions._act_piecewise(f.ctx, f.leaves, g, 0)]
        assert got == self._centres_by_inverse_mod_pn(g, f.leaves)

    @pytest.mark.parametrize("ci", range(3), ids=["p5", "p3", "p7"])
    def test_random_cosets(self, ci):
        ctx = TestLeafwiseActionMeetsTheContract.CONTEXTS[ci]
        rng = random.Random(40 + ci)
        for max_level in (1, 2, 3):
            f = StepFunction(ctx, [Leaf(c, h, TateSeries.constant(ctx, h, 1))
                                   for c, h in _random_cosets(ctx, rng, max_level)])
            for g in TestLeafwiseActionMeetsTheContract._matrices(ctx, rng, c_val=1):
                if not g.b.is_zero:
                    self._assert_centres(g, f)

    @pytest.mark.parametrize("b", [5, 10, 3 * 125])
    def test_leaves_deeper_than_n(self, b):
        # N = 3 and v(c) = 2: a leaf at level 5 is accepted when its centre
        # lies in 25 Z_p, and its residue needs the inverse modulo p**5
        ctx = PadicContext(5, 3, 8, kappa=1)
        cells = ([(r, 1) for r in range(1, 5)] + [(5 * r, 2) for r in range(1, 5)]
                 + [(25 * r, 5) for r in range(125)])
        f = StepFunction(ctx, [Leaf(c, h, TateSeries.constant(ctx, h, 1)) for c, h in cells])
        g = IwahoriElement(ctx, 16, b, 25, 26, I1)
        self._assert_centres(g, f)
        assert len(act_smooth(g, f).leaves) == len(cells)

    def test_one_inverse_modulo_pn_per_leaf(self, ctx, monkeypatch):
        rng = random.Random(5)
        f = _random_function(ctx, rng, 2, 2)
        calls = []

        def counted(*args):
            if args[1:] == (-1, ctx.pN):
                calls.append(args[0])
            return pow(*args)

        monkeypatch.setattr(actions, "pow", counted, raising=False)
        for g, want in ((IwahoriElement(ctx, 16, 10, 35, 26, I1), 2 + len(f.leaves)),
                        (IwahoriElement(ctx, 16, 0, 35, 26, I1), 2)):
            calls.clear()
            act(g, f, chi_for(ctx, 4))
            assert len(calls) == want, g


# -- act on one series ----------------------------------------------------------


class TestSeriesActionMatchesChain:
    """act on a level-m series is the one-leaf case (0, m) of the leafwise
    action: it shifts the short source and cuts the image at z^D once, and it
    meets the precision contract against the exact image.  Acting by the
    factors of g = [[1, 0], [y, 1]] diag(s, t) [[1, x], [0, 1]] one after
    another cuts the mobius image before it translates, so it can miss the
    contract."""

    CONTEXTS = TestLeafwiseActionMeetsTheContract.CONTEXTS

    @staticmethod
    def _matrices(ctx, rng, m):
        """Two random elements of G(m) (of I(1) at m = 0), one with x = 0,
        one diagonal, and the identity."""
        p = ctx.p
        q, cq = p ** max(m, 1), p ** m

        def r():
            return rng.randrange(1, p ** 3)

        level = m or I1
        return [IwahoriElement(ctx, 1 + q * r(), q * r(), cq * r(), 1 + q * r(), level)
                for _ in range(2)] + [
            IwahoriElement(ctx, 1 + q * r(), 0, cq * r(), 1 + q * r(), level),
            IwahoriElement(ctx, 1 + q * r(), 0, 0, 1 + q * r(), level),
            IwahoriElement(ctx, 1, 0, 0, 1, level),
        ]

    @pytest.mark.parametrize("ci", range(3), ids=["p5", "p3", "p7"])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_act_meets_the_contract(self, ci, m):
        ctx = self.CONTEXTS[ci]
        rng = random.Random(10 * ci + m)
        chi = TestLeafwiseActionMeetsTheContract._chi
        for k in range(2, 6):
            for kind in LEAF_KINDS:
                f = _random_leaf_series(ctx, rng, m, k - 2, kind)
                for g in self._matrices(ctx, rng, m):
                    out = act(g, f, chi(ctx, k))
                    image = leaf_image(g, Leaf(0, m, f), k)
                    assert image.center == 0
                    assert_meets_contract(out, image)
                    if kind in ("short exact", "zero"):
                        # an exact polynomial of degree <= k - 2 stays one
                        assert out.tail_bound is INF

    def test_shifting_the_cut_image_misses_the_true_image(self):
        # z^2 under [[1, 5], [1, 1]] = lower(1) diag(1, -4) upper(5): x = 5 and
        # a unit translation y = 1.  The Mobius image's g_l has valuation
        # l - 2, and the chain cuts it at z^D before the unit shift carries
        # the dropped g_17 onto z^0, 15 digits up, below the contract's
        # N - kappa = 36.  act shifts z^2 first and cuts once, so it meets
        # the contract
        ctx, k = self.CONTEXTS[0], 2
        chi = TestLeafwiseActionMeetsTheContract._chi(ctx, k)
        f = TateSeries.monomial(ctx, 0, 2)
        g = IwahoriElement(ctx, 1, 5, 1, 1, I1)
        image = leaf_image(g, Leaf(0, 0, f), k)
        assert_meets_contract(act(g, f, chi), image)
        assert lower(ctx, 1) @ diag(ctx, 1, -4) @ upper(ctx, 5) == g
        mobius = act(upper(ctx, 5), f, chi)
        cut_first = act(lower(ctx, 1), act(diag(ctx, 1, -4), mobius, chi), chi)
        assert valuation(cut_first.coeff(0).to_fraction() - image.coeffs[0], ctx.p) == 15

    @pytest.mark.parametrize("ci", range(3), ids=["p5", "p3", "p7"])
    def test_level_zero_series_is_the_global_leaf(self, ci):
        ctx = self.CONTEXTS[ci]
        rng = random.Random(ci)
        for k in range(2, 6):
            chi = TestLeafwiseActionMeetsTheContract._chi(ctx, k)
            for kind in LEAF_KINDS:
                f = _random_leaf_series(ctx, rng, 0, k - 2, kind)
                glob = PiecewiseFunction.from_global_series(f)
                for g in self._matrices(ctx, rng, 0):
                    (lf,) = act(g, glob, chi).leaves
                    assert act(g, f, chi) == lf.series


class TestWeightAboveTruncation:
    """k - 2 > D: without a mobius step the twist never expands, so series and
    piecewise inputs act alike; a mobius step still refuses the weight."""

    def test_only_the_mobius_step_refuses(self):
        ctx = PadicContext(5, 20, 4)
        k = ctx.D + 3
        chi = InductionCharacter(ctx.from_int(15), ctx.from_int(5), k, strict=False)
        f = TateSeries(ctx, 0, [1, 5, 7], tail_bound=2)
        glob = PiecewiseFunction.from_global_series(f)
        for g in (diag(ctx, 6, 11), lower(ctx, 3), IwahoriElement(ctx, 6, 0, 2, 11, I1)):
            out = act(g, f, chi)
            (lf,) = act(g, glob, chi).leaves
            assert out == lf.series
            assert out.val_c() == f.val_c()
        for g in (upper(ctx, 5), IwahoriElement(ctx, 6, 5, 2, 11, I1)):
            for h in (f, glob):
                with pytest.raises(ParameterError, match="twist exponent"):
                    act(g, h, chi)


class TestActionOutputPinned:
    """The stored (val, unit) pairs, tail bounds, centres and levels of the
    images from act, act_cell, act_smooth and act_locally_algebraic over one
    seeded draw, hashed and pinned: a moved digit anywhere fails.  The draw
    reaches truncated, exact and zero leaves, b = 0 and b != 0, e = 0 and
    e > 0, and zero shifts (the identity, and diagonal matrices on the leaf
    at 0)."""

    DIGEST = "1c3dd3bed2239aa789ec0cded2905cbc49011674bdf9fd07de28fef787c08768"

    @staticmethod
    def _rows(out):
        if isinstance(out, TateSeries):
            return [(0, out.m, out.tail_bound, [(a.val, a.unit) for a in out.coeffs])]
        return [(lf.center, lf.level, lf.series.tail_bound,
                 [(a.val, a.unit) for a in lf.series.coeffs]) for lf in out.leaves]

    def _images(self):
        ctx = PadicContext(5, 20, 12)
        rng = random.Random(23)
        chi = TestLeafwiseActionMeetsTheContract._chi
        matrices = TestLeafwiseActionMeetsTheContract._matrices
        rows = []
        for k in (2, 4):
            e = k - 2
            f = _random_function(ctx, rng, 2, e)
            step = StepFunction(ctx, [Leaf(lf.center, lf.level, TateSeries(
                ctx, lf.level, [_random_coeff(ctx, rng)], rng.choice([INF, 3])))
                for lf in f.leaves])
            la = LocallyAlgebraicFunction(ctx, [Leaf(lf.center, lf.level, TateSeries(
                ctx, lf.level, [_random_coeff(ctx, rng) for _ in range(k - 1)]))
                for lf in f.leaves], k)
            vec = WeylCellVector(f, _random_function(ctx, rng, 1, e))
            for g in matrices(ctx, rng) + [diag(ctx, 6, 11)]:
                rows += self._rows(act(g, f, chi(ctx, k)))
                rows += self._rows(act_smooth(g, step))
                rows += self._rows(act_locally_algebraic(g, la, chi(ctx, k)))
            for g in matrices(ctx, rng, c_val=1):
                out = act_cell(g, vec, chi(ctx, k))
                rows += self._rows(out.identity) + self._rows(out.w0)
            for m in (0, 1, 2):
                for kind in LEAF_KINDS:
                    s = _random_leaf_series(ctx, rng, m, e, kind)
                    for g in TestSeriesActionMatchesChain._matrices(ctx, rng, m):
                        rows += self._rows(act(g, s, chi(ctx, k)))
        return rows

    def test_digest(self):
        rows = self._images()
        assert any(tail is INF for *_, tail, _ in rows)
        assert any(tail is not INF for *_, tail, _ in rows)
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.DIGEST
