"""Piecewise models on Z_p: partitions, gluing verdicts, Mahler checks."""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from rigidpadic import functions, io
from rigidpadic.actions import (I1, InductionCharacter, IwahoriElement, act,
                                act_locally_algebraic, act_smooth)
from rigidpadic.analytic import orbit_membership
from rigidpadic.errors import ParameterError
from rigidpadic.padic import _ZERO, INF, PadicContext, PadicNumber, _agreement, _pair_sum
from rigidpadic.functions import (
    MAX_LEVEL,
    Leaf,
    LocallyAlgebraicFunction,
    PiecewiseFunction,
    StepFunction,
    _re_expand,
    compare_tracked,
    is_member_Can,
    is_member_C_m,
    is_member_pi_an,
    mahler_coefficients,
)
from rigidpadic.selftest import (_perturb_one_inball_leaf, rand_chi, rand_iwahori,
                                 rand_refined_global)
from rigidpadic.series import TateSeries
from rigidpadic.verdict import Verdict


def units_leaves(ctx, level=1, value=0):
    """Constant leaves on every non-divisible residue at the level."""
    p = ctx.p
    out = []
    for r in range(p ** level):
        if r % p:
            out.append(Leaf(r, level, TateSeries.constant(ctx, level, value)))
    return out


class TestPartition:
    def test_whole_line_single_leaf(self, ctx):
        f = PiecewiseFunction.constant(ctx, 3)
        assert len(f.leaves) == 1
        assert f.leaves[0].level == 0

    def test_missing_coset_rejected(self, ctx):
        leaves = [Leaf(r, 1, TateSeries.constant(ctx, 1, r)) for r in range(4)]
        with pytest.raises(ParameterError):
            PiecewiseFunction(ctx, leaves)

    def test_overlapping_cosets_rejected(self, ctx):
        leaves = [Leaf(r, 1, TateSeries.constant(ctx, 1, r)) for r in range(5)]
        leaves.append(Leaf(0, 2, TateSeries.constant(ctx, 2, 9)))
        with pytest.raises(ParameterError):
            PiecewiseFunction(ctx, leaves)

    def test_leaf_level_must_match_series_level(self, ctx):
        leaves = [Leaf(0, 0, TateSeries.constant(ctx, 1, 1))]
        with pytest.raises(ParameterError):
            PiecewiseFunction(ctx, leaves)

    def test_refine_counts_residues(self, ctx):
        f = PiecewiseFunction.constant(ctx, 4)
        for level in (1, 2, 3):
            g = f.refine(level)
            assert len(g.leaves) == ctx.p ** level
            assert sorted(lf.center for lf in g.leaves) == list(range(ctx.p ** level))

    def test_refine_keeps_leaves_at_the_level(self, ctx):
        f = PiecewiseFunction.indicator_ball(ctx, 2).refine(3)
        g = f.refine(3)
        assert all(x.series is y.series for x, y in zip(f.leaves, g.leaves))

    def test_refine_keeps_evaluation(self, ctx):
        rng = random.Random(31)
        series = TateSeries(ctx, 0, [3, 1, 0, 2])
        f = PiecewiseFunction.from_global_series(series)
        g = f.refine(2)
        for _ in range(50):
            z = ctx.from_int(rng.randrange(0, 5 ** 8))
            assert f.evaluate(z).agrees_with(g.evaluate(z))

    def test_refine_above_the_level_cap_is_refused_before_any_leaf(self, monkeypatch):
        # refine lists p**(level - h) targets per leaf, 3**13 here, so the
        # level is checked before any of them
        ctx = PadicContext(3, 10, 8)
        f = PiecewiseFunction.constant(ctx, 1)
        monkeypatch.setattr(functions, "_restrict", lambda *a: pytest.fail("leaves built"))
        for level in (MAX_LEVEL + 1, True, 2.0, "2", None):
            with pytest.raises(ParameterError, match=f"refinement level must be an integer <= {MAX_LEVEL}, got {level!r}"):
                f.refine(level)

    def test_refine_linear_shift_oracle(self, ctx):
        # z on Z_p splits into a + z' on each residue a
        f = PiecewiseFunction.from_global_series(TateSeries.monomial(ctx, 0, 1))
        g = f.refine(1)
        for lf in g.leaves:
            assert lf.series.coeff(0) == ctx.from_int(lf.center)
            assert lf.series.coeff(1) == ctx.one()


def _pairwise_partition_error(ctx, leaves):
    """The quadratic partition check, kept as the oracle for the messages:
    the error text for leaves sorted by (level, center), or None."""
    if not leaves:
        return "a partition needs at least one leaf"
    total = Fraction(0)
    for lf in leaves:
        total += Fraction(1, ctx.p ** lf.level)
    if total != 1:
        return f"leaf measures sum to {total}, expected 1"
    for i, a in enumerate(leaves):
        for b in leaves[i + 1 :]:
            h = min(a.level, b.level)
            if (a.center - b.center) % ctx.p ** h == 0:
                return f"cosets overlap: centers {a.center}@{a.level} and {b.center}@{b.level}"
    return None


def _partition_error(ctx, leaves):
    try:
        PiecewiseFunction(ctx, leaves)
    except ParameterError as exc:
        return str(exc)
    return None


class TestPartitionCheck:
    """The linear check gives exactly the verdicts and messages of the
    pairwise scan."""

    def _leaves(self, ctx, *pairs):
        return [Leaf(c, h, TateSeries.constant(ctx, h, 1)) for c, h in pairs]

    def _check(self, ctx, leaves):
        got = _partition_error(ctx, leaves)
        ordered = sorted(leaves, key=lambda lf: (lf.level, lf.center))
        assert got == _pairwise_partition_error(ctx, ordered)
        return got

    def test_gap_message(self, ctx):
        leaves = self._leaves(ctx, (0, 1), (1, 1), (2, 1), (3, 1))
        assert self._check(ctx, leaves) == "leaf measures sum to 4/5, expected 1"

    def test_overlap_message(self, ctx):
        # measure 4/5 + 5/25 = 1, but 0@2 lies inside 0@1 and residue 4 is bare
        leaves = self._leaves(ctx, (0, 1), (1, 1), (2, 1), (3, 1),
                              (0, 2), (5, 2), (10, 2), (15, 2), (20, 2))
        assert self._check(ctx, leaves) == "cosets overlap: centers 0@1 and 0@2"

    def test_duplicate_message(self, ctx):
        leaves = self._leaves(ctx, (0, 1), (1, 1), (2, 1), (3, 1), (2, 1))
        assert self._check(ctx, leaves) == "cosets overlap: centers 2@1 and 2@1"

    def test_random_leaf_sets_match_the_pairwise_scan(self):
        # valid partitions, and partitions with one coset dropped, duplicated,
        # split into its children beside itself, or its parent added; a
        # duplicate or split also drops a sibling coset when there is one,
        # so the measure stays 1 and only the overlap scan can see it
        rng = random.Random(5)
        seen = set()
        for p in (3, 5):
            ctx = PadicContext(p, 10, 8)
            for _ in range(80):
                f = PiecewiseFunction.indicator_ball(ctx, rng.randint(0, 3))
                f = f.refine(rng.randint(f.max_level(), 3)) if rng.random() < 0.3 else f
                pairs = [(lf.center, lf.level) for lf in f.leaves]
                c, h = pairs[rng.randrange(len(pairs))]
                siblings = [q for q in pairs if q[1] == h and q != (c, h)]
                edit = rng.choice(("none", "drop", "dup", "split", "parent"))
                if edit == "drop":
                    pairs.remove((c, h))
                elif edit == "dup":
                    pairs.append((c, h))
                elif edit == "split":
                    pairs += [(c + r * p ** h, h + 1) for r in range(p)]
                elif edit == "parent" and h:
                    pairs.append((c % p ** (h - 1), h - 1))
                if edit in ("dup", "split") and siblings:
                    pairs.remove(rng.choice(siblings))
                got = self._check(ctx, self._leaves(ctx, *pairs))
                seen.add(got and got.split()[0])
        assert seen == {None, "a", "leaf", "cosets"}  # valid, empty, measure, overlap
        # refined single-level partitions, on which a set of keys as large
        # as the leaf list decides the overlap: valid, one coset dropped, or
        # one duplicated with or without a sibling dropped
        seen = set()
        for p in (3, 5):
            ctx = PadicContext(p, 10, 8)
            for _ in range(40):
                f = PiecewiseFunction.indicator_ball(ctx, rng.randint(0, 3))
                pairs = [(lf.center, lf.level)
                         for lf in f.refine(rng.randint(max(1, f.max_level()), 3)).leaves]
                assert len({h for _, h in pairs}) == 1
                c, h = pairs[rng.randrange(len(pairs))]
                siblings = [q for q in pairs if q != (c, h)]
                edit = rng.choice(("none", "drop", "dup", "dup and drop"))
                if edit == "drop":
                    pairs.remove((c, h))
                elif edit.startswith("dup"):
                    pairs.append((c, h))
                if edit == "dup and drop":
                    pairs.remove(rng.choice(siblings))
                got = self._check(ctx, self._leaves(ctx, *pairs))
                seen.add((edit, got and got.split()[0]))
        assert seen == {("none", None), ("drop", "leaf"), ("dup", "leaf"),
                        ("dup and drop", "cosets")}

    def test_deep_partitions_are_checked_in_linear_time(self, ctx):
        # 5**6 = 15,625 leaves per side, both operands refined to level 6
        # (the coarsest common partition of the balls themselves has only
        # 25); the pairwise scan took minutes here
        start = time.perf_counter()
        ball6 = PiecewiseFunction.indicator_ball(ctx, 6).refine(6)
        assert not ball6.agrees_with(PiecewiseFunction.indicator_ball(ctx, 1).refine(6))
        assert time.perf_counter() - start < 5

    def test_the_least_pair_is_named_not_the_first_met(self):
        # the walk meets the duplicate 2@2 (positions 2 and 3) first, but 4@2
        # lies in 1@1 (position 1), and the pairwise scan names 1@1 first
        ctx = PadicContext(3, 10, 8)
        leaves = self._leaves(ctx, (0, 1), (1, 1), (2, 2), (2, 2), (4, 2))
        assert self._check(ctx, leaves) == "cosets overlap: centers 1@1 and 4@2"
        # nested over three levels, with several duplicates: 0@1 holds 3@2
        # and the 0@3 chain, 9@3 and 18@3 repeat, 1@1 and 6@2 are bare
        leaves = self._leaves(ctx, (0, 1), (2, 1), (3, 2), (0, 3), (9, 3), (9, 3),
                              (18, 3), (18, 3), (0, 3))
        assert self._check(ctx, leaves) == "cosets overlap: centers 0@1 and 3@2"
        # a chain without its root: 0@2 holds 0@3 (twice), 9@3 (twice) and
        # 0@4, 27@4 and 54@4; 6@2 is covered by three of its nine children
        leaves = self._leaves(ctx, (1, 1), (2, 1), (0, 2), (0, 3), (0, 3), (9, 3), (9, 3),
                              (6, 4), (33, 4), (60, 4), (27, 4), (54, 4), (0, 4))
        assert self._check(ctx, leaves) == "cosets overlap: centers 0@2 and 0@3"

    def test_multi_edit_leaf_sets_match_the_pairwise_scan(self):
        # random partitions of up to eight splits (into children, or into
        # grandchildren, so that a leaf can hold no child), then up to three edits
        # that keep the measure: a leaf is replaced by a copy of another leaf
        # of its level, or by the ancestor at its level of a deeper leaf
        rng = random.Random(7)
        seen = set()
        for p in (3, 5):
            ctx = PadicContext(p, 10, 8)
            for _ in range(150):
                pairs = [(0, 0)]
                for _ in range(rng.randint(1, 8)):
                    c, h = pairs.pop(rng.randrange(len(pairs)))
                    step = rng.choice((1, 1, 2))  # a split into grandchildren too
                    pairs += [(c + r * p ** h, h + step) for r in range(p ** step)]
                for _ in range(rng.randint(0, 3)):
                    c, h = pairs.pop(rng.randrange(len(pairs)))
                    same = [q for q in pairs if q[1] == h]
                    deeper = [(d % p ** h, h) for d, g in pairs if g > h]
                    pairs.append(rng.choice(same + deeper or [(c, h)]))
                ordered = sorted(self._leaves(ctx, *pairs), key=lambda lf: (lf.level, lf.center))
                got = self._check(ctx, ordered)
                if got is None:
                    seen.add("valid")
                    continue
                a, b = got.split()[3:6:2]
                levels = int(a.split("@")[1]), int(b.split("@")[1])
                seen.add("duplicate" if a == b else f"gap {min(levels[1] - levels[0], 2)}")
                # the first leaf, in order, that lies in an earlier one
                j = next(j for j, y in enumerate(ordered) if any(
                    (x.center - y.center) % p ** x.level == 0 for x in ordered[:j]))
                if b != f"{ordered[j].center}@{ordered[j].level}":
                    seen.add("not the first met")
        assert seen == {"valid", "duplicate", "gap 1", "gap 2", "not the first met"}

    def test_errors_rank_leaf_then_measure_then_overlap(self):
        ctx, other = PadicContext(3, 10, 8), PadicContext(3, 12, 8)
        const = TateSeries.constant
        bad = {  # sort key: (leaf, message)
            (MAX_LEVEL + 1, 0): (
                Leaf(0, MAX_LEVEL + 1, const(ctx, 1, 1)),
                f"leaf level must be an integer in [0, {MAX_LEVEL}], got {MAX_LEVEL + 1}"),
            (2, -1): (Leaf(-1, 2, const(ctx, 2, 1)), "leaf center -1 not reduced mod p^2"),
            (2, 4): (Leaf(4, 2, const(ctx, 1, 1)),
                     "leaf series level 1 differs from coset level 2"),
            (2, 5): (Leaf(5, 2, const(other, 2, 1)), "leaf series belongs to a different context"),
            (2, 10): (Leaf(10, 2, const(ctx, 2, 1)), "leaf center 10 not reduced mod p^2"),
        }
        base = self._leaves(ctx, (0, 1), (1, 1), (2, 1))
        for key, (leaf, message) in bad.items():
            # the measure is no longer 1, and 4@2 and 5@2 lie in 1@1 and 2@1
            assert _partition_error(ctx, base + [leaf]) == message
            for key2, (leaf2, message2) in bad.items():
                if key2 != key:
                    got = _partition_error(ctx, [leaf2] + base + [leaf])
                    assert got == (message if key < key2 else message2)
        # of the same measure as the leaf it replaces, beside a duplicate
        dup = self._leaves(ctx, (1, 1), (1, 1))
        assert (_partition_error(ctx, dup + [Leaf(0, 1, const(ctx, 0, 1))])
                == "leaf series level 0 differs from coset level 1")
        got = self._check(ctx, dup + self._leaves(ctx, (0, 1)))
        assert got == "cosets overlap: centers 1@1 and 1@1"
        # a measure error beats an overlap
        leaves = self._leaves(ctx, (0, 1), (0, 1), (1, 1), (2, 2))
        assert self._check(ctx, leaves) == "leaf measures sum to 10/9, expected 1"
        assert self._check(ctx, []) == "a partition needs at least one leaf"

    def test_a_late_overlap_is_refused_in_linear_time(self):
        # the pairwise scan took 6-8 s on the first set (2-vCPU Xeon VM): it
        # names the pair only after testing every earlier leaf against all later ones
        ctx, n = PadicContext(3, 10, 8), 3 ** 8
        one_level = self._leaves(ctx, *[(c, 8) for c in range(n - 1)], (n - 2, 8))
        # 2@1 sorts first, and the deep leaves inside it last
        deep = [c for c in range(n) if c % 3 != 2][:-3] + [n - 7, n - 4, n - 1]
        coarse = self._leaves(ctx, (2, 1), *[(c, 8) for c in deep])
        # 2184@7 sorts last of the 729 level-7 leaves 3c, and holds 2184@8
        late = self._leaves(ctx, *[(3 * c, 7) for c in range(3 ** 6)],
                            *[(c, 8) for c in range(n) if c % 3][:-3],
                            *[(2184 + 3 ** 7 * r, 8) for r in range(3)])
        cases = [(one_level, f"cosets overlap: centers {n - 2}@8 and {n - 2}@8"),
                 (coarse, _pairwise_partition_error(ctx, coarse)),
                 (late, "cosets overlap: centers 2184@7 and 2184@8")]
        assert cases[1][1] == f"cosets overlap: centers 2@1 and {n - 7}@8"
        for leaves, message in cases:
            start = time.perf_counter()
            assert _partition_error(ctx, leaves) == message
            assert time.perf_counter() - start < 1


class TestMembershipCan:
    def test_global_series_trivially_glues(self, ctx):
        f = PiecewiseFunction.from_global_series(TateSeries(ctx, 0, [1, 2, 3]))
        res = is_member_Can(f, 0)
        assert res.status is Verdict.YES
        assert bool(res)

    def test_indicator_inside_its_own_ball(self, ctx):
        f = StepFunction.indicator_ball(ctx, 1)
        res = is_member_Can(f, 1)
        assert res.status is Verdict.YES
        assert res.witness.degree == 0
        assert res.witness.coeff(0) == ctx.one()

    def test_disagreeing_constants_refused(self, ctx):
        inner = [
            Leaf(0, 2, TateSeries.constant(ctx, 2, 0)),
            Leaf(5, 2, TateSeries.constant(ctx, 2, 1)),
            Leaf(10, 2, TateSeries.constant(ctx, 2, 0)),
            Leaf(15, 2, TateSeries.constant(ctx, 2, 0)),
            Leaf(20, 2, TateSeries.constant(ctx, 2, 0)),
        ]
        f = PiecewiseFunction(ctx, inner + units_leaves(ctx))
        assert is_member_Can(f, 1).status is Verdict.NO

    def test_starved_comparison_is_indeterminate(self, ctx):
        # every off-zero leaf builds its constant term by cancelling
        # valuation-1 terms, so the reliable window stops far short of
        # the depth needed to certify agreement with 5**35
        tiny = 5 ** 35
        inner = [Leaf(0, 2, TateSeries(ctx, 2, [tiny, 1]))]
        for r in (5, 10, 15, 20):
            inner.append(Leaf(r, 2, TateSeries(ctx, 2, [r + tiny, 1])))
        f = PiecewiseFunction(ctx, inner + units_leaves(ctx))
        assert is_member_Can(f, 1).status is Verdict.INDETERMINATE

    def test_monotone_in_level(self, ctx):
        f = StepFunction.indicator_ball(ctx, 1)
        assert is_member_Can(f, 1).status is Verdict.YES
        assert is_member_Can(f, 2).status is Verdict.YES
        assert is_member_Can(f, 3).status is Verdict.YES

    def test_level_guard(self, ctx):
        f = PiecewiseFunction.constant(ctx, 1)
        with pytest.raises(ParameterError):
            is_member_Can(f, -1)

    def test_no_after_starved_leaf_names_the_starved_leaf(self, ctx):
        # center 5 re-expands to the reference's constant through a starved
        # window, center 10 visibly differs: the culprit is the first
        # non-YES leaf, whatever the final verdict
        tiny = 5 ** 35
        inner = [Leaf(0, 2, TateSeries(ctx, 2, [tiny, 1])),
                 Leaf(5, 2, TateSeries(ctx, 2, [5 + tiny, 1])),
                 Leaf(10, 2, TateSeries(ctx, 2, [11 + tiny, 1]))]
        for r in (15, 20):
            inner.append(Leaf(r, 2, TateSeries(ctx, 2, [r + tiny, 1])))
        res = is_member_Can(PiecewiseFunction(ctx, inner + units_leaves(ctx)), 1)
        assert res.status is Verdict.NO
        assert res.witness is None
        assert res.detail == "re-expansions disagree: leaf at center 5 (level 2)"

    def test_witness_tail_is_the_least_candidate_tail(self, ctx):
        # g = 25 + 5z has val_C 2 on 5Z_5; the truncated leaf at center 10
        # claims only its stored minimum there, the one at center 0 keeps
        # its own tail 9, the exact leaves claim +inf
        g = PiecewiseFunction.from_global_series(TateSeries(ctx, 0, [25, 5])).refine(2)
        leaves = [
            Leaf(lf.center, lf.level,
                 TateSeries(ctx, 2, lf.series.coeffs, {0: 9, 10: 7}.get(lf.center, INF)))
            for lf in g.leaves
        ]
        f = PiecewiseFunction(ctx, leaves)
        res = is_member_Can(f, 1)
        assert res.status is Verdict.YES
        assert res.detail == "5 leaves glue"
        tails = [_re_expand(ctx, lf, 1)[2] for lf in f.leaves_in_ball(1)]
        assert tails == [9, INF, 2, INF, INF]
        assert res.witness.tail_bound == 2
        assert res.witness.coeffs == (ctx.from_int(25), ctx.from_int(5))

    def test_truncated_leaf_storing_nothing_keeps_its_tail(self, ctx):
        # four leaves known only modulo their tail bound 3 glue to zero, but
        # the witness is truncated: nothing stored, tail 3, never +inf
        leaves = [Leaf(0, 1, TateSeries.zero(ctx, 1))] + [
            Leaf(c, 1, TateSeries(ctx, 1, [], 3)) for c in range(1, 5)]
        assert _re_expand(ctx, leaves[1], 0)[2] == 3
        res = is_member_Can(PiecewiseFunction(ctx, leaves), 0)
        assert res.status is Verdict.YES
        assert res.witness == TateSeries(ctx, 0, [], 3)

    def test_stops_at_the_first_disagreeing_leaf(self, ctx, monkeypatch):
        # the second in-ball leaf (center 5) differs from the reference, so
        # only those two leaves are re-expanded
        calls = []
        real = functions._re_expand

        def counted(ctx, lf, m):
            calls.append(lf.center)
            return real(ctx, lf, m)

        monkeypatch.setattr(functions, "_re_expand", counted)
        inner = [Leaf(r, 2, TateSeries.constant(ctx, 2, int(r == 5))) for r in range(0, 25, 5)]
        res = is_member_Can(PiecewiseFunction(ctx, inner + units_leaves(ctx)), 1)
        assert res.status is Verdict.NO
        assert res.detail == "re-expansions disagree: leaf at center 5 (level 2)"
        assert calls == [0, 5]


class TestCompareTracked:
    def test_certified_agreement(self, ctx):
        # the difference sits at 5**38, past the threshold 0 + N - kappa = 36
        x = ctx.from_int(7)
        assert compare_tracked(ctx, x, INF, x + ctx.from_int(5 ** 38), INF) is Verdict.YES
        assert compare_tracked(ctx, x, 36, x, 36) is Verdict.YES

    def test_visible_difference(self, ctx):
        assert compare_tracked(ctx, ctx.from_int(7), 40, ctx.from_int(8), 40) is Verdict.NO
        # a difference below the window counts even when the window is shallow
        assert compare_tracked(ctx, ctx.from_int(7), 3, ctx.from_int(32), INF) is Verdict.NO

    def test_values_of_another_context_refused(self, ctx):
        x, y = ctx.from_int(7), PadicContext(3, ctx.N, ctx.D).from_int(7)
        for a, b in ((x, y), (y, x), (y, y)):
            with pytest.raises(ParameterError, match="different contexts"):
                compare_tracked(ctx, a, INF, b, INF)

    def test_shallow_window(self, ctx):
        # equal down to 5**30, but the window 20 stops short of the threshold 36
        x = ctx.from_int(7)
        assert compare_tracked(ctx, x, 20, x + ctx.from_int(5 ** 30), INF) is Verdict.INDETERMINATE
        assert compare_tracked(ctx, x, INF, x, 35) is Verdict.INDETERMINATE

    def test_zero_side_compares_at_absolute_depth(self, ctx):
        z = ctx.zero()
        assert compare_tracked(ctx, z, INF, ctx.from_int(5 ** 36), INF) is Verdict.YES
        assert compare_tracked(ctx, ctx.from_int(5 ** 35), INF, z, INF) is Verdict.NO
        assert compare_tracked(ctx, z, 0, z, 0) is Verdict.YES


def _exact_compare(ctx, x, x_ceil, y, y_ceil):
    """The agreement rule on the exact difference of the stored values, from
    to_fraction() and _frac_val alone.  Rounding x - y as __sub__ does only
    moves a valuation at or above min(val) + N, past the threshold, so the
    exact and the rounded difference decide alike."""
    if x.is_zero and y.is_zero:
        return Verdict.YES
    scale = 0 if x.is_zero or y.is_zero else min(x.val, y.val)
    threshold = scale + ctx.N - ctx.kappa
    window = min(x_ceil, y_ceil)
    q = x.to_fraction() - y.to_fraction()
    dv = _frac_val(q, ctx.p) if q else INF
    if dv < min(window, threshold):
        return Verdict.NO
    if window < threshold:
        return Verdict.INDETERMINATE
    return Verdict.YES


def _folded_verdict(ctx, a, a_ceil, b, b_ceil):
    """The oracle: _exact_compare on every coefficient, folded with &."""
    out = Verdict.YES
    for v in range(max(len(a.coeffs), len(b.coeffs))):
        ca = a_ceil[v] if v < len(a_ceil) else INF
        cb = b_ceil[v] if v < len(b_ceil) else INF
        out = out & _exact_compare(ctx, a.coeff(v), ca, b.coeff(v), cb)
    return out


def _pairs(s):
    """The (val, unit) pairs of a series' stored coefficients."""
    return [(c.val, c.unit) for c in s.coeffs]


def _rand_num(ctx, rng, val):
    unit = rng.randrange(1, ctx.pN)
    while unit % ctx.p == 0:
        unit = rng.randrange(1, ctx.pN)
    return PadicNumber(ctx, val, unit, _checked=True)


def _coefficient_pair(ctx, rng):
    """x and y drawn so that y - x covers every rounding case of
    PadicNumber.__sub__: a zero side, exact cancellation, a difference just
    above or below N - kappa, valuations N or more apart, anything."""
    x = ctx.zero() if rng.random() < 0.15 else _rand_num(ctx, rng, rng.randint(-3, 3))
    kind = rng.choice(("zero", "equal", "near", "apart", "free"))
    if kind == "zero":
        return x, ctx.zero()
    if kind == "equal":
        return x, x
    if kind == "free" or x.is_zero:
        return x, _rand_num(ctx, rng, rng.randint(-3, 3))
    if kind == "near":
        return x, x + _rand_num(ctx, rng, x.val + rng.randint(1, ctx.N + 1))
    return x, _rand_num(ctx, rng, x.val + rng.choice((-1, 1)) * rng.randint(ctx.N, ctx.N + 2))


def _rand_ceilings(ctx, rng, coeffs):
    """Per-coefficient ceilings: +inf, the re-expansion default val + N, or
    any finite depth; sometimes cut short (missing entries read +inf)."""
    out = []
    for c in coeffs:
        r = rng.random()
        if r < 0.3:
            out.append(INF)
        elif r < 0.6 and not c.is_zero:
            out.append(c.val + ctx.N)
        else:
            out.append(rng.randint(-5, ctx.N + 5))
    return out[: rng.randint(0, len(out))] if rng.random() < 0.2 else out


ORACLE_CONTEXTS = [PadicContext(5, 40, 64), PadicContext(3, 4, 64, kappa=3),
                   PadicContext(7, 6, 64), PadicContext(3, 2, 64, kappa=1)]


class TestSeriesVerdictOracle:
    """padic._agreement, the library's one agreement rule, against the rule
    applied to exact differences of the stored values."""

    @pytest.mark.parametrize("octx", ORACLE_CONTEXTS,
                             ids=lambda c: f"p{c.p}-N{c.N}-kappa{c.kappa}")
    def test_equals_folded_compare_tracked(self, octx):
        rng = random.Random(octx.p * 100 + octx.N)
        seen = set()
        for _ in range(600):
            pairs = [_coefficient_pair(octx, rng) for _ in range(rng.randint(0, 8))]
            xs = [x for x, _ in pairs]
            ys = [y for _, y in pairs]
            if rng.random() < 0.3:
                ys = ys[: rng.randint(0, len(ys))]  # unequal lengths
            a, b = TateSeries(octx, 0, xs), TateSeries(octx, 0, ys)
            ac, bc = _rand_ceilings(octx, rng, xs), _rand_ceilings(octx, rng, ys)
            got = _agreement(octx, _pairs(a), ac, _pairs(b), bc)
            assert got is _folded_verdict(octx, a, ac, b, bc), (a, ac, b, bc)
            seen.add(got)
        assert seen == set(Verdict)

    @pytest.mark.parametrize("octx", ORACLE_CONTEXTS,
                             ids=lambda c: f"p{c.p}-N{c.N}-kappa{c.kappa}")
    def test_difference_valuation_is_exact_below_the_cap(self, octx):
        # the rounded pair of x - y and of x + y is the exact sum reduced
        # modulo p^(min val + N): its unit is < p^(min val + N - val), by
        # _pair_sum, by PadicNumber + and -, and by + and - of series; the
        # valuation of x - y also by _pair_sum's call shape in _agreement
        rng = random.Random(octx.p * 100 + octx.N + 1)
        for _ in range(2000):
            x, y = _coefficient_pair(octx, rng)
            sx, sy = TateSeries(octx, 0, [x]), TateSeries(octx, 0, [y])
            for sign, z, s, ny in ((1, x + y, sx + sy, y), (-1, x - y, sx - sy, -y)):
                want = _reduced_sum(octx, x, y, sign)
                assert _pair_sum(octx, x.val, x.unit, ny.val, ny.unit) == want, (x, y, sign)
                assert (z.val, z.unit) == want, (x, y, sign)
                assert (s.pairs or (_ZERO,)) == (want,), (x, y, sign)
            want = _reduced_sum(octx, x, y, -1)[0]
            assert _pair_sum(octx, x.val, x.unit, y.val, -y.unit)[0] == want, (x, y)


def _reduced_sum(ctx, x, y, sign):
    """The (val, unit) pair of x + sign y reduced modulo p^(min val + N),
    from the exact Fraction sum; (INF, 0) when it vanishes there."""
    low = min(x.val, y.val)
    if low == INF:
        return _ZERO
    q = (x.to_fraction() + sign * y.to_fraction()) / Fraction(ctx.p) ** low
    assert q.denominator == 1
    r = q.numerator % ctx.pN
    if not r:
        return _ZERO
    v = _frac_val(Fraction(r), ctx.p)
    u = r // ctx.p ** v
    assert u < ctx.p ** (ctx.N - v)  # the pair's val is low + v
    return low + v, u


def _frac_val(q, p):
    """Exact p-adic valuation of a nonzero Fraction."""
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _reference_candidate(ctx, lf, m):
    """The glued candidate of one leaf from public operations: the leaf
    series translated by its center, its tail certificate, and each
    ceiling as the least exact summand valuation plus N."""
    s = lf.series
    cand = TateSeries(ctx, m, s.coeffs, s.tail_bound).translate(ctx.from_int(lf.center))
    tail = s.tail_bound
    if lf.center and tail is not INF and cand.coeffs:
        tail = cand.stored_val_c()
    aq, cq = [a.to_fraction() for a in s.coeffs], Fraction(-lf.center)
    ceilings = []
    for v in range(len(aq)):
        terms = [aq[l] * comb(l, v) * cq ** (l - v) for l in range(v, len(aq))]
        ceilings.append(min((_frac_val(t, ctx.p) for t in terms if t), default=INF) + ctx.N)
    return cand, ceilings, tail


def _reference_can(f, m):
    """(status, detail, witness) of the gluing test on a ball that no leaf
    covers, with _exact_compare folded over every coefficient of each
    candidate against the first."""
    ctx = f.ctx
    inball = f.leaves_in_ball(m)
    ref, ref_ceil, tail = _reference_candidate(ctx, inball[0], m)
    culprit = ""
    for lf in inball[1:]:
        cand, ceil, cand_tail = _reference_candidate(ctx, lf, m)
        verdict = Verdict.YES
        for v in range(max(len(ref.coeffs), len(cand.coeffs))):
            verdict = verdict & _exact_compare(
                ctx, ref.coeff(v), ref_ceil[v] if v < len(ref_ceil) else INF,
                cand.coeff(v), ceil[v] if v < len(ceil) else INF)
        if verdict is not Verdict.YES and not culprit:
            culprit = f"leaf at center {lf.center} (level {lf.level})"
        if verdict is Verdict.NO:
            return Verdict.NO, f"re-expansions disagree: {culprit}", None
        tail = min(tail, cand_tail)
    if culprit:
        return Verdict.INDETERMINATE, f"comparison starved: {culprit}", None
    return Verdict.YES, f"{len(inball)} leaves glue", TateSeries(ctx, m, ref.coeffs, tail)


def _rand_global(ctx, rng, tail):
    """A level-0 series of degree <= 5 with some zero coefficients and
    valuations from -1 to 3."""
    p = ctx.p
    cs = [0 if rng.random() < 0.2 else
          Fraction(rng.randrange(1, p ** 6), 1) * Fraction(p) ** rng.randint(-1, 3)
          for _ in range(rng.randint(1, 6))]
    return TateSeries(ctx, 0, cs, tail)


def _gluing_case(ctx, rng, kind):
    """(f, m) of the given kind on a random partition of depth <= 3."""
    p = ctx.p
    tail = INF if kind != "truncated" else rng.randint(0, ctx.N)
    f = random_function(ctx, rng, splits=rng.randint(2, 6),
                        global_series=_rand_global(ctx, rng, tail))
    leaves = list(f.leaves)
    if kind == "perturbed":
        # one digit added to one coefficient of one leaf, on either side of
        # the comparison threshold
        i = rng.randrange(len(leaves))
        lf = leaves[i]
        cs = list(lf.series.coeffs) + [ctx.zero()] * 2
        j = rng.randrange(len(cs))
        cs[j] = cs[j] + ctx.from_int(p ** rng.randint(0, ctx.N + 2))
        leaves[i] = Leaf(lf.center, lf.level, TateSeries(ctx, lf.level, cs[:ctx.D + 1]))
    elif kind == "truncated":
        # some leaves lose their top stored coefficients
        for i, lf in enumerate(leaves):
            if rng.random() < 0.3:
                cut = rng.randint(0, len(lf.series.coeffs))
                leaves[i] = Leaf(lf.center, lf.level,
                                 TateSeries(ctx, lf.level, lf.series.coeffs[:cut], tail))
    elif kind == "zero":
        leaves = [Leaf(lf.center, lf.level,
                       TateSeries(ctx, lf.level, [], rng.choice([INF, rng.randint(0, 9)])))
                  for lf in leaves]
    # below the level of the leaf at center 0 no leaf covers the ball
    return PiecewiseFunction(ctx, leaves), rng.randrange(f.covering_leaf(MAX_LEVEL).level)


class TestGluingDifferential:
    """is_member_Can, which glues on (val, unit) pairs, against
    _reference_can, which builds every candidate as a TateSeries through
    translate, takes its ceilings from exact Fraction summands and folds
    the agreement rule over exact differences."""

    CONTEXTS = [PadicContext(3, 12, 16), PadicContext(5, 40, 64), PadicContext(7, 20, 24),
                PadicContext(3, 3, 16, kappa=1), PadicContext(5, 4, 16, kappa=2),
                PadicContext(7, 2, 16, kappa=0)]
    KINDS = ("refined", "perturbed", "truncated", "zero")

    @pytest.mark.parametrize("dctx", CONTEXTS, ids=lambda c: f"p{c.p}-N{c.N}")
    def test_same_status_detail_and_witness(self, dctx):
        rng = random.Random(dctx.p * 1000 + dctx.N)
        seen = set()
        for i in range(120):
            kind = self.KINDS[i % len(self.KINDS)]
            f, m = _gluing_case(dctx, rng, kind)
            got = is_member_Can(f, m)
            status, detail, witness = _reference_can(f, m)
            assert (got.status, got.detail) == (status, detail), (kind, m, f.leaves)
            if witness is None:
                assert got.witness is None
            else:
                assert (got.witness.m, got.witness.coeffs, got.witness.tail_bound) == (
                    m, witness.coeffs, witness.tail_bound)
            seen.add(status)
        # a few digits starve some comparisons; N >= 12 decides them all or
        # nearly all
        assert seen == set(Verdict) if dctx.N <= 4 else seen >= {Verdict.YES, Verdict.NO}


def _coarse_route_draw(ctx, rng, kind):
    """A function of the given kind with no deeper leaf than level 2."""
    level = rng.randint(1, 2)
    g = rand_refined_global(ctx, rng, level, max_deg=5)
    if kind == "perturbed":
        g = _perturb_one_inball_leaf(ctx, rng, g, rng.randint(0, level - 1))
    elif kind == "image":
        g = act(rand_iwahori(ctx, rng, I1), g, rand_chi(ctx, rng))
    return g


class TestRefinedFunctionsGlueOnTheirCoarsePartition:
    """refine keeps the coarsest partition of its chain, and is_member_Can
    glues there; the same leaves as a fresh function run the full route."""

    KINDS = ("refined", "perturbed", "image")

    @staticmethod
    def _count_re_expand(monkeypatch):
        calls = []
        real = functions._re_expand

        def counted(ctx, lf, m):
            calls.append(lf.center)
            return real(ctx, lf, m)

        monkeypatch.setattr(functions, "_re_expand", counted)
        return calls

    @pytest.mark.parametrize("dctx", [
        PadicContext(3, 20, 24), PadicContext(5, 20, 24), PadicContext(7, 20, 24),
        PadicContext(3, 4, 64, kappa=3), PadicContext(3, 2, 64, kappa=1),
    ], ids=lambda c: f"p{c.p}-N{c.N}-kappa{c.kappa}")
    def test_same_answer_as_the_full_route(self, dctx):
        # same status and witness coefficients; the witness tail bound is
        # the same for a refined global, and never weaker otherwise (the
        # coarse leaves are not re-expanded from the deeper ones)
        rng = random.Random(dctx.p * 1000 + dctx.N)
        seen = set()
        for i in range(20):
            kind = self.KINDS[i % len(self.KINDS)]
            g = _coarse_route_draw(dctx, rng, kind)
            h = g.max_level() + rng.randint(1, 2)
            fine = g.refine(h)
            full = PiecewiseFunction(dctx, fine.leaves)
            for m in range(h + 1):
                got, want = is_member_Can(fine, m), is_member_Can(full, m)
                assert got.status is want.status, (i, m)
                seen.add(got.status)
                if got.status is Verdict.YES:
                    assert got.witness.m == want.witness.m == m
                    assert got.witness.coeffs == want.witness.coeffs, (i, m)
                    if kind == "refined":
                        assert got.witness.tail_bound == want.witness.tail_bound, (i, m)
                    else:
                        assert got.witness.tail_bound >= want.witness.tail_bound, (i, m)
        assert Verdict.NO in seen and Verdict.YES in seen

    def test_refined_global_makes_no_re_expansion(self, ctx, monkeypatch):
        calls = self._count_re_expand(monkeypatch)
        f = PiecewiseFunction.from_global_series(TateSeries(ctx, 0, [1, 5, 7, 2], 30)).refine(2)
        full = PiecewiseFunction(ctx, f.leaves)
        for m in range(3):
            res = is_member_Can(f, m)
            assert res.status is Verdict.YES
            assert res.detail == "single leaf covers the ball"
            assert calls == []
            want = is_member_Can(full, m)
            assert want.status is Verdict.YES
            assert want.witness.coeffs == res.witness.coeffs
            # one re-expansion per in-ball leaf of the rebuilt copy
            assert len(calls) == (ctx.p ** (2 - m) if m < 2 else 0)
            calls.clear()

    def test_chains_collapse_onto_the_first_partition(self, ctx, monkeypatch):
        f = PiecewiseFunction.from_global_series(TateSeries(ctx, 0, [3, 1, 4], INF))
        g = f.refine(2).refine(3)
        assert g._coarse is f
        calls = self._count_re_expand(monkeypatch)
        assert is_member_Can(g, 1).detail == "single leaf covers the ball"
        assert calls == []

    def test_other_constructions_carry_no_coarse_partition(self, ctx):
        f = PiecewiseFunction.from_global_series(TateSeries(ctx, 0, [3, 1, 4], INF)).refine(2)
        step = StepFunction.indicator_ball(ctx, 1)
        chi = InductionCharacter(ctx.from_int(5), ctx.from_int(10), 3)
        g = IwahoriElement(ctx, 1, 5, 2, 1, I1)
        _, _, loaded = io.load(io.wrap("function", ctx, f))
        built = [loaded, f + step, f - step, -f, f.scale(3), act(g, f, chi),
                 *f.common_refinement(step)]
        assert f._coarse is not None
        assert all(h._coarse is None for h in built)

    def test_orbit_route_reads_every_fine_leaf(self, ctx, monkeypatch):
        calls = []
        real = TateSeries.evaluate_tracked

        def counted(self, z):
            calls.append(z)
            return real(self, z)

        monkeypatch.setattr(TateSeries, "evaluate_tracked", counted)
        f = PiecewiseFunction.from_global_series(TateSeries(ctx, 0, [1, 5, 7, 2], 30)).refine(2)
        assert orbit_membership(f, 0) is Verdict.YES
        # three sample points on each non-source leaf, candidate and leaf
        assert len(calls) == 2 * 3 * (len(f.leaves) - 1)

    @pytest.mark.xfail(strict=True, reason=(
        "is_member_Can compares every in-ball leaf with the first one only, and "
        "agreement with a zero leaf is not transitive, so the verdict depends on "
        "which leaf sorts first: YES on the coarse leaves, NO on the refined ones"))
    def test_zero_3_pow_11_and_3_pow_13_step_function_glues_as_its_level_2_leaves(self):
        ctx = PadicContext(3, 12, 16, kappa=3)
        f = StepFunction(ctx, [
            Leaf(c, h, TateSeries.constant(ctx, h, v))
            for c, h, v in ((1, 1, 0), (2, 1, 3 ** 11), (0, 2, 3 ** 13), (3, 2, 0), (6, 2, 0))])
        fine = StepFunction(ctx, f.refine(2).leaves)
        assert is_member_Can(f, 0).status is is_member_Can(fine, 0).status


class TestRefineKeepsTheClass:
    def test_step_function_stays_a_step_function(self, ctx):
        step = StepFunction.indicator_ball(ctx, 1)
        fine = step.refine(2)
        assert type(fine) is StepFunction
        assert not is_member_C_m(fine, 0)
        assert is_member_C_m(fine, 1)
        g = IwahoriElement(ctx, 1, 5, 2, 1, I1)
        assert act_smooth(g, fine).agrees_with(act_smooth(g, step))

    def test_locally_algebraic_keeps_its_weight(self, ctx):
        leaves = [Leaf(0, 0, TateSeries(ctx, 0, [2, 3], INF))]
        f = LocallyAlgebraicFunction(ctx, leaves, 3)
        fine = f.refine(1)
        assert type(fine) is LocallyAlgebraicFunction and fine.k == 3
        chi = InductionCharacter(ctx.from_int(5), ctx.from_int(10), 3)
        g = IwahoriElement(ctx, 1, 5, 2, 1, I1)
        assert act_locally_algebraic(g, fine, chi).agrees_with(act_locally_algebraic(g, f, chi))

    def test_scale_negation_and_sum_keep_a_step_function(self, ctx):
        s = StepFunction.indicator_ball(ctx, 1)
        for g in (s.scale(2), -s, s + s):
            assert type(g) is StepFunction
            assert not is_member_C_m(g, 0)
            assert is_member_C_m(g, 1)
        assert (s + s).agrees_with(s.scale(2))
        assert is_member_C_m(s - s, 0)

    def test_sum_keeps_the_weight_only_when_both_share_it(self, ctx):
        f = LocallyAlgebraicFunction(ctx, [Leaf(0, 0, TateSeries(ctx, 0, [2, 3], INF))], 3)
        for g in (f.scale(2), -f, f + f, f - f.refine(1)):
            assert type(g) is LocallyAlgebraicFunction and g.k == 3
        other = LocallyAlgebraicFunction(ctx, f.leaves, 4)
        for g in (f + other, f + StepFunction.indicator_ball(ctx, 1),
                  StepFunction.indicator_ball(ctx, 1) + PiecewiseFunction(ctx, f.leaves)):
            assert type(g) is PiecewiseFunction


class TestMembershipSmooth:
    def test_constant_everywhere(self, ctx):
        f = StepFunction(
            ctx, [Leaf(0, 0, TateSeries.constant(ctx, 0, 2))]
        )
        for m in range(3):
            assert is_member_C_m(f, m)

    def test_indicator_at_matching_level(self, ctx):
        assert is_member_C_m(StepFunction.indicator_ball(ctx, 1), 1)

    def test_indicator_at_coarser_level(self, ctx):
        assert not is_member_C_m(StepFunction.indicator_ball(ctx, 2), 1)

    def test_rejects_general_functions(self, ctx):
        f = PiecewiseFunction.from_global_series(TateSeries.monomial(ctx, 0, 1))
        with pytest.raises(ParameterError):
            is_member_C_m(f, 1)

    def test_negative_level_refused(self, ctx):
        with pytest.raises(ParameterError, match="must be an integer >= 0, got -1"):
            is_member_C_m(StepFunction.indicator_ball(ctx, 2), -1)


class TestMembershipLocallyAlgebraic:
    def test_global_power_accepted(self, ctx):
        for k in (2, 3, 5):
            f = PiecewiseFunction.from_global_series(
                TateSeries.monomial(ctx, 0, k - 2)
            )
            for m in (0, 1, 2):
                assert is_member_pi_an(f, m, k).status is Verdict.YES

    def test_indicator_weight_two(self, ctx):
        f = StepFunction.indicator_ball(ctx, 1)
        assert is_member_pi_an(f, 1, 2).status is Verdict.YES

    def test_degree_overflow_refused(self, ctx):
        f = PiecewiseFunction.from_global_series(TateSeries.monomial(ctx, 0, 1))
        assert is_member_pi_an(f, 1, 2).status is Verdict.NO

    def test_implies_plain_gluing(self, ctx):
        rng = random.Random(5)
        for k in (2, 3, 4):
            coeffs = [rng.randrange(-20, 20) for _ in range(k - 1)]
            f = PiecewiseFunction.from_global_series(
                TateSeries(ctx, 0, coeffs)
            ).refine(rng.randint(1, 2))
            # the same leaves with no coarse partition take the re-expansion route
            for g in (f, PiecewiseFunction(ctx, f.leaves)):
                for m in (1, 2):
                    a = is_member_pi_an(g, m, k).status
                    if a is Verdict.YES:
                        assert is_member_Can(g, m).status is Verdict.YES


class TestMahler:
    def test_constant_function(self, ctx):
        f = PiecewiseFunction.constant(ctx, 1)
        cs = mahler_coefficients(f, 5)
        assert cs[0] == ctx.one()
        assert all(c.is_zero for c in cs[1:])

    def test_identity_function(self, ctx):
        f = PiecewiseFunction.from_global_series(TateSeries.monomial(ctx, 0, 1))
        cs = mahler_coefficients(f, 5)
        assert cs[0].is_zero
        assert cs[1] == ctx.one()
        assert all(c.is_zero for c in cs[2:])

    def test_indicator_difference_table(self, ctx):
        # values at 0..5 are (1,0,0,0,0,1); forward differences at 0
        f = StepFunction.indicator_ball(ctx, 1)
        cs = mahler_coefficients(f, 6)
        expected = [1, -1, 1, -1, 1, 0]
        assert [c for c in cs] == [ctx.from_int(n) for n in expected]

    def test_reconstruction_at_sample_points(self, ctx):
        f = StepFunction.indicator_ball(ctx, 1)
        count = 8
        cs = mahler_coefficients(f, count)
        for j in range(count):
            total = ctx.zero()
            for n in range(count):
                total = total + cs[n] * ctx.binom(j, n)
            assert total.agrees_with(f.evaluate(ctx.from_int(j)))


def random_cosets(rng, p, max_level, splits):
    """A random partition of Z_p as sorted (level, center) pairs."""
    cosets = {(0, 0)}
    for _ in range(splits):
        level, c = rng.choice(sorted(cosets))
        if level < max_level:
            cosets.remove((level, c))
            cosets.update((level + 1, c + r * p ** level) for r in range(p))
    return sorted(cosets)


def random_function(ctx, rng, max_level=3, splits=4, global_series=None):
    """Random leaves of degree <= 3 on a random partition; with a global
    series, every leaf is that series recentered onto its coset."""
    leaves = []
    for level, c in random_cosets(rng, ctx.p, max_level, splits):
        if global_series is None:
            cs = [rng.randrange(ctx.pN) for _ in range(rng.randint(1, 4))]
            series = TateSeries(ctx, level, cs)
        else:
            series = global_series.recenter(ctx.from_int(c), level)
        leaves.append(Leaf(c, level, series))
    return PiecewiseFunction(ctx, leaves)


def refine_to_max(f, g):
    """Reference route: both operands refined to the deeper maximum level."""
    h = max(f.max_level(), g.max_level())
    return f.refine(h), g.refine(h)


class TestCommonRefinement:
    CONTEXTS = [PadicContext(p=p, N=20, D=16) for p in (3, 5, 7)]

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"p{c.p}")
    def test_cosets_are_leaves_inside_leaves(self, ctx):
        rng = random.Random(1700 + ctx.p)
        for _ in range(20):
            f, g = random_function(ctx, rng), random_function(ctx, rng)
            a, b = f.common_refinement(g)
            assert [(lf.level, lf.center) for lf in a.leaves] == [
                (lf.level, lf.center) for lf in b.leaves
            ]
            own = {(lf.level, lf.center) for lf in f.leaves}
            theirs = {(lf.level, lf.center) for lf in g.leaves}

            def inside(level, center, cosets):
                return any(
                    h <= level and (center - c) % ctx.p ** h == 0 for h, c in cosets
                )

            for lf in a.leaves:
                key = (lf.level, lf.center)
                assert (key in own and inside(*key, theirs)) or (
                    key in theirs and inside(*key, own)
                )

    def test_equal_balls_keep_their_leaves(self, ctx):
        ball = PiecewiseFunction.indicator_ball(ctx, 3)
        assert len((ball + ball).leaves) == 13
        a, b = ball.common_refinement(ball)
        assert a.leaves == b.leaves == ball.leaves

    def test_equal_partitions_pair_the_operands_own_series(self, ctx):
        rng = random.Random(1711)
        f = random_function(ctx, rng)
        g = PiecewiseFunction(
            ctx, [Leaf(lf.center, lf.level, lf.series.scale(3)) for lf in f.leaves]
        )
        a, b = f.common_refinement(g)
        assert all(x.series is y.series for x, y in zip(a.leaves, f.leaves))
        assert all(x.series is y.series for x, y in zip(b.leaves, g.leaves))

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"p{c.p}")
    def test_sums_evaluate_on_every_coset(self, ctx):
        rng = random.Random(1723 + ctx.p)
        exponent = ctx.N - 2 * ctx.kappa
        for _ in range(10):
            f, g = random_function(ctx, rng), random_function(ctx, rng)
            s = f + g
            for lf in s.leaves:
                for _ in range(2):
                    z = ctx.from_int(lf.center + ctx.p ** lf.level * rng.randrange(ctx.pN))
                    diff = s.evaluate(z) - (f.evaluate(z) + g.evaluate(z))
                    assert diff.val >= exponent

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"p{c.p}")
    def test_verdicts_match_the_refine_to_max_route(self, ctx):
        rng = random.Random(1741 + ctx.p)
        exponent = ctx.N - 2 * ctx.kappa
        seen = set()
        for _ in range(30):
            F = TateSeries(ctx, 0, [rng.randrange(ctx.pN) for _ in range(4)])
            f = random_function(ctx, rng, global_series=F)
            g = random_function(ctx, rng, global_series=F)
            if rng.random() < 0.7:
                # nudge one coefficient of one leaf by p**e, near the cutoffs
                i = rng.randrange(len(g.leaves))
                lf = g.leaves[i]
                cs = list(lf.series.coeffs) + [ctx.zero()] * 4
                l = rng.randrange(4)
                cs[l] = cs[l] + ctx.from_int(ctx.p ** rng.randint(exponent - 2, ctx.N + 1))
                leaves = list(g.leaves)
                leaves[i] = Leaf(lf.center, lf.level, TateSeries(ctx, lf.level, cs))
                g = PiecewiseFunction(ctx, leaves)
            a, b = refine_to_max(f, g)
            pairs = list(zip(a.leaves, b.leaves))
            old_with = all(x.series.agrees_with(y.series) for x, y in pairs)
            old_mod = all(x.series.agrees_mod(y.series, exponent) for x, y in pairs)
            new_with = f.agrees_with(g)
            assert f.agrees_mod(g, exponent) is old_mod
            # relative digits differ between the routes only where a
            # coefficient cancels on a finer coset: the reference recenters
            # both operands there and can lose digits that the merge keeps
            # (the p = 7 pairs include two recenterings of one series that
            # the reference refuses)
            assert new_with is old_with or (new_with and old_mod)
            seen.add((old_with, new_with, old_mod))
        assert {(True, True, True), (False, False, True), (False, False, False)} <= seen


def _by_coset(leaves):
    return sorted(leaves, key=lambda lf: (lf.level, lf.center))


def _recentered(ctx, cover, center, level):
    """The per-leaf route: one TateSeries.recenter of the covering leaf."""
    if cover.level == level:
        return cover
    delta = ctx.from_int(center - cover.center)
    return Leaf(center, level, cover.series.recenter(delta, level))


def per_leaf_refine(f, level):
    """refine's leaves, one recenter per fine leaf."""
    p = f.ctx.p
    return _by_coset(_recentered(f.ctx, lf, lf.center + r * p ** lf.level, level)
                     for lf in f.leaves for r in range(p ** (level - lf.level)))


def per_leaf_common_refinement(f, g):
    """common_refinement's leaves, one recenter per overlapping pair of
    leaves at different levels (a quadratic scan)."""
    a, b = [], []
    for x in f.leaves:
        for y in g.leaves:
            if (x.center - y.center) % f.ctx.p ** min(x.level, y.level):
                continue
            if x.level >= y.level:
                a.append(x)
                b.append(_recentered(f.ctx, y, x.center, x.level))
            else:
                a.append(_recentered(f.ctx, x, y.center, y.level))
                b.append(y)
    return _by_coset(a), _by_coset(b)


def varied_function(ctx, rng, max_level):
    """Random leaves that are zero, constant or of degree <= 4, each with
    an infinite or a finite tail bound."""
    leaves = []
    for level, c in random_cosets(rng, ctx.p, max_level, 4):
        size = rng.choice((0, 1, 2, 5))
        cs = [rng.randrange(ctx.pN) for _ in range(size)]
        tail = rng.choice((INF, rng.randint(-2, ctx.N)))
        leaves.append(Leaf(c, level, TateSeries(ctx, level, cs, tail)))
    return PiecewiseFunction(ctx, leaves)


class TestSharedShiftSetUps:
    """refine and common_refinement build one source row per covering leaf
    and one power row per offset, and give the leaves of one recenter per
    fine leaf."""

    CONTEXTS = [PadicContext(p=p, N=20, D=16) for p in (3, 5, 7)]

    def _draws(self, ctx, rng):
        for _ in range(6):
            F = TateSeries(ctx, 0, [rng.randrange(ctx.pN) for _ in range(rng.randint(1, 6))],
                           rng.choice((INF, 15)))
            yield random_function(ctx, rng, max_level=2)
            yield random_function(ctx, rng, max_level=2, global_series=F)
            yield varied_function(ctx, rng, 2)
            yield PiecewiseFunction.constant(ctx, rng.randrange(ctx.pN))

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"p{c.p}")
    def test_refine_gives_the_per_leaf_leaves(self, ctx):
        rng = random.Random(1801 + ctx.p)
        for f in self._draws(ctx, rng):
            for level in {f.max_level(), f.max_level() + 1, f.max_level() + 2}:
                assert f.refine(level).leaves == tuple(per_leaf_refine(f, level))

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"p{c.p}")
    def test_common_refinement_gives_the_per_leaf_leaves(self, ctx):
        rng = random.Random(1811 + ctx.p)
        seen = set()
        for f in self._draws(ctx, rng):
            deep = rng.choice((random_function(ctx, rng, max_level=4),
                               varied_function(ctx, rng, 4)))
            for x, y in ((f, deep), (deep, f)):
                a, b = x.common_refinement(y)
                assert (list(a.leaves), list(b.leaves)) == per_leaf_common_refinement(x, y)
            for lf, cover in ((lf, c) for lf in deep.leaves for c in f.leaves
                              if (lf.center - c.center) % ctx.p ** c.level == 0):
                if cover.level < lf.level:
                    seen.add(("gap", min(lf.level - cover.level, 2)))
                    seen.add(("zero offset", lf.center == cover.center))
                    seen.add(("pairs", min(len(cover.series.pairs), 2)))
                    seen.add(("finite tail", cover.series.tail_bound is not INF))
        assert seen == {("gap", 1), ("gap", 2), ("zero offset", True), ("zero offset", False),
                        ("pairs", 0), ("pairs", 1), ("pairs", 2),
                        ("finite tail", True), ("finite tail", False)}

    def test_one_source_row_per_cover_and_one_power_row_per_offset(self, monkeypatch):
        ctx = PadicContext(5, 20, 16)
        rng = random.Random(1823)
        f = PiecewiseFunction(ctx, [
            Leaf(r, 1, TateSeries(ctx, 1, [rng.randrange(ctx.pN) for _ in range(3)] + [r + 1]))
            for r in range(5)])
        fine = f.refine(3)
        calls = {"_shift_source": [], "_shift_powers": [], "_offset_sums": []}
        for name, seen in calls.items():
            real = getattr(functions, name)
            monkeypatch.setattr(functions, name,
                                lambda *a, real=real, seen=seen: seen.append(a[1]) or real(*a))
        a, b = f.common_refinement(fine)
        assert b.leaves == fine.leaves
        assert (list(a.leaves), list(b.leaves)) == per_leaf_common_refinement(f, fine)
        # 125 fine leaves, 5 of them at offset 0: 120 shifts from 5 sources
        # and 24 offsets
        assert [len(c) for c in calls.values()] == [5, 24, 120]
        for seen in calls.values():
            seen.clear()
        assert f.refine(3).leaves == fine.leaves == tuple(per_leaf_refine(f, 3))
        assert [len(c) for c in calls.values()] == [5, 24, 120]
        assert len(set(calls["_shift_powers"])) == 24


class TestAlgebra:
    def test_sum_respects_common_refinement(self, ctx):
        a = PiecewiseFunction.from_global_series(TateSeries(ctx, 0, [1, 1]))
        b = StepFunction.indicator_ball(ctx, 1)
        s = a + b
        z = ctx.from_int(5)
        assert s.evaluate(z).agrees_with(a.evaluate(z) + b.evaluate(z))
        u = ctx.from_int(2)
        assert s.evaluate(u).agrees_with(a.evaluate(u) + b.evaluate(u))

    def test_locally_algebraic_guard(self, ctx):
        leaves = [Leaf(0, 0, TateSeries.monomial(ctx, 0, 3))]
        with pytest.raises(ParameterError):
            LocallyAlgebraicFunction(ctx, leaves, 3)

    def test_step_function_guard(self, ctx):
        leaves = [Leaf(0, 0, TateSeries.monomial(ctx, 0, 1))]
        with pytest.raises(ParameterError):
            StepFunction(ctx, leaves)
