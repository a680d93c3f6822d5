"""Locally analytic functions on Z_p as finite coset partitions.

A PiecewiseFunction is a partition of Z_p into cosets center + p**h Z_p,
each carrying a TateSeries in the recentered coordinate z' = z - center
on the ball p**h Z_p.  Leaves are kept in canonical sorted order by
(level, center) with centers reduced to [0, p**h); one pass over them checks
the partition, and one root-to-leaf walk per leaf finds an overlap.

Sums and comparisons (+, -, agrees_with, agrees_mod) work on the coarsest
common partition of the two operands: every coset of it is a leaf of one
operand inside a leaf of the other.  Shared leaves are paired as they are,
and the coarser leaf is recentered once onto each finer leaf inside it, so
neither operand is refined to the deeper one's maximum level.  refine and
common_refinement build the set-up of each Taylor shift once per covering
leaf (its source row) and once per offset (its power row), not per leaf.

Membership tests answer whether the restriction of f to p**m Z_p glues
to a single rigid analytic series (is_member_Can), to a constant
(is_member_C_m), or to a polynomial of bounded degree (is_member_pi_an).
Gluing is decided by re-expanding the leaves inside the ball around the
common center 0, one at a time, and comparing each with the first at
precision N - kappa; the test stops at the first leaf that disagrees.
A function made by refine is glued on the partition it was refined from,
so a refined global series is one covering leaf and needs no re-expansion.
The comparisons are starvation-aware: each re-expanded coefficient
carries an absolute reliability ceiling (its summands are only known
modulo p**(val + N)), and a comparison that cannot be settled inside the
reliable window returns INDETERMINATE rather than a verdict.  A leaf is
re-expanded into the (val, unit) integer pairs of the series kernel, with
their ceilings, and the pairs are compared by padic._agreement, the one
agreement rule of the library (compare_tracked applies it to two tracked
values); the one series built is the witness.

Mahler coefficients (iterated finite differences at 0, 1, 2, ...) give
an evaluation-only oracle used to cross-check the coefficient algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError, InvariantViolation, ParameterError, _int_param
from .padic import INF, Coercible, PadicContext, PadicNumber, _agreement, _same_context
from .series import TateSeries, _offset_sums, _shift_powers, _shift_source, _taylor_shift
from .verdict import Verdict

#: hard cap on leaf levels; partitions beyond this depth are pathological
MAX_LEVEL = 12


class Leaf(NamedTuple):
    center: int
    level: int
    series: TateSeries


class PiecewiseFunction:
    """Finite coset partition of Z_p with one local series per coset.

    A function made by refine remembers the coarsest partition it was
    refined from (private slot _coarse; None otherwise), and is_member_Can
    glues on that partition: its verdict detail is the coarse partition's,
    and its witness' tail bound can be sharper than the fine leaves give.
    """

    __slots__ = ("ctx", "leaves", "_coarse")

    def __init__(self, ctx: PadicContext, leaves: Iterable[Leaf]):
        self.leaves = tuple(leaves)
        try:
            self.leaves = tuple(sorted(self.leaves, key=attrgetter("level", "center")))
        except TypeError:  # a str or None level or center: the check names it
            pass
        _check_partition(ctx, self.leaves)
        self.ctx, self._coarse = ctx, None

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, ctx: PadicContext, c: Coercible) -> "PiecewiseFunction":
        return cls(ctx, [Leaf(0, 0, TateSeries.constant(ctx, 0, c))])

    @classmethod
    def from_global_series(cls, f: TateSeries) -> "PiecewiseFunction":
        """Wrap a level-0 series as the one-leaf function on Z_p."""
        if f.m != 0:
            raise DomainError("a global function needs a level-0 series")
        return cls(f.ctx, [Leaf(0, 0, f)])

    @classmethod
    def indicator_ball(cls, ctx: PadicContext, h: int) -> "StepFunction":
        """1 on p**h Z_p, 0 elsewhere, partitioned along the coset tree."""
        _int_param("ball level", h, 0, MAX_LEVEL)
        leaves = [Leaf(0, h, TateSeries.constant(ctx, h, 1))]
        for j in range(1, h + 1):
            for r in range(1, ctx.p):
                leaves.append(Leaf(r * ctx.p ** (j - 1), j, TateSeries.zero(ctx, j)))
        return StepFunction(ctx, leaves)

    # -- structure ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PiecewiseFunction)
            and self.ctx.same(other.ctx)
            and self.leaves == other.leaves
        )

    def __hash__(self) -> int:
        return hash(self.leaves)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.leaves)} leaves, max level {self.max_level()})"

    def max_level(self) -> int:
        return self.leaves[-1].level

    def leaf_at(self, z: PadicNumber) -> Leaf:
        """The unique leaf whose coset contains z."""
        for lf in self.leaves:
            if z.residue(lf.level) == lf.center:
                return lf
        raise InvariantViolation("partition does not cover the requested point")

    def evaluate(self, z: Coercible) -> PadicNumber:
        z = self.ctx.num(z)
        lf = self.leaf_at(z)
        return lf.series.evaluate(z - self.ctx.from_int(lf.center))

    # -- refinement and algebra ------------------------------------------

    def refine(self, level: int) -> "PiecewiseFunction":
        """Split every leaf into cosets at the given common level.

        The local data is recentered exactly (one source row per coarse
        leaf, one power row per offset), so evaluation is unchanged; a leaf
        already at the level is kept as it is.  The result has the class
        (and weight) of self and keeps the coarsest partition of its
        refine chain, on which is_member_Can glues.
        """
        if _int_param("refinement level", level, hi=MAX_LEVEL) < self.max_level():
            raise DomainError(
                f"refinement level {level} below max leaf level {self.max_level()}"
            )
        p = self.ctx.p
        targets = [(lf, lf.center + r * p ** lf.level, level)
                   for lf in self.leaves for r in range(p ** (level - lf.level))]
        fine = self._with_leaves(_restrict(self.ctx, targets))
        fine._coarse = self._coarse or self
        return fine

    def _with_leaves(self, leaves: Iterable[Leaf]) -> "PiecewiseFunction":
        """A function of the same class (and weight) on the given leaves."""
        return type(self)(self.ctx, leaves)

    def common_refinement(self, other: "PiecewiseFunction") -> Tuple["PiecewiseFunction", "PiecewiseFunction"]:
        """Both functions on the coarsest partition that refines both.

        Each coset of the result is a leaf of one operand and lies inside
        a leaf of the other.  A leaf that both operands share is paired as
        it is; otherwise the coarser leaf is recentered once onto each
        finer leaf inside it, at the finer leaf's level, with one source
        row per covering leaf and one power row per offset.
        """
        ctx = _same_context("functions", self.ctx, other.ctx)
        p = ctx.p
        # equal cosets pair once: in the first pass only
        mine = list(_covered(p, self.leaves, other.leaves, equal=True))
        theirs = list(_covered(p, other.leaves, self.leaves, equal=False))
        moved = _restrict(ctx, [(cover, lf.center, lf.level) for lf, cover in mine + theirs])
        a = [lf for lf, _ in mine] + moved[len(mine):]
        b = moved[:len(mine)] + [lf for lf, _ in theirs]
        return PiecewiseFunction(ctx, a), PiecewiseFunction(ctx, b)

    def __add__(self, other: "PiecewiseFunction") -> "PiecewiseFunction":
        """The leafwise sum; it keeps the class (and weight) that both
        operands share, and is a plain PiecewiseFunction otherwise."""
        a, b = self.common_refinement(other)
        leaves = [
            Leaf(la.center, la.level, la.series + lb.series)
            for la, lb in zip(a.leaves, b.leaves)
        ]
        if type(self) is type(other) and getattr(self, "k", None) == getattr(other, "k", None):
            return self._with_leaves(leaves)
        return PiecewiseFunction(self.ctx, leaves)

    def __neg__(self) -> "PiecewiseFunction":
        return self._with_leaves(
            [Leaf(lf.center, lf.level, -lf.series) for lf in self.leaves]
        )

    def __sub__(self, other: "PiecewiseFunction") -> "PiecewiseFunction":
        return self + (-other)

    def scale(self, c: Coercible) -> "PiecewiseFunction":
        return self._with_leaves(
            [Leaf(lf.center, lf.level, lf.series.scale(c)) for lf in self.leaves]
        )

    def agrees_with(self, other: "PiecewiseFunction") -> bool:
        a, b = self.common_refinement(other)
        return all(la.series.agrees_with(lb.series) for la, lb in zip(a.leaves, b.leaves))

    def agrees_mod(self, other: "PiecewiseFunction", exponent: int) -> bool:
        """Leafwise congruence mod p**exponent on the common refinement."""
        a, b = self.common_refinement(other)
        return all(
            la.series.agrees_mod(lb.series, exponent) for la, lb in zip(a.leaves, b.leaves)
        )

    # -- ball bookkeeping --------------------------------------------------

    def covering_leaf(self, m: int) -> Optional[Leaf]:
        """The leaf containing p**m Z_p, if the partition has one."""
        if type(m) is not int or m < 0:
            _int_param("ball level m", m, 0)
        return next((lf for lf in self.leaves if lf.level <= m and lf.center == 0), None)

    def leaves_in_ball(self, m: int) -> List[Leaf]:
        if type(m) is not int or m < 0:
            _int_param("ball level m", m, 0)
        pm = self.ctx.p ** m
        return [lf for lf in self.leaves if lf.level >= m and lf.center % pm == 0]


class StepFunction(PiecewiseFunction):
    """Locally constant function: every leaf series has degree <= 0."""

    __slots__ = ()

    def __init__(self, ctx: PadicContext, leaves: Iterable[Leaf]):
        super().__init__(ctx, leaves)
        for lf in self.leaves:
            if lf.series.degree > 0:
                raise ParameterError(
                    f"step function leaf at {lf.center} has degree {lf.series.degree}"
                )


class LocallyAlgebraicFunction(PiecewiseFunction):
    """Leafwise polynomial of degree <= k - 2 for a fixed weight k >= 2."""

    __slots__ = ("k",)

    def __init__(self, ctx: PadicContext, leaves: Iterable[Leaf], k: int):
        self.k = _int_param("weight k", k, 2)
        super().__init__(ctx, leaves)
        for lf in self.leaves:
            if lf.series.degree > k - 2:
                raise ParameterError(
                    f"leaf at {lf.center} has degree {lf.series.degree} > k-2 = {k - 2}"
                )
            if lf.series.tail_bound is not INF:
                raise ParameterError(
                    "locally algebraic leaves must be exact polynomials"
                )

    def _with_leaves(self, leaves: Iterable[Leaf]) -> "LocallyAlgebraicFunction":
        return LocallyAlgebraicFunction(self.ctx, leaves, self.k)


# -- membership tests ------------------------------------------------------


@dataclass(frozen=True)
class CanMembership:
    """Outcome of the gluing test, with the merged witness when it exists."""

    status: Verdict
    witness: Optional[TateSeries]
    detail: str

    def __bool__(self) -> bool:
        return self.status is Verdict.YES


def is_member_Can(f: PiecewiseFunction, m: int) -> CanMembership:
    """Does f restricted to p**m Z_p glue to one rigid analytic series?

    The leaves inside the ball are re-expanded around 0 at level m, one at
    a time, and each is compared coefficientwise with the first at
    precision N - kappa; the first NO ends the test.  A comparison whose
    reliable window is too shallow to certify or refute agreement yields
    INDETERMINATE.  The detail names the first leaf that did not glue.
    A function made by refine glues on the coarse partition it was refined
    from, so a refined global series is one covering leaf.  The answer then
    depends on how f was built, not only on its leaves: the detail is the
    coarse partition's, and the witness' tail bound can be sharper than the
    one re-expanded from the fine leaves (the status and the witness
    coefficients were the same on every draw of the tests).
    """
    _int_param("ball level m", m, 0)
    f = f._coarse or f
    ctx = f.ctx
    cover = f.covering_leaf(m)
    if cover is not None:
        w = cover.series.recenter(ctx.zero(), m)
        return CanMembership(Verdict.YES, w, "single leaf covers the ball")
    inball = f.leaves_in_ball(m)
    if not inball:
        raise InvariantViolation("partition leaves no cover of the ball")
    ref, ref_ceil, tail = _re_expand(ctx, inball[0], m)
    culprit = ""  # the first leaf that did not glue
    for lf in inball[1:]:
        cand, ceil, cand_tail = _re_expand(ctx, lf, m)
        v = _agreement(ctx, ref, ref_ceil, cand, ceil)
        if v is not Verdict.YES and not culprit:
            culprit = f"leaf at center {lf.center} (level {lf.level})"
        if v is Verdict.NO:
            return CanMembership(Verdict.NO, None, f"re-expansions disagree: {culprit}")
        tail = min(tail, cand_tail)
    if culprit:
        return CanMembership(
            Verdict.INDETERMINATE, None, f"comparison starved: {culprit}"
        )
    witness = TateSeries._from_pairs(ctx, m, ref, tail)
    return CanMembership(Verdict.YES, witness, f"{len(inball)} leaves glue")


def is_member_C_m(f: StepFunction, m: int) -> bool:
    """Is the restriction of the step function to p**m Z_p one constant?
    Its leaves are constants, so this is the gluing test of is_member_Can;
    INDETERMINATE reads False."""
    if not isinstance(f, StepFunction):
        raise ParameterError("is_member_C_m expects a StepFunction")
    return is_member_Can(f, m).status is Verdict.YES


def is_member_pi_an(f: PiecewiseFunction, m: int, k: int) -> CanMembership:
    """Locally algebraic model test: leafwise degree <= k - 2 everywhere
    and the restriction to p**m Z_p glues to one such polynomial."""
    _int_param("weight k", k, 2)
    for lf in f.leaves:
        if lf.series.degree > k - 2:
            return CanMembership(
                Verdict.NO, None, f"leaf at {lf.center} has degree > k-2"
            )
    res = is_member_Can(f, m)
    if res.status is Verdict.YES and res.witness.degree > k - 2:
        return CanMembership(Verdict.NO, None, "glued series has degree > k-2")
    return res


def mahler_coefficients(f: PiecewiseFunction, count: int) -> List[PadicNumber]:
    """First `count` Mahler coefficients c_n = (forward difference)^n f (0).

    Uses nothing but point evaluation, so it is independent of the
    coefficient algebra; f(j) = sum_n c_n binom(j, n) reconstructs the
    sampled values exactly.
    """
    _int_param("count", count, 1, f.ctx.D + 1)
    row = [f.evaluate(f.ctx.from_int(j)) for j in range(count)]
    out = [row[0]]
    for _ in range(count - 1):
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        out.append(row[0])
    return out


# -- internals ---------------------------------------------------------------


def _check_partition(ctx: PadicContext, leaves: Sequence[Leaf]) -> None:
    """Exact cover check, its errors ranked: a bad leaf, a measure other than
    1, overlapping cosets.  Leaves arrive sorted by (level, center).  One pass
    checks each leaf (one p**h per level) and sums the measure in units of
    p**-h.  On one level cosets overlap exactly when a center repeats; else
    each leaf walks the levels up to its own (_ancestor) to the earliest leaf
    it lies in, and the least pair of positions is the first overlap in order.
    A level is checked when it is not the very object checked last (True == 1),
    and a center only when the cheap test fails, never twice per leaf."""
    p, h, q, units, moduli = ctx.p, None, 1, 0, []
    for lf in leaves:
        if lf.level is not h:
            level = _int_param("leaf level", lf.level, 0, MAX_LEVEL)
            if level != h:
                h, step = level, p ** level
                units, q = units * step // q, step
                moduli.append((h, q))
        if type(lf.center) is not int or not 0 <= lf.center < q:
            if not 0 <= _int_param("leaf center", lf.center) < q:
                raise ParameterError(f"leaf center {lf.center} not reduced mod p^{lf.level}")
        if lf.series.m != lf.level:
            raise ParameterError(
                f"leaf series level {lf.series.m} differs from coset level {lf.level}"
            )
        if lf.series.ctx is not ctx:
            _same_context("leaf series and function", ctx, lf.series.ctx)
        units += 1
    if not leaves:
        raise ParameterError("a partition needs at least one leaf")
    if units != q:
        total = sum((Fraction(1, p ** lf.level) for lf in leaves), Fraction(0))
        raise ParameterError(f"leaf measures sum to {total}, expected 1")
    if len(moduli) == 1 and len({lf.center for lf in leaves}) == len(leaves):
        return
    first, pairs = {}, []  # first: the position of each key not inside an earlier leaf
    for j, lf in enumerate(leaves):
        i = _ancestor(first, moduli, lf.center, lf.level)
        if i is None:
            first[lf.level, lf.center] = j
        else:
            pairs.append((i, j))
    if pairs:
        a, b = (leaves[x] for x in min(pairs))
        raise ParameterError(
            f"cosets overlap: centers {a.center}@{a.level} and {b.center}@{b.level}"
        )


def _ancestor(index: dict, moduli: Sequence[Tuple[int, int]], center: int, top: int):
    """The root-to-leaf walk: index's value at the first key (h, center mod
    p**h) over the levels h <= top of moduli, in increasing order, or None."""
    for h, q in moduli:
        if h > top:
            return None
        hit = index.get((h, center % q))
        if hit is not None:
            return hit
    return None


def _covered(p: int, leaves: Sequence[Leaf], others: Sequence[Leaf],
             equal: bool) -> Iterable[Tuple[Leaf, Leaf]]:
    """Each leaf that lies inside a leaf of others, with that leaf: the walk over
    the levels of others up to the leaf's own, or strictly below when not equal."""
    index = {(lf.level, lf.center): lf for lf in others}
    moduli = [(h, p ** h) for h in sorted({lf.level for lf in others})]
    for lf in leaves:
        cover = _ancestor(index, moduli, lf.center, lf.level if equal else lf.level - 1)
        if cover is not None:
            yield lf, cover


def _restrict(ctx: PadicContext, targets: Sequence[Tuple[Leaf, int, int]]) -> List[Leaf]:
    """Each (cover, center, level) as the covering leaf on the coset center +
    p**level Z_p inside it: the cover itself at its own level, else its series
    recentered as TateSeries.recenter does, from one source row per cover
    (keyed by its coset, unique among shifted covers) and one power row per
    offset, as long as the longest shifted series.  As in _taylor_shift, a
    constant or a zero offset needs no kernel call."""
    n = max((len(cv.series.pairs) for cv, _, h in targets if cv.level < h), default=0)
    rows, sources, powers, out = ctx.factorials.rows, {}, {}, []
    for cover, center, level in targets:
        if cover.level == level:
            out.append(cover)
            continue
        s, pairs, delta = cover.series, cover.series.pairs, center - cover.center
        if delta and len(pairs) != 1:
            src = sources.get((cover.level, cover.center))
            if src is None:
                src = sources[cover.level, cover.center] = _shift_source(ctx, pairs)
            ck = powers.get(delta)
            if ck is None:
                c = ctx.from_int(delta)
                ck = powers[delta] = _shift_powers(ctx, (c.val, c.unit), n)
            pairs = _offset_sums(ctx, src, ck, rows[:len(pairs)])[0]
        out.append(Leaf(center, level, TateSeries._from_pairs(ctx, level, pairs, s.tail_bound)))
    return out


def _re_expand(
    ctx: PadicContext, lf: Leaf, m: int
) -> Tuple[List[Tuple[float, int]], List[float], float]:
    """Re-expand the leaf series around 0 at level m, as (pairs, ceilings,
    tail): the (val, unit) pair of each coefficient, its ceiling and the
    candidate's tail certificate.  No series is built.

    For the leaf at center c the glued candidate is g(z) = s(z - c), so

        b_v = sum_{l >= v} s_l binom(l, v) (-c)^(l-v).

    The ceiling of b_v is the reliability limit of the defining sum: its
    least summand valuation plus N.  A polynomial leaf re-expands exactly
    (tail certificate +inf); for a truncated leaf the certificate of the
    source level does not transfer to the coarser ball, so the candidate
    claims only its stored minimum, or the leaf's own tail bound when
    nothing is stored: a truncated leaf never yields an exact candidate.
    """
    s, N = lf.series, ctx.N
    if not lf.center:
        return s.pairs, [v + N for v, _ in s.pairs], s.tail_bound
    c = ctx.from_int(-lf.center)
    pairs, floors = _taylor_shift(ctx, s.pairs, (c.val, c.unit))
    tail = s.tail_bound
    if tail is not INF:
        tail = min((v + m * l for l, (v, u) in enumerate(pairs) if u), default=tail)
    return pairs, [f + N for f in floors], tail


def compare_tracked(ctx: PadicContext, x: PadicNumber, x_ceiling: float,
                    y: PadicNumber, y_ceiling: float) -> Verdict:
    """Starvation-aware comparison of two tracked values by the agreement
    rule of padic._agreement: YES when the difference is certified to
    N - kappa relative digits, NO when a difference is visible inside the
    mutual reliable window, INDETERMINATE when the window is too shallow.
    Refuses an x or y of another context than ctx."""
    _same_context("values", ctx, x.ctx, y.ctx)
    return _agreement(ctx, [(x.val, x.unit)], [x_ceiling], [(y.val, y.unit)], [y_ceiling])
