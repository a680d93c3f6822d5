"""Orbit expansions, valuation certificates and the cokernel model.

For a certified series f(z) = sum_l a_l z^l on p**m Z_p the four
generator orbits expand into series families indexed by the group
coordinate, and each family satisfies an exact valuation inequality on
stored coefficients:

  translation  f(z - y) = sum_v y^v f_v,
               f_v = sum_{l>=v} a_l binom(l, v) (-1)^v z^(l-v),
               val_C(f_v) + m v >= inf_{l>=v} { valp(a_l) + m l }

  mobius       f(z/(1 - x z)) = sum_q x^q f_q   (untwisted part),
               f_q = sum_l a_l binom(l+q-1, q) z^(l+q),
               val_C(f_q) >= val_C(f) + m q

  dilation     f((1 + s') z) = sum_q s'^q f_q,
               f_q = sum_{l>=q} a_l binom(l, q) z^l,
               val_C(f_q) >= inf_{l>=q} { valp(a_l) + m l }

  inv_torus    f(z/(1 + t')) = sum_q t'^q f_q,
               f_q = sum_l a_l binom(l+q-1, q) (-1)^q z^l,
               val_C(f_q) >= val_C(f)

The four builders work on the stored (val, unit) pairs of f: each component
coefficient is one pair product +-a_l binom(n, j), read by _times_binom,
which lives in padic beside PadicContext.binom, and each component is
stored as it is by TateSeries._from_pairs; no PadicNumber is made.

bound_report and the membership tail guard read the stored val_C of every
component from an integer table (_orbit_levels) of binomial valuations
from the context's factorial table, without materialising the families.
The report is rows: one (certified, bound) pair of tuples per family, and
ok and first_violation scan their margins; its entries and to_dict are
views that build BoundEntry objects or dicts when read.  verify_bounds
asserts every inequality with its margin, and a violation is a hard
failure carrying the index (these bounds are theorems).

The cokernel model represents classes of pairs (F_alpha, F_beta) of
G(n)-analytic vectors modulo the embedded beta-side locally algebraic
model: two classes coincide when the alpha components agree and the
beta components differ by a cellwise member of the locally algebraic
space at the test level.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import count
from operator import add, sub
from typing import Dict, List, Optional, Tuple

from .actions import InductionCharacter, WeylCellVector
from .errors import (
    BoundViolation,
    DomainError,
    InvariantViolation,
    ParameterError,
    ParameterMismatch,
    _int_param,
)
from .functions import (
    PiecewiseFunction,
    compare_tracked,
    is_member_Can,
    is_member_pi_an,
    _re_expand,
)
from .padic import _ZERO, INF, PadicContext, PadicNumber, _same_context, _times_binom
from .series import TateSeries, _negated
from .verdict import Verdict

FAMILIES = ("translation", "mobius", "dilation", "inv_torus")


@dataclass(frozen=True)
class OrbitExpansion:
    family: str
    m: int
    source: TateSeries
    components: Tuple[TateSeries, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown orbit family {self.family!r}")


def _check_level(f: TateSeries, m: int) -> None:
    if type(m) is not int or m < 0:
        _int_param("ball level m", m, 0)
    if f.m != m:
        raise DomainError(f"series lives at level {f.m}, expansion requested at {m}")


def orbit_translation(f: TateSeries, m: int) -> OrbitExpansion:
    _check_level(f, m)
    ctx = f.ctx
    comps = []
    for v in range(ctx.D + 1):
        cs = [_times_binom(ctx, a, l, v) for l, a in enumerate(f.pairs[v:], v)]
        comps.append(TateSeries._from_pairs(ctx, m, cs if v % 2 == 0 else _negated(ctx, cs),
                                            f.tail_bound - m * v))
    return OrbitExpansion("translation", m, f, tuple(comps))


def orbit_mobius(f: TateSeries, m: int) -> OrbitExpansion:
    """Untwisted mobius orbit; the (1 - x z)^(k-2) factor is polynomial
    and tracked separately."""
    _check_level(f, m)
    ctx = f.ctx
    vc = f.val_c()
    comps = []
    for q in range(ctx.D + 1):
        # a_l lands on z^(l+q); a nonzero term is dropped past z^D iff deg f + q > D
        cs = [_ZERO] * q + [_times_binom(ctx, a, l + q - 1, q)
                            for l, a in enumerate(f.pairs[: ctx.D + 1 - q])]
        exact = f.tail_bound is INF and f.degree + q <= ctx.D
        comps.append(TateSeries._from_pairs(ctx, m, cs, INF if exact else vc + m * q))
    return OrbitExpansion("mobius", m, f, tuple(comps))


def orbit_dilation(f: TateSeries, m: int) -> OrbitExpansion:
    _check_level(f, m)
    ctx = f.ctx
    comps = []
    for q in range(ctx.D + 1):
        high = [_times_binom(ctx, a, l, q) for l, a in enumerate(f.pairs[q:], q)]
        comps.append(TateSeries._from_pairs(ctx, m, [_ZERO] * q + high if high else [],
                                            f.tail_bound))
    return OrbitExpansion("dilation", m, f, tuple(comps))


def orbit_inv_torus(f: TateSeries, m: int) -> OrbitExpansion:
    _check_level(f, m)
    ctx = f.ctx
    comps = []
    for q in range(ctx.D + 1):
        cs = [_times_binom(ctx, a, l + q - 1, q) for l, a in enumerate(f.pairs)]
        comps.append(TateSeries._from_pairs(ctx, m, cs if q % 2 == 0 else _negated(ctx, cs),
                                            f.tail_bound))
    return OrbitExpansion("inv_torus", m, f, tuple(comps))


def expand_all(f: TateSeries, m: int) -> Dict[str, OrbitExpansion]:
    return {
        "translation": orbit_translation(f, m),
        "mobius": orbit_mobius(f, m),
        "dilation": orbit_dilation(f, m),
        "inv_torus": orbit_inv_torus(f, m),
    }


def _orbit_levels(f: TateSeries, m: int) -> Dict[str, List[float]]:
    """[c.stored_val_c() for c in expand_all(f, m)[family].components] for
    each family, from integers: every stored component coefficient is one
    product +-a_l binom(n, j), and capped-relative products add valuations
    exactly, so each level is a minimum over the nonzero a_l, with
    x_l = valp(a_l) + m l.  Dilation keeps a_l binom(l, q) on z^l and
    translation puts it on z^(l-q); inv_torus keeps a_l binom(l+q-1, q) on
    z^l and mobius puts it on z^(l+q), so only q <= D - l.  Valuations are
    read from fv = v_p(n!), with binom(l-1, 0) = 1 and binom(q-1, q) = 0 for
    q >= 1.  Only rows that can lower an entry are read:

    dilation   entry q starts from x_q (binom(q, q) = 1) and scans the rows
               l > q by increasing x.  A binomial valuation is >= 0, so row
               l gives at least x_l there, and the scan stops at the first
               x at or above its best so far: no later row can go lower.
    inv_torus, row l >= 1 gives base_l + v_p((l+q-1)!) - v_p(q!) at q >= 1,
    mobius     with base_l = x_l - v_p((l-1)!).  v_p(n!) never decreases in
               n, so a row whose base is not below an earlier row's base
               is nowhere below that row, also on its shorter mobius range
               q <= D - l, and is skipped (a zero row has base inf).  The
               kept rows meet by min, each on its own range.

    Dilation and translation are finite exactly on q <= deg f, mobius on
    q <= D - l_1 (l_1 the first l >= 1 with a_l != 0), and every other slot
    is INF itself."""
    _check_level(f, m)
    D = f.ctx.D
    fv = f.ctx.factorials.vals
    xs = [v + m * l if u else INF for l, (v, u) in enumerate(f.pairs)]
    dil, later = [INF] * len(xs), []
    for q in range(len(xs) - 1, -1, -1):
        best = xs[q]
        for x, l in later:  # the nonzero rows l > q, by increasing x
            if x >= best:
                break
            t = x + fv[l] - fv[q] - fv[l - q]
            if t < best:
                best = t
        dil[q] = best
        if xs[q] is not INF:
            insort(later, (xs[q], q))
    kept, low = [], INF
    for l in range(1, len(xs)):
        base = xs[l] - fv[l - 1]
        if base < low:
            low = base
            kept.append((l, base))
    fq = fv[1:D + 1]
    tail, acc = [INF] * D, None
    for (l, base), end in zip(kept, [l for l, _ in kept[1:]] + [D]):
        row = [base + a - b for a, b in zip(fv[l:l + D], fq)]
        acc = row if acc is None else list(map(min, acc, row))
        # the rows up to this one are all that reach q in (D - end, D - l]
        tail[D - end:D - l] = acc[D - end:D - l]
    reach = D - kept[0][0] if kept else 0
    x0 = min(xs, default=INF)
    pad = [INF] * (D + 1 - len(xs))
    return {
        "translation": list(map(sub, dil, count(0, m))) + pad,
        "mobius": [x0] + list(map(add, tail[:reach], count(m, m))) + tail[reach:],
        "dilation": dil + pad,
        "inv_torus": [x0] + (tail if acc is None else acc),
    }


# -- bound verification -------------------------------------------------------


def _margin(lhs: float, rhs: float) -> float:
    return INF if lhs is INF or rhs is INF else lhs - rhs


def _enc(x):
    return "inf" if x is INF else ("-inf" if x == -INF else int(x))


def _entry_dict(family: str, index: int, val_c, bound, margin) -> dict:
    return {"family": family, "index": index,
            "val_C": _enc(val_c), "bound": _enc(bound), "margin": _enc(margin)}


@dataclass(frozen=True)
class BoundEntry:
    family: str
    index: int
    val_c: float
    bound: float
    margin: float

    @property
    def ok(self) -> bool:
        return self.margin >= 0

    def to_dict(self) -> dict:
        return _entry_dict(self.family, self.index, self.val_c, self.bound, self.margin)


class BoundReport:
    """The margins of the orbit inequalities at level m: rows holds one
    (certified, bound) pair of tuples per family, in FAMILIES order, and
    an entry is one index of one row.  entries and to_dict are views."""

    __slots__ = ("m", "rows")

    def __init__(self, m: int, rows: tuple):
        self.m = m
        self.rows = rows

    def _cells(self):
        for fam, (lhs, rhs) in zip(FAMILIES, self.rows):
            for v, (x, y) in enumerate(zip(lhs, rhs)):
                yield fam, v, x, y, _margin(x, y)

    @property
    def entries(self) -> Tuple[BoundEntry, ...]:
        return tuple([BoundEntry(*c) for c in self._cells()])

    @property
    def ok(self) -> bool:
        return self.first_violation() is None

    def first_violation(self) -> Optional[BoundEntry]:
        for fam, (lhs, rhs) in zip(FAMILIES, self.rows):
            for v, d in enumerate(map(_margin, lhs, rhs)):
                if not d >= 0:
                    return BoundEntry(fam, v, lhs[v], rhs[v], d)
        return None

    def to_dict(self) -> dict:
        return {"m": self.m, "ok": self.ok,
                "entries": [_entry_dict(*c) for c in self._cells()]}


def bound_report(f: TateSeries, m: int, tamper: Optional[Tuple[str, int]] = None) -> BoundReport:
    """Per-index margins of all four orbit inequalities on stored data.

    The certified quantities come from the valuation table _orbit_levels.
    `tamper` deliberately corrupts one entry (test hook for the failure
    path): its certified quantity drops by margin + 1, which is what
    scaling that component by p**-(margin + 1) does to its stored_val_c.
    """
    levels = _orbit_levels(f, m)
    suffix = f.suffix_levels()
    stored = f.stored_val_c()
    span = range(f.ctx.D + 1)
    floors = [suffix[v] if v < len(suffix) else INF for v in span]
    shifted = [c if c is INF else c + m * v for v, c in enumerate(levels["translation"])]
    lhs = dict(levels, translation=shifted)
    rhs = {
        "translation": floors,
        "mobius": [stored if stored is INF else stored + m * q for q in span],
        "dilation": floors,
        "inv_torus": [stored] * len(span),
    }
    if tamper is not None:
        fam, idx = tamper
        if fam not in FAMILIES:
            raise ParameterError(f"unknown orbit family {fam!r}")
        if _int_param("tamper index", idx) not in span:
            raise ParameterError(f"tamper index {idx} outside [0, {len(span)}) for {fam}")
        margin = _margin(lhs[fam][idx], rhs[fam][idx])
        if margin is INF:
            raise ParameterError(f"component {fam}[{idx}] has no finite margin to break")
        lhs[fam][idx] -= margin + 1
    return BoundReport(m, tuple((tuple(lhs[fam]), tuple(rhs[fam])) for fam in FAMILIES))


def verify_bounds(f: TateSeries, m: int, tamper: Optional[Tuple[str, int]] = None) -> BoundReport:
    """bound_report plus a hard failure on any negative margin."""
    report = bound_report(f, m, tamper)
    bad = report.first_violation()
    if bad is not None:
        raise BoundViolation(
            f"orbit bound violated at {bad.family}[{bad.index}]: "
            f"val_C = {bad.val_c}, bound = {bad.bound}",
            report,
        )
    return report


# -- membership, two routes ---------------------------------------------------


def is_analytic_vector(f: PiecewiseFunction, m: int) -> Verdict:
    """Re-expansion membership, cross-checked on the merged witness.

    When the gluing succeeds the witness' own orbit expansions must obey
    the uniform tail bound val_C(f_v) + m v >= val_C(witness); a failure
    there is an internal error, never a verdict.
    """
    res = is_member_Can(f, m)
    if res.status is not Verdict.YES:
        return res.status
    _orbit_tail_guard(res.witness, m, "witness")
    return Verdict.YES


def orbit_membership(f: PiecewiseFunction, m: int) -> Verdict:
    """Independent membership route built on evaluation.

    The candidate continuation is re-expanded from the in-ball leaf at
    center 0: it needs no shift, so no digit is lost to cancellation before
    it is evaluated.  Its orbit expansions are required to satisfy the
    uniform tail bound, and the candidate is then compared against every
    other in-ball leaf at three sample points per leaf with
    starvation-aware comparisons, each value trusted below its evaluation
    ceiling.  It reads the fine leaves on purpose, also for a function made
    by refine, which is_member_Can glues on its coarse partition: the two
    routes stay independent.
    """
    _int_param("ball level m", m, 0)
    ctx = f.ctx
    cover = f.covering_leaf(m)
    if cover is not None:
        candidate = cover.series.recenter(ctx.zero(), m)
        _orbit_tail_guard(candidate, m, "candidate")
        return Verdict.YES
    inball = f.leaves_in_ball(m)
    if not inball:
        raise InvariantViolation("partition leaves no cover of the ball")
    source = next(lf for lf in inball if lf.center == 0)
    pairs, _, tail = _re_expand(ctx, source, m)
    candidate = TateSeries._from_pairs(ctx, m, pairs, tail)
    _orbit_tail_guard(candidate, m, "candidate")
    verdict = Verdict.YES
    for lf in inball:
        if lf is source:
            continue
        step = ctx.p ** lf.level
        for j in range(3):
            z = ctx.from_int(lf.center + j * step)
            got, got_ceil = candidate.evaluate_tracked(z)
            want, want_ceil = lf.series.evaluate_tracked(z - ctx.from_int(lf.center))
            verdict = verdict & compare_tracked(ctx, got, got_ceil, want, want_ceil)
            if verdict is Verdict.NO:
                return verdict
    return verdict


def _orbit_tail_guard(w: TateSeries, m: int, role: str) -> None:
    """Every orbit component of w obeys val_C(f_v) + m v >= val_C(w); a row is
    walked only to name a failure that its minima show (m v >= 0)."""
    base = w.val_c()
    for fam, levels in _orbit_levels(w, m).items():
        if min(levels) >= base or min(map(add, levels, count(0, m))) >= base:
            continue
        for v, c in enumerate(levels):
            if c is not INF and c + m * v < base:
                raise InvariantViolation(f"{role} orbit tail bound failed at {fam}[{v}]")


# -- the cokernel model -------------------------------------------------------


class GAElement:
    """Cellwise G(n)-analytic vector with per-cell gluing certificates."""

    __slots__ = ("vector", "n", "m", "certificates")

    def __init__(self, vector: WeylCellVector, n: int, m: int):
        if _int_param("congruence level n", n, 1) >= _int_param("test level m", m):
            raise DomainError(f"test level m = {m} must exceed n = {n}")
        self.vector = vector
        self.n = n
        self.m = m
        certs = {}
        for name, cell in (("identity", vector.identity), ("w0", vector.w0)):
            res = is_member_Can(cell, m)
            if res.status is not Verdict.YES:
                raise DomainError(
                    f"{name} cell is not analytic at level {m}: {res.detail}"
                )
            certs[name] = res
        self.certificates = certs

    @property
    def ctx(self) -> PadicContext:
        return self.vector.ctx

    @classmethod
    def zero(cls, ctx: PadicContext, n: int, m: int) -> "GAElement":
        z = PiecewiseFunction.constant(ctx, 0)
        return cls(WeylCellVector(z, z), n, m)

    def agrees_with(self, other: "GAElement") -> bool:
        return (self.vector.identity.agrees_with(other.vector.identity)
                and self.vector.w0.agrees_with(other.vector.w0))

    def __sub__(self, other: "GAElement") -> WeylCellVector:
        """Cellwise difference as raw functions (no re-certification)."""
        return WeylCellVector(
            self.vector.identity - other.vector.identity,
            self.vector.w0 - other.vector.w0,
        )


class CokernelElement:
    """Class representative (F_alpha, F_beta) for the quotient model."""

    __slots__ = ("chi", "n", "m", "F_alpha", "F_beta")

    def __init__(
        self,
        chi: InductionCharacter,
        n: int,
        m: int,
        F_alpha: GAElement,
        F_beta: GAElement,
    ):
        self.n, self.m = _int_param("congruence level n", n, 1), _int_param("test level m", m)
        if (F_alpha.n, F_alpha.m) != (n, m) or (F_beta.n, F_beta.m) != (n, m):
            raise ParameterMismatch("component levels differ from the class levels")
        _same_context("character and components", F_alpha.ctx, F_beta.ctx, chi.ctx)
        self.chi = chi
        self.F_alpha = F_alpha
        self.F_beta = F_beta

    @property
    def ctx(self) -> PadicContext:
        return self.F_alpha.ctx

    def params(self) -> tuple:
        return (self.chi.alpha, self.chi.beta, self.chi.k, self.n, self.m)


def cokernel_equal(c1: CokernelElement, c2: CokernelElement) -> bool:
    """Equality of classes under the beta embedding: the beta-side locally
    algebraic model sits in the beta component only, so classes agree iff
    the alpha components match and the beta difference is cellwise locally
    algebraic."""
    if c1.params() != c2.params():
        raise ParameterMismatch(
            f"class parameters differ: {c1.params()} vs {c2.params()}"
        )
    if not c1.F_alpha.agrees_with(c2.F_alpha):
        return False
    diff = c1.F_beta - c2.F_beta
    for cell in (diff.identity, diff.w0):
        if is_member_pi_an(cell, c1.m, c1.chi.k).status is not Verdict.YES:
            return False
    return True


def witness_nonzero(
    ctx: PadicContext,
    alpha: PadicNumber,
    beta: PadicNumber,
    k: int,
    n: int,
    m: int,
) -> Tuple[CokernelElement, dict]:
    """A class provably distinct from zero: F_alpha the constant 1 on the
    identity cell, F_beta = 0.  The proof record explains why no beta-side
    member can cancel the alpha component.

    The strict eigenvalue constraints are enforced for k >= 3; k = 2
    admits no integral-valuation solution, so only the shape checks
    apply there and the small-slope flag is reported as stated.
    """
    chi = InductionCharacter(alpha, beta, k, strict=k != 2)
    one_cell = PiecewiseFunction.constant(ctx, 1)
    zero_cell = PiecewiseFunction.constant(ctx, 0)
    F_alpha = GAElement(WeylCellVector(one_cell, zero_cell), n, m)
    F_beta = GAElement.zero(ctx, n, m)
    elem = CokernelElement(chi, n, m, F_alpha, F_beta)
    zero = CokernelElement(chi, n, m, GAElement.zero(ctx, n, m), GAElement.zero(ctx, n, m))
    distinct = not cokernel_equal(elem, zero)
    if not distinct:
        raise InvariantViolation("constructed witness collapsed to the zero class")
    proof = {
        "alpha_component": "constant 1 on the identity cell",
        "beta_component": "0",
        "embedded_image_touches_alpha": False,
        "alpha_difference_zero": False,
        "small_slope": chi.small_slope,
        "conclusion": "class is nonzero under the beta embedding",
    }
    return elem, proof
