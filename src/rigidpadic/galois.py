"""Character arithmetic and parameter classification on the Galois side.

A continuous character of Q_p^x valued in Q_p^x is pinned down by three
coordinates, because Q_p^x factors topologically as p^Z x mu_{p-1} x
(1 + p Z_p):

  value_at_p     the image of p (any nonzero number)
  tame_exponent  the exponent on the torsion units, an integer mod p-1
  wild_value     the image of 1+p, a unit congruent to 1 mod p

This triple makes equality decidable at working precision.  The weight
of a character is log(wild_value)/log(1+p); the distinguished
characters are the inclusion (p, 1, 1+p) of weight 1 and the normalized
absolute value (1/p, 0, 1) of weight 0.

Classification of a parameter (delta1, delta2, scriptL):

  * the base locus requires val(delta1(p)) + val(delta2(p)) = 0 with
    val(delta1(p)) > 0, and carries the invariants
    u = val(delta1(p)) and w = weight(delta1) - weight(delta2);
  * the crystalline locus additionally requires w to be a rational
    integer >= 1 (decided at precision), u < w, and scriptL = infinity;
  * the extension space of the pair has dimension 2 exactly when
    delta1/delta2 matches x^(-i) for some i >= 0 or |x| x^i for some
    i >= 1, and dimension 1 otherwise.

Neither question is a search.  An integral x agrees with an integer n to
N - kappa digits only when n = x mod p^(N - kappa), so integrality scans
that one residue class of [-bound, bound].  x^(-i) sends p to p^(-i) and
|x| x^i sends it to p^(i-1), so v = val((delta1/delta2)(p)) leaves one
index per family, i = -v or i = v + 1.  When the decisive index lies
beyond the configured bound, the verdict is INDETERMINATE rather than a
guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import ParameterError, _int_param
from .padic import PadicContext, PadicNumber, _same_context, padic_log
from .verdict import Verdict

SCRIPT_L_INF = "inf"


class ContinuousCharacter:
    __slots__ = ("ctx", "value_at_p", "tame_exponent", "wild_value")

    def __init__(self, value_at_p: PadicNumber, tame_exponent: int, wild_value: PadicNumber):
        ctx = _same_context("character components", value_at_p.ctx, wild_value.ctx)
        if value_at_p.is_zero:
            raise ParameterError("character value at p must be nonzero")
        if wild_value.is_zero or wild_value.val != 0:
            raise ParameterError("wild value must be a unit")
        if not (wild_value - ctx.one()).is_zero and (wild_value - ctx.one()).val < 1:
            raise ParameterError("wild value must be congruent to 1 mod p")
        self.ctx = ctx
        self.value_at_p = value_at_p
        self.tame_exponent = _int_param("tame exponent", tame_exponent) % (ctx.p - 1)
        self.wild_value = wild_value

    @classmethod
    def trivial(cls, ctx: PadicContext) -> "ContinuousCharacter":
        return cls(ctx.one(), 0, ctx.one())

    @classmethod
    def unramified(cls, ctx: PadicContext, c) -> "ContinuousCharacter":
        return cls(ctx.num(c), 0, ctx.one())

    def __mul__(self, other: "ContinuousCharacter") -> "ContinuousCharacter":
        return ContinuousCharacter(
            self.value_at_p * other.value_at_p,
            self.tame_exponent + other.tame_exponent,
            self.wild_value * other.wild_value,
        )

    def __truediv__(self, other: "ContinuousCharacter") -> "ContinuousCharacter":
        return self * other.inverse()

    def inverse(self) -> "ContinuousCharacter":
        return ContinuousCharacter(
            self.value_at_p.invert(),
            -self.tame_exponent,
            self.wild_value.invert(),
        )

    def __pow__(self, e: int) -> "ContinuousCharacter":
        return ContinuousCharacter(
            self.value_at_p ** e,
            self.tame_exponent * e,
            self.wild_value ** e,
        )

    def agrees_with(self, other: "ContinuousCharacter") -> bool:
        return (
            self.tame_exponent == other.tame_exponent
            and self.value_at_p.agrees_with(other.value_at_p)
            and self.wild_value.agrees_with(other.wild_value)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContinuousCharacter):
            return NotImplemented
        return (
            self.ctx.same(other.ctx)
            and self.value_at_p == other.value_at_p
            and self.tame_exponent == other.tame_exponent
            and self.wild_value == other.wild_value
        )

    def __hash__(self):
        return hash((self.value_at_p, self.tame_exponent, self.wild_value))

    def __repr__(self):
        return (
            f"ContinuousCharacter(p->{self.value_at_p.to_string()}, "
            f"tame={self.tame_exponent}, 1+p->{self.wild_value.to_string()})"
        )


def x_character(ctx: PadicContext) -> ContinuousCharacter:
    """The character induced by the inclusion of Q_p into the
    coefficient field: z maps to z itself."""
    return ContinuousCharacter(ctx.from_int(ctx.p), 1, ctx.from_int(1 + ctx.p))


def abs_x_character(ctx: PadicContext) -> ContinuousCharacter:
    """Normalized absolute value: z maps to p^(-val_p(z))."""
    return ContinuousCharacter(ctx.from_int(ctx.p).invert(), 0, ctx.one())


def weight(delta: ContinuousCharacter) -> PadicNumber:
    ctx = delta.ctx
    u = ctx.from_int(1 + ctx.p)
    return padic_log(delta.wild_value) / padic_log(u)


def nearest_integer(x: PadicNumber, bound: int) -> Tuple[Verdict, Optional[int]]:
    """Identify x with a rational integer in [-bound, bound].

    NO when val(x) < 0 (visibly fractional).  Otherwise x - n keeps
    N - kappa digits exactly when n = x mod p^(N - kappa), so only that
    residue class is scanned, in increasing order: YES with its first
    exact match, else with its first n of largest valuation of x - n.
    INDETERMINATE when the class misses [-bound, bound], since the data
    cannot exclude an integer beyond the bound.
    """
    ctx = x.ctx
    if not x.is_zero and x.val < 0:
        return Verdict.NO, None
    step = ctx.p ** (ctx.N - ctx.kappa)
    best: Optional[int] = None
    best_val = -1
    for n in range((x.residue(ctx.N - ctx.kappa) + bound) % step - bound, bound + 1, step):
        d = x - ctx.from_int(n)
        if d.is_zero:
            return Verdict.YES, n
        if d.val > best_val:
            best_val = d.val
            best = n
    if best is None:
        return Verdict.INDETERMINATE, None
    return Verdict.YES, best


@dataclass(frozen=True)
class TriangulineParam:
    delta1: ContinuousCharacter
    delta2: ContinuousCharacter
    scriptL: object = SCRIPT_L_INF

    def __post_init__(self):
        _same_context("characters", self.delta1.ctx, self.delta2.ctx)

    @property
    def ctx(self) -> PadicContext:
        return self.delta1.ctx

    @property
    def script_l_is_inf(self) -> bool:
        return self.scriptL == SCRIPT_L_INF


@dataclass(frozen=True)
class StarResult:
    is_member: bool
    u: Optional[int]
    w: PadicNumber


def in_S_star(s: TriangulineParam) -> StarResult:
    v1 = s.delta1.value_at_p.val
    v2 = s.delta2.value_at_p.val
    ok = (v1 + v2 == 0) and v1 > 0
    w = weight(s.delta1) - weight(s.delta2)
    return StarResult(ok, v1 if ok else None, w)


@dataclass(frozen=True)
class CrisResult:
    status: Verdict
    in_star: bool
    u: Optional[int]
    w_integer: Optional[int]
    reason: str
    w: PadicNumber


#: the weight gap w is identified with an integer n only for |n| <= this
INTEGER_BOUND = 50


def in_S_cris(s: TriangulineParam) -> CrisResult:
    """Crystalline locus test: base conditions, integral weight gap w >= 1,
    slope bound u < w, and the extension coordinate at infinity.  The result
    carries the base locus's membership, u and w, so one call answers both."""
    star = in_S_star(s)

    def result(status: Verdict, w_int: Optional[int], reason: str) -> CrisResult:
        return CrisResult(status, star.is_member, star.u, w_int, reason, star.w)

    if not star.is_member:
        return result(Verdict.NO, None, "base valuation conditions fail")
    if not s.script_l_is_inf:
        return result(Verdict.NO, None, "extension coordinate is finite")
    verdict, w_int = nearest_integer(star.w, INTEGER_BOUND)
    if verdict is Verdict.INDETERMINATE:
        return result(verdict, None, "weight gap not identifiable with an integer in range")
    if w_int is None or w_int < 1:
        return result(Verdict.NO, w_int, "weight gap is not an integer >= 1")
    if not (star.u < w_int):
        return result(Verdict.NO, w_int, "slope does not satisfy u < w")
    return result(Verdict.YES, w_int, "crystalline conditions hold")


@dataclass(frozen=True)
class Ext1Result:
    dimension: Optional[int]
    matched_form: Optional[str]
    status: Verdict


def ext1_dimension(
    delta1: ContinuousCharacter,
    delta2: ContinuousCharacter,
    bound: int = 20,
) -> Ext1Result:
    """Dimension of the extension space of the ordered pair.

    The quotient q = delta1/delta2 can match x^(-i), 0 <= i <= bound, or
    |x| x^i, 1 <= i <= bound.  These send p to p^(-i) and p^(i-1), so with
    v = val(q(p)) only i = -v or i = v + 1 can match, and just those two
    are tested.  A pattern pointing beyond the bound is reported
    INDETERMINATE instead of being classified.
    """
    q = delta1 / delta2
    v = q.value_at_p.val
    x = x_character(q.ctx)
    if 0 <= -v <= bound and q.agrees_with(x ** v):
        return Ext1Result(2, f"x^-{-v}", Verdict.YES)
    if 1 <= v + 1 <= bound and q.agrees_with(abs_x_character(q.ctx) * x ** (v + 1)):
        return Ext1Result(2, f"|x|x^{v + 1}", Verdict.YES)
    if -v > bound or v + 1 > bound:
        return Ext1Result(None, None, Verdict.INDETERMINATE)
    return Ext1Result(1, None, Verdict.YES)


def validate_crystalline(alpha: PadicNumber, beta: PadicNumber, k: int):
    """Strictly validated parameter record; every violated constraint is
    reported in one message."""
    from .actions import InductionCharacter

    return InductionCharacter(alpha, beta, k, strict=True)


class FilteredPhiModule:
    """Two-dimensional filtered module with diagonal Frobenius.

    Frobenius acts by alpha^(-1) and beta^(-1) on the basis vectors; the
    filtration is full in low degree, the line through e_alpha + e_beta
    in the middle range, and zero in positive degree.
    """

    __slots__ = ("ctx", "alpha", "beta", "k")

    def __init__(self, alpha: PadicNumber, beta: PadicNumber, k: int):
        self.k = _int_param("weight k", k, 2)
        self.ctx = _same_context("Frobenius eigenvalues", alpha.ctx, beta.ctx)
        if alpha.is_zero or beta.is_zero:
            raise ParameterError("Frobenius eigenvalues must be nonzero")
        self.alpha = alpha
        self.beta = beta

    def fil_dimension(self, i: int) -> Tuple[int, Tuple[str, ...]]:
        if i <= -(self.k - 1):
            return 2, ("e_alpha", "e_beta")
        if i <= 0:
            return 1, ("e_alpha + e_beta",)
        return 0, ()

    def hodge_tate_weights(self) -> set:
        """Filtration jump indices, negated; scans one step past each end
        of the active range."""
        weights = set()
        for i in range(-(self.k + 1), 2):
            if self.fil_dimension(i)[0] > self.fil_dimension(i + 1)[0]:
                weights.add(-i)
        return weights

    def phi_action(
        self, vec: Tuple[PadicNumber, PadicNumber]
    ) -> Tuple[PadicNumber, PadicNumber]:
        ca, cb = vec
        return ca / self.alpha, cb / self.beta
