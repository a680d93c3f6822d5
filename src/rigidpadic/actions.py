"""Iwahori-level group actions on the function models.

Matrices g = [[a, b], [c, d]] live in the pro-p Iwahori I(1) of GL2(Z_p):

    a - 1, d - 1, b in p Z_p,   c in Z_p,

or in the principal congruence subgroups G(m), m >= 1, where all four
of a - 1, b, c, d - 1 lie in p**m Z_p.  With e = k - 2, g acts on the
induction by one linear fractional substitution,

    (g f)(z) = (d - b z)^e f((a z - c) / (d - b z)).

Piecewise inputs are handled leafwise in one pass: g is an isometry of Z_p
sending cosets onto cosets, so a leaf maps to a leaf with an explicitly
composed local series, and no partition refinement is ever needed.  Each
public action builds its function class once from the final leaves.  The
leaf (z0, h, S) goes to the leaf at the residue R of (c + d z0) / (a + b z0)
modulo p**h.  Writing z = R + z', q = d - b R and det = a d - b c, the
substituted point is z0 + A + B w, so the image series is

    q^e S(A + B w) (1 - mu z')^e,   w = z' / (1 - mu z'),
    A = (a R - c - z0 q) / q,   B = det / q^2,   mu = b / q.

R is the image of z0 modulo p**h, so valp(A) >= h; q, det and B are units
and valp(mu) = valp(b) >= 1.  Each leaf is carried as the (val, unit) pairs
of its coefficients through one pass: the Taylor shift of S by A
(series._taylor_shift, skipped when A = 0), then for b != 0 the twisted sums
of series._twisted_sums with (B, mu, e), then the unit scaling of
series._scaled, by d^e (a / d)^l on a_l for b = 0, where the series is
d^e S(A + (a / d) z'), and by q^e for b != 0 and e > 0.  The image leaf's one
TateSeries is made from the last pairs; no step makes a PadicNumber
coefficient.  An exact polynomial of degree <= e stays one.  g and the
function must belong to one context.

The action reads the integers stored for a, b, c, d once per action.  R, q,
det and the numerator a R - c - z0 q of A are exact integers, and each of A,
B, mu and q^e is an exact integer over a unit, rounded once, N digits above
its value.  Rounding A moves the centre by eps in p**(valp(A) + N), which
moves coefficient j only at or above val_C - h j + valp(eps) - h, that is
at or above val_C - h j + N.  The stored entries fix R modulo
p**(min(valp(c), valp(z0)) + N), also where their digits read 1 or 0: a
leaf at a level above that is refused with a PrecisionError.

The image is cut once, by the twisted sums, after the shift: the tail
certificate covers every coefficient past the stored ones.  The stored ones
end at z^D, or earlier where every summand of every further coefficient
lies at or above max(val_C, 0) + N, inside the contract below at every
j >= 0.  A route that shifts an image cut at z^D drops the coefficients
g_l, l > D, whose share of z^j lies only (l - deg S)(valp(b) + h) digits
above val_C - h j: fewer than N for short S near D, so such a route can
miss the contract below.  Here every summand of the shift of S and of the
twisted sum for z^j has valuation >= val_C - h j (S(A + .) keeps the Banach
valuation of S and (mu p**h)^q is integral).  Each rounding, of A, B, mu
and q^e, errs N digits above its value, each sum is exact modulo
p**(its least summand valuation + N) (the precision model of series.py)
and unit scalings round nothing.  So coefficient j agrees with the exact
image under g's own entries modulo p**(val_C - h j + N - kappa) (the
precision contract; tests/test_actions.py checks it against the exact image
of tests/exact_image.py, computed from Fractions outside the library).

A TateSeries at level m is the one leaf (0, m): act admits it only for g
in G(m) (I(1) at m = 0), so R = 0.  The one-parameter matrices
[[1, 0], [y, 1]], diag(s, 1), [[1, x], [0, 1]] and diag(1, t) act as
f(z - y), f(s z), the mobius twist by x and f(z / t) t^e.  Composing their
images one after another cuts the mobius image at z^D before it translates,
so it can miss the contract where act by the product meets it.  Only the
twisted sums expand the twist, so k - 2 > D is refused only when b != 0.

The w0 Weyl cell carries the action of the w0-conjugate matrix (swap
a <-> d and b <-> c); when the conjugate leaves the actionable range
(lower-left corner a unit) the cell reports a domain error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Union

from .errors import DomainError, InvariantViolation, ParameterError, PrecisionError, _int_param
from .functions import (
    Leaf,
    LocallyAlgebraicFunction,
    PiecewiseFunction,
    StepFunction,
)
from .padic import Coercible, PadicContext, PadicNumber, _same_context
from .series import TateSeries, _scaled, _taylor_shift, _twisted_sums

I1 = "I1"


class InductionCharacter:
    """Weight and Frobenius data labelling one side of the induction.

    alpha and beta are the crystalline Frobenius eigenvalues, k >= 2 the
    weight; `which` records the side ("alpha" or "beta") the character
    belongs to.  Only k enters the I(1)-action formulas; alpha and beta
    matter for classification and bookkeeping.

    The strict eigenvalue constraints

        alpha != beta,  0 < valp(beta) <= valp(alpha),
        valp(alpha) + valp(beta) = k - 1

    are satisfiable over Q_p only for k >= 3 (valuations are integers),
    so construction takes `strict=False` to admit the k = 2 degenerate
    case; violations are always listable via `violations()`.
    """

    __slots__ = ("alpha", "beta", "k", "which")

    def __init__(
        self,
        alpha: PadicNumber,
        beta: PadicNumber,
        k: int,
        which: str = "alpha",
        strict: bool = True,
    ):
        self.k = _int_param("weight k", k, 2)
        if which not in ("alpha", "beta"):
            raise ParameterError(f"which must be 'alpha' or 'beta', got {which!r}")
        _same_context("eigenvalues", alpha.ctx, beta.ctx)
        if alpha.is_zero or beta.is_zero:
            raise ParameterError("eigenvalues must be nonzero")
        self.alpha = alpha
        self.beta = beta
        self.which = which
        if strict:
            bad = self.violations()
            if bad:
                raise ParameterError("; ".join(bad))

    def violations(self) -> list:
        """Every violated eigenvalue constraint, individually."""
        out = []
        if self.alpha == self.beta:
            out.append("alpha and beta coincide")
        va, vb = self.alpha.val, self.beta.val
        if not vb > 0:
            out.append(f"valp(beta) = {vb} is not > 0")
        if not vb <= va:
            out.append(f"valp(beta) = {vb} exceeds valp(alpha) = {va}")
        if va + vb != self.k - 1:
            out.append(
                f"valp(alpha) + valp(beta) = {va + vb} differs from k - 1 = {self.k - 1}"
            )
        return out

    @property
    def ctx(self) -> PadicContext:
        return self.alpha.ctx

    @property
    def small_slope(self) -> bool:
        """valp(alpha) < k - 1: the non-critical range."""
        return self.alpha.val < self.k - 1

    def swapped(self) -> "InductionCharacter":
        other = "beta" if self.which == "alpha" else "alpha"
        return InductionCharacter(self.alpha, self.beta, self.k, other, strict=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InductionCharacter)
            and self.alpha == other.alpha
            and self.beta == other.beta
            and self.k == other.k
            and self.which == other.which
        )

    def __hash__(self) -> int:
        return hash((self.alpha, self.beta, self.k, self.which))

    def __repr__(self) -> str:
        return (
            f"InductionCharacter(alpha={self.alpha.to_string()}, "
            f"beta={self.beta.to_string()}, k={self.k}, which={self.which})"
        )


class IwahoriElement:
    """2x2 matrix with a declared congruence level ("I1" or m >= 1)."""

    __slots__ = ("ctx", "a", "b", "c", "d", "level")

    def __init__(
        self,
        ctx: PadicContext,
        a: Coercible,
        b: Coercible,
        c: Coercible,
        d: Coercible,
        level: Union[str, int] = I1,
    ):
        self.ctx = ctx
        self.a = ctx.num(a)
        self.b = ctx.num(b)
        self.c = ctx.num(c)
        self.d = ctx.num(d)
        self.level = level if level == I1 else _int_param("level other than 'I1'", level, 1)
        one = ctx.one()
        if level == I1:
            ok = (
                (self.a - one).val >= 1
                and (self.d - one).val >= 1
                and self.b.val >= 1
                and self.c.val >= 0
            )
        else:
            ok = self.satisfies_level(level)
        if not ok:
            raise DomainError(f"matrix entries violate the declared level {level!r}")
        if self.det().is_zero:
            raise DomainError("matrix is singular at working precision")

    def satisfies_level(self, m: int) -> bool:
        """Entrywise test for membership in G(m)."""
        one = self.ctx.one()
        return (
            (self.a - one).val >= m
            and self.b.val >= m
            and self.c.val >= m
            and (self.d - one).val >= m
        )

    def det(self) -> PadicNumber:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "IwahoriElement") -> "IwahoriElement":
        _same_context("matrices", self.ctx, other.ctx)
        if self.level == I1 or other.level == I1:
            lvl: Union[str, int] = I1
        else:
            lvl = min(self.level, other.level)
        return IwahoriElement(
            self.ctx,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            lvl,
        )

    def conjugate_by_w0(self) -> "IwahoriElement":
        """w0 g w0 for the Weyl involution w0 = antidiag(1, 1): swaps
        a <-> d and b <-> c.  Raises when the conjugate leaves I(1)."""
        lvl = self.level
        if lvl == I1 and self.c.val < 1:
            raise DomainError(
                "w0-conjugate leaves I(1): lower-left entry is a unit"
            )
        return IwahoriElement(self.ctx, self.d, self.c, self.b, self.a, lvl)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IwahoriElement)
            and (self.a, self.b, self.c, self.d, self.level)
            == (other.a, other.b, other.c, other.d, other.level)
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d, self.level))

    def __repr__(self) -> str:
        e = [v.to_string() for v in (self.a, self.b, self.c, self.d)]
        return f"IwahoriElement([[{e[0]}, {e[1]}], [{e[2]}, {e[3]}]], level={self.level!r})"


@dataclass(frozen=True)
class WeylCellVector:
    """A pair of function models, one per Weyl cell of the induction."""

    identity: PiecewiseFunction
    w0: PiecewiseFunction

    def __post_init__(self):
        _same_context("cells", self.identity.ctx, self.w0.ctx)

    @property
    def ctx(self) -> PadicContext:
        return self.identity.ctx


# -- leafwise action -----------------------------------------------------------


def _act_piecewise(ctx: PadicContext, leaves: Iterable[Leaf], g: IwahoriElement,
                   e: int) -> List[Leaf]:
    """The image of each leaf, in the given order; the caller builds the function.
    A centre inverts a + b z0 modulo p**level only: v(c + d z0) >= level - N,
    so its residue is the one that the inverse modulo p**N gives."""
    _same_context("matrix and function", ctx, g.ctx)
    p, N, pN = ctx.p, ctx.N, ctx.pN
    a, b, c, d = (v.unit * p ** v.val if v.unit else 0 for v in (g.a, g.b, g.c, g.d))
    det = a * d - b * c
    inv_a, inv_d = pow(a, -1, pN), pow(d, -1, pN)  # a and d are units
    factor, ratio = (0, pow(d, e, pN)), (0, a * inv_d % pN)
    out = []
    for lf in leaves:
        level, z0, f = lf.level, lf.center, lf.series
        if level > N:  # the stored entries fix R to min(v(c), v(z0)) + N digits
            top = min(g.c.val, ctx.from_int(z0).val) + N
            if level > top:
                raise PrecisionError(f"residue mod p^{level} exceeds stored precision p^{top}")
        mod = p ** level
        center = (c + d * z0) * (pow(a + b * z0, -1, mod) if b else inv_a) % mod
        q = d - b * center
        inv_q = pow(q, -1, pN) if b else inv_d
        # A = (a R - c - z0 q) / q, rounded once; cs are the pairs of S(A + z')
        shift = ctx.from_int(a * center - c - z0 * q)
        if shift.is_zero:
            cs = f.pairs
        elif shift.val < level:
            raise DomainError(f"leaf offset needs valp(A) >= {level}, got {shift.val}")
        else:
            cs, _ = _taylor_shift(ctx, f.pairs, (shift.val, shift.unit * inv_q % pN))
        tail = f.tail_bound
        if not b:
            cs = _scaled(ctx, cs, factor, ratio)
        else:
            # q^e S(A + B w) (1 - mu z')^e with B = det / q^2 and mu = b / q
            cs, tail = _twisted_sums(ctx, level, cs, tail, (0, det * inv_q * inv_q % pN),
                                     (g.b.val, g.b.unit * inv_q % pN), e)
            if e:
                cs = _scaled(ctx, cs, (0, pow(q, e, pN)), (0, 1))
        out.append(Leaf(center, level, TateSeries._from_pairs(ctx, level, cs, tail)))
    return out


# -- public actions -----------------------------------------------------------


def act(g: IwahoriElement, f, chi: InductionCharacter):
    """Left action of g on a TateSeries or a PiecewiseFunction.

    For a level-m series (m >= 1) the matrix must lie in G(m) so that
    the substitution keeps the series' ball p**m Z_p; level-0 series and
    piecewise functions accept all of I(1).  g and f must share a context;
    chi gives only its weight k, so its context is not checked.
    """
    k = chi.k
    if isinstance(f, TateSeries):
        if f.m >= 1 and not g.satisfies_level(f.m):
            raise DomainError(
                f"acting on a level-{f.m} series needs a matrix in G({f.m})"
            )
        # G(m) puts every offset in p**m Z_p: the one leaf stays at (0, m)
        return _act_piecewise(f.ctx, [Leaf(0, f.m, f)], g, k - 2)[0].series
    if isinstance(f, PiecewiseFunction):
        leaves = _act_piecewise(f.ctx, f.leaves, g, k - 2)
        return PiecewiseFunction(f.ctx, leaves)
    raise ParameterError(f"cannot act on {type(f).__name__}")


def act_cell(g: IwahoriElement, vec: WeylCellVector, chi: InductionCharacter) -> WeylCellVector:
    """Cellwise action: identity cell directly, w0 cell by conjugation."""
    ident = act(g, vec.identity, chi)
    try:
        conj = g.conjugate_by_w0()
    except (DomainError, ParameterError) as exc:
        raise DomainError(f"w0 cell: {exc}") from exc
    try:
        other = act(conj, vec.w0, chi)
    except DomainError as exc:
        raise DomainError(f"w0 cell: {exc}") from exc
    return WeylCellVector(ident, other)


def act_smooth(g: IwahoriElement, f: StepFunction) -> StepFunction:
    """Smooth-vector action: the same formulas with twist exponent 0."""
    if not isinstance(f, StepFunction):
        raise ParameterError("act_smooth expects a StepFunction")
    return StepFunction(f.ctx, _act_piecewise(f.ctx, f.leaves, g, 0))


def act_locally_algebraic(
    g: IwahoriElement, f: LocallyAlgebraicFunction, chi: InductionCharacter
) -> LocallyAlgebraicFunction:
    """Action on leafwise polynomials of degree <= k - 2.

    The mobius substitution and the (d - b z)^(k-2) twist cancel to a
    polynomial of the same bounded degree, which the twisted sums keep
    exact; any residual high coefficient trips an internal invariant error.
    """
    if chi.k != f.k:
        raise ParameterError(f"character weight {chi.k} differs from function weight {f.k}")
    leaves = _act_piecewise(f.ctx, f.leaves, g, f.k - 2)
    for lf in leaves:
        if lf.series.degree > f.k - 2:
            raise InvariantViolation(
                f"degree {lf.series.degree} > k-2 after locally algebraic action"
            )
    return LocallyAlgebraicFunction(f.ctx, leaves, f.k)
