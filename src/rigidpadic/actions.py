"""Iwahori-level group actions on the function models.

Matrices live in the pro-p Iwahori I(1) of GL2(Z_p):

    a - 1, d - 1, b in p Z_p,   c in Z_p,

or in the principal congruence subgroups G(m), m >= 1, where all four
of a - 1, b, c, d - 1 lie in p**m Z_p.  Any such matrix factors as
lower * diagonal * upper,

    g = [[1, 0], [y, 1]] [[s, 0], [0, t]] [[1, x], [0, 1]],
    y = c / a,  s = a,  t = d - c b / a,  x = b / a,

and the left action on a function model applies the upper factor
first (mobius substitution with the k - 2 twist), then the torus
(dilation by s, inverse torus by t carrying t^(k-2)), then the lower
factor (translation by y).

Piecewise inputs are handled leafwise in one pass: each generator is an
isometry of Z_p sending cosets onto cosets, so a leaf at center c maps to
a leaf at the image center with an explicitly composed local series, and
no partition refinement is ever needed.  Each public action builds its
function class once from the final leaves.  For the mobius generator the
image of the leaf at c is centered at b1 = c / (1 + x c), and with
e = k - 2 the local series S becomes

    G(z') = (1 + x c)^(-e) S(lam z' / (1 - mu z')) (1 - mu z')^e,
    lam = (1 + x c)^2,   mu = x (1 + x c),

at the exact center b1 (G = S and b1 = c when x = 0).

The dilation, inverse torus and translation are affine in the local
variable (b -> b / s with h(s z'), b -> b t with h(z' / t) t^e, b -> b + y),
so the image leaf lies at the residue R of c / (r (1 + x c)) + y modulo
p**level, r = s / t, and carries

    t^e G(Delta + r z'),   Delta = r (R - y) - c / (1 + x c)  in p**level Z_p.

Step by step, each image center b_i (i = 1..4) is read off as the residue
r_i of its coset; the offsets delta_i = r_i - b_i compose to delta_1 +
s delta_2 + r (delta_3 + delta_4), which telescopes to Delta with R = r_4.
The action instead computes R and Delta once per leaf from the stored
integers of the factors s, t, x and y.  The numerator s (R - y) (1 + x c) -
t c of Delta is an exact integer; its p-part is the valuation and its unit
times the inverse of t (1 + x c) mod p**N the unit.  So Delta is exact for
the stored factors and rounded once, N digits above its value; the chain
rounded each b_i at p**(valp(c) + N), up to level - valp(c) digits lower.
Shifting the center by eps in p**level Z_p moves coefficient j only at or
above val_C - level j + valp(eps) - level.  So Delta's rounding moves no
digit below val_C - level j + N, inside the contract below, and the digits
that differ from the chain's are the chain's own rounding.  The factors are
g's entries rounded to N relative digits, so against the entries Delta
still errs by up to p**(valp(c) + N), as the chain did.  They fix y modulo
p**(valp(y) + N) and c / (r (1 + x c)) modulo p**(valp(c) + N), also where
their stored digits read 1 or 0: a leaf at a level above either bound is
refused with a PrecisionError.

With x = 0 the leaf is one recenter of S by Delta and one scale_powers
pass multiplying a_l by r^l t^e.  With x != 0 the re-centring folds into
the mobius step, where it shifts only the leaf's own stored series: with
u = 1 - mu Delta,

    t^e G(Delta + r z') = (t u / (1 + x c))^e S(A + B w) (1 - mu' z')^e,
    w = z' / (1 - mu' z'),   A = lam Delta / u,   B = lam r / u^2,
    mu' = mu r / u,

so the leaf is one recenter of S by A, one twisted_mobius(., B, mu', e)
and, for e > 0, one scale.  valp(A) = valp(Delta) >= level, B is a unit
and valp(mu') = valp(x) >= 1; an exact polynomial of degree <= e stays
one.  valp(mu Delta) >= 1, so 1 + x c, u and every scalar above are units,
computed as (val, unit) pairs; t^(-1) and r^(-1) are inverted once per
action and 1 + x c and u once per leaf.

The image is cut at z^D once, by twisted_mobius, after the shift.  A route
that shifts the cut G drops the coefficients g_l, l > D, whose share of
z^j lies only (l - deg S)(valp(x) + level) digits above
val_C - level j: fewer than N for short S near D, so such a route can miss
the contract below.  In the fold every summand of the shift of S and of
the twisted sum for z^j has valuation >= val_C - level j (S(A + .) keeps
the Banach valuation of S and (mu' p**level)^q is integral).  Each
rounding, of Delta, of A, B and mu', errs N digits above its value, each
sum is exact modulo p**(its least summand valuation + N) (the precision
model of series.py) and unit scalings round nothing.  So coefficient j
agrees with the exact image modulo p**(val_C - level j + N - kappa) (the
precision contract; tests/test_actions.py checks it against the exact image
of tests/exact_image.py, computed from Fractions outside the library).

A TateSeries at level m is the one leaf (0, m): act admits it only for g
in G(m) (I(1) at m = 0), so R = 0 and Delta = -r y.  The generator chain
mobius_twist, dilate, inv_torus, translate cuts the mobius image before it
translates, so it can miss the contract where this route meets it.  Only a
mobius step expands the twist, so k - 2 > D is refused only when x != 0.

The w0 Weyl cell carries the action of the w0-conjugate matrix (swap
a <-> d and b <-> c); when the conjugate leaves the actionable range
(lower-left corner a unit) the cell reports a domain error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Union

from .errors import (DomainError, FactorizationError, InvariantViolation, ParameterError,
                     PrecisionError)
from .functions import (
    Leaf,
    LocallyAlgebraicFunction,
    PiecewiseFunction,
    StepFunction,
)
from .padic import Coercible, PadicContext, PadicNumber
from .series import TateSeries, twisted_mobius

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
        if k < 2:
            raise ParameterError(f"weight k must be >= 2, got {k}")
        if which not in ("alpha", "beta"):
            raise ParameterError(f"which must be 'alpha' or 'beta', got {which!r}")
        if alpha.is_zero or beta.is_zero:
            raise ParameterError("eigenvalues must be nonzero")
        self.alpha = alpha
        self.beta = beta
        self.k = k
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
        if level != I1 and (not isinstance(level, int) or level < 1):
            raise ParameterError(f"level must be 'I1' or an integer >= 1, got {level!r}")
        self.level = level
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
        if not self.ctx.same(other.ctx):
            raise ParameterError("matrices belong to different contexts")
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
            and (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        e = [x.to_string() for x in (self.a, self.b, self.c, self.d)]
        return f"IwahoriElement([[{e[0]}, {e[1]}], [{e[2]}, {e[3]}]], level={self.level!r})"


class Factorization(NamedTuple):
    y: PadicNumber
    s: PadicNumber
    t: PadicNumber
    x: PadicNumber


def iwahori_factorize(g: IwahoriElement) -> Factorization:
    """Unique lower/diagonal/upper factorization; needs a to be a unit."""
    if g.a.is_zero or g.a.val != 0:
        raise FactorizationError(
            f"upper-left entry must be a unit, valp(a) = {g.a.val}"
        )
    y = g.c / g.a
    s = g.a
    t = g.d - g.c * g.b / g.a
    x = g.b / g.a
    if t.is_zero or t.val != 0:
        raise FactorizationError("diagonal entry t = d - cb/a is not a unit")
    return Factorization(y, s, t, x)


@dataclass(frozen=True)
class WeylCellVector:
    """A pair of function models, one per Weyl cell of the induction."""

    identity: PiecewiseFunction
    w0: PiecewiseFunction

    def __post_init__(self):
        if not self.identity.ctx.same(self.w0.ctx):
            raise ParameterError("cells belong to different contexts")

    @property
    def ctx(self) -> PadicContext:
        return self.identity.ctx


# -- leafwise generator transforms -------------------------------------------


def _act_piecewise(ctx: PadicContext, leaves: Iterable[Leaf], fac: Factorization,
                   e: int) -> List[Leaf]:
    """The image of each leaf, in the given order; the caller builds the function."""
    y, s, t, x = fac
    if not x.is_zero and x.val < 1:
        raise DomainError(f"mobius parameter needs valp(x) >= 1, got {x.val}")
    p, N, pN, ppow = ctx.p, ctx.N, ctx.pN, ctx.ppow
    factor, ratio = t ** e, s / t
    su, tu, xv, xu = s.unit, t.unit, x.val, x.unit  # the stored factors; s and t are units
    x_int = xu * p ** xv if xu else 0
    y_int = y.unit * p ** y.val if y.unit else 0
    inv_t, inv_r = pow(tu, -1, pN), tu * pow(su, -1, pN) % pN
    out = []
    for lf in leaves:
        level, c, f = lf.level, lf.center, lf.series
        if level > N:  # the stored g fixes y and c / (r (1 + x c)) to N digits
            top = min(y.val, ctx.from_int(c).val) + N
            if level > top:
                raise PrecisionError(f"residue mod p^{level} exceeds stored precision p^{top}")
        one_plus = 1 + x_int * c
        inv_one_plus = pow(one_plus, -1, pN) if xu else 1
        center = (c * inv_r * inv_one_plus + y_int) % p ** level
        # Delta = (s (R - y) (1 + x c) - t c) / (t (1 + x c)), rounded once
        delta = ctx.from_int(su * (center - y_int) * one_plus - tu * c)
        dv, du = delta.val, delta.unit * inv_t * inv_one_plus % pN
        if not xu:
            delta = PadicNumber(ctx, dv, du, _checked=True)
            out.append(Leaf(center, level, f.recenter(delta, level).scale_powers(factor, ratio)))
            continue
        # the fold: (t u / (1 + x c))^e f(A + B z' / (1 - mu' z')) (1 - mu' z')^e
        one_plus %= pN
        lam = one_plus * one_plus % pN
        mu_unit = xu * one_plus % pN  # mu = x (1 + x c) = p**xv mu_unit
        # u = 1 - mu Delta; Delta = 0 gives du = 0, so u = 1 and A = 0
        u = (1 - mu_unit * du * ppow[xv + dv]) % pN if xv + dv < N else 1
        inv_u = pow(u, -1, pN) if u != 1 else 1
        a = PadicNumber(ctx, dv, lam * du * inv_u % pN, _checked=True)
        b = PadicNumber(ctx, 0, lam * ratio.unit * inv_u * inv_u % pN, _checked=True)
        mu_prime = PadicNumber(ctx, xv, mu_unit * ratio.unit * inv_u % pN, _checked=True)
        g = twisted_mobius(f.recenter(a, level), b, mu_prime, e)
        if e:
            g = g.scale(PadicNumber(ctx, 0, pow(tu * u * inv_one_plus, e, pN), _checked=True))
        out.append(Leaf(center, level, g))
    return out


# -- public actions -----------------------------------------------------------


def act(g: IwahoriElement, f, chi: InductionCharacter):
    """Left action of g on a TateSeries or a PiecewiseFunction.

    For a level-m series (m >= 1) the matrix must lie in G(m) so that
    every factorization parameter stays in the series' convergence
    range; level-0 series and piecewise functions accept all of I(1).
    """
    k = chi.k
    if isinstance(f, TateSeries):
        if f.m >= 1 and not g.satisfies_level(f.m):
            raise DomainError(
                f"acting on a level-{f.m} series needs a matrix in G({f.m})"
            )
        # G(m) puts every offset in p**m Z_p: the one leaf stays at (0, m)
        return _act_piecewise(f.ctx, [Leaf(0, f.m, f)], iwahori_factorize(g), k - 2)[0].series
    if isinstance(f, PiecewiseFunction):
        leaves = _act_piecewise(f.ctx, f.leaves, iwahori_factorize(g), k - 2)
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
    return StepFunction(f.ctx, _act_piecewise(f.ctx, f.leaves, iwahori_factorize(g), 0))


def act_locally_algebraic(
    g: IwahoriElement, f: LocallyAlgebraicFunction, chi: InductionCharacter
) -> LocallyAlgebraicFunction:
    """Action on leafwise polynomials of degree <= k - 2.

    The mobius substitution and the (1 - x z)^(k-2) twist cancel to a
    polynomial of the same bounded degree, which twisted_mobius keeps
    exact; any residual high coefficient trips an internal invariant error.
    """
    if chi.k != f.k:
        raise ParameterError(f"character weight {chi.k} differs from function weight {f.k}")
    leaves = _act_piecewise(f.ctx, f.leaves, iwahori_factorize(g), f.k - 2)
    for lf in leaves:
        if lf.series.degree > f.k - 2:
            raise InvariantViolation(
                f"degree {lf.series.degree} > k-2 after locally algebraic action"
            )
    return LocallyAlgebraicFunction(f.ctx, leaves, f.k)
