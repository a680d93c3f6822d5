"""Truncated rigid analytic series on the balls p**m Z_p.

A TateSeries holds coefficients a_0 .. a_deg (deg <= D) of a function

    f(z) = sum_l a_l z^l,   z in p**m Z_p,

together with a tail certificate, which covers every coefficient past the
stored ones: valp(a_l) + m*l >= tail_bound for l > deg.  The stored ones
end at z^D at the latest, and earlier for an image of the twisted sums
below.  A finite tail_bound records honest ignorance about truncated data;
+inf asserts that the series is exactly the stored polynomial.

The Banach valuation on the ball is

    val_C(f) = inf_l { valp(a_l) + m*l },

computed over the stored part and capped by the tail certificate.  It
equals the sup-norm valuation of f on the ball.

A matrix acts through actions.act, which reads its Mobius map from the
entries.  The substitutions kept here are translate f(z - y), raw_mobius
f(z/(1 - x z)) and mobius_twist f(z/(1 - x z)) (1 - x z)^(k-2); each records
a new tail certificate derived from the input's certificate and preserves
val_C exactly (they are invertible isometries of the ball).  scale,
negation and the leafwise action's last step share one unit-scaling loop
on (val, unit) pairs, _scaled: a_l -> a_l c ratio^l for a unit ratio, one
unit product mod p**N per coefficient; it moves the tail bound by valp(c).

Precision model (Caruso, "Computations with p-adic numbers",
arXiv:1701.06794): a coefficient is stored capped-relative, p**val * unit
with the unit known modulo p**N.  Every sum of products in series algebra is
one operation at one absolute working precision, run on (val, unit) integer
pairs by one kernel, _offset_sums, which rounds each output once through
padic._normalised: the Taylor shift b_v = sum_{l>=v} a_l binom(l, v) c^(l-v)
behind translate, recenter, the leafwise action, functions._re_expand and
functions._restrict (which reuses the source row of _shift_source and the
power row of _shift_powers across shifts), the sum of evaluate_tracked, the
products of __mul__ and the two sums of _twisted_sums below.  A summand is a
product of stored values, so it is known modulo p**(its valuation + N).  Let
floor be the least summand valuation of a sum: the kernel adds the summands
exactly modulo p**(floor + N), multiplies by the output's outer factor once
and rounds once.  So a stored sum is the exact sum of its summands reduced modulo
p**(floor + N), its unit has no nonzero digit at or above floor + N, and
floor + N is the ceiling evaluate_tracked and functions._re_expand report.
An exact sum does not depend on the order of its summands.  Binomials are
split over the context's factorial table; their units are residues modulo
p**N, which changes a summand only at or above its valuation plus N.
The kernel reads and returns (val, unit) integer pairs, (INF, 0) for zero.
They are also the stored form: TateSeries.pairs, up to the last nonzero
one, made by the constructor's one coercion or taken from the kernel as
they are by _from_pairs.  coeffs and coeff(l) are read-only views that make
PadicNumbers when read.  Comparisons allocate no value: agrees_with,
agrees_mod and functions.is_member_Can read pairs through the one
agreement rule of padic._agreement and the sum rule padic._pair_sum, which
__add__ and __sub__ run coefficientwise.

_twisted_sums is the one routine for every Mobius substitution
S(lam z / (1 - mu z)) (1 - mu z)^e.  It reads and returns (val, unit) pairs:
the leafwise action calls it on the pairs of its Taylor shift, and
twisted_mobius, behind raw_mobius and mobius_twist, makes a series of its
output.  It sets the tail bound itself: +inf when S is exact of degree
<= e, whose image is then an exact polynomial of degree <= e, and val_C(S)
otherwise.  Its outputs split at j = e: c_j draws on
a_l with l <= e for j <= e, and with l > e for j > e.  It rounds each c_j
once, where the product of the untwisted substitution and the twist rounds
two sums for deg S > e >= 1.  Every summand of c_j has valuation
>= val_C - m j, so c_j agrees with the exact image modulo
p**(val_C - m j + N), inside N - kappa (tests/test_series.py checks it
against the exact image of tests/exact_image.py).  For valp(mu) >= 1 the
least summand valuation of c_j, j > e, has a lower bound that rises with j,
and c_j is not made once that bound reaches max(val_C, 0) + N: such a c_j
has no digit below the stored precision of any value the image takes on
its ball, and the tail certificate covers every coefficient past the
stored ones.
"""

from __future__ import annotations

from itertools import accumulate, zip_longest
from typing import Iterable, List, Sequence, Tuple

from .errors import DomainError, ParameterError, _int_param
from .padic import (_ZERO, INF, Coercible, PadicContext, PadicNumber, _agreement,
                    _normalised, _pair_sum, _same_context)
from .verdict import Verdict


class TateSeries:
    __slots__ = ("ctx", "m", "pairs", "tail_bound")

    def __init__(
        self,
        ctx: PadicContext,
        m: int,
        coeffs: Sequence[Coercible] = (),
        tail_bound=INF,
    ):
        _int_param("ball level m", m, 0)
        pairs = [(c.val, c.unit) if c.unit else _ZERO for c in map(ctx.num, coeffs)]
        if len(pairs) > ctx.D + 1:
            raise ParameterError(
                f"series of degree {len(pairs) - 1} exceeds truncation degree D={ctx.D}")
        if tail_bound != INF:
            _int_param("tail bound", tail_bound)
        self._store(ctx, m, pairs, tail_bound)

    @classmethod
    def _from_pairs(
        cls, ctx: PadicContext, m: int, pairs: Sequence[Tuple[float, int]], tail_bound=INF
    ) -> "TateSeries":
        """The series of the (val, unit) pairs of _offset_sums, at most D + 1
        of them on a valid level m, stored as they are, unchecked."""
        self = cls.__new__(cls)
        self._store(ctx, m, pairs, tail_bound)
        return self

    def _store(self, ctx: PadicContext, m: int, pairs: Sequence[Tuple[float, int]],
               tail_bound) -> None:
        """The one store: the pairs up to the last nonzero one, and a tail
        bound equal to +inf as INF itself (inf + 7 is not INF)."""
        n = len(pairs)
        while n and not pairs[n - 1][1]:
            n -= 1
        self.ctx = ctx
        self.m = m
        self.pairs = tuple(pairs[:n])
        self.tail_bound = INF if tail_bound == INF else tail_bound

    # -- basics ---------------------------------------------------------

    @classmethod
    def zero(cls, ctx: PadicContext, m: int) -> "TateSeries":
        return cls(ctx, m, ())

    @classmethod
    def constant(cls, ctx: PadicContext, m: int, c: Coercible) -> "TateSeries":
        return cls(ctx, m, (c,))

    @classmethod
    def monomial(cls, ctx: PadicContext, m: int, degree: int, c: Coercible = 1) -> "TateSeries":
        return cls(ctx, m, (0,) * _int_param("monomial degree", degree, 0, ctx.D) + (c,))

    @property
    def degree(self) -> int:
        """Index of the last nonzero stored coefficient; -1 for zero."""
        return len(self.pairs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.pairs and self.tail_bound is INF

    @property
    def coeffs(self) -> Tuple[PadicNumber, ...]:
        """The stored coefficients as PadicNumbers, made when read."""
        return tuple([PadicNumber(self.ctx, v, u, _checked=True) for v, u in self.pairs])

    def coeff(self, l: int) -> PadicNumber:
        if 0 <= l < len(self.pairs):
            return PadicNumber(self.ctx, *self.pairs[l], _checked=True)
        return self.ctx.zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TateSeries)
            and self.ctx.same(other.ctx)
            and self.m == other.m
            and self.pairs == other.pairs
            and self.tail_bound == other.tail_bound
        )

    def __hash__(self) -> int:
        # a PadicNumber hashes as its (val, unit) tuple, so this is the hash
        # of (m, coeffs, tail_bound)
        return hash((self.m, self.pairs, self.tail_bound))

    def agrees_with(self, other: "TateSeries") -> bool:
        """Coefficientwise equality at precision on a common ball level: the
        agreement rule of padic._agreement, with no ceilings."""
        return self._level_matches(other) and _agreement(
            self.ctx, self.pairs, (), other.pairs, ()) is Verdict.YES

    def agrees_mod(self, other: "TateSeries", exponent: int) -> bool:
        """Coefficientwise congruence mod p**exponent (absolute cutoff), each
        difference rounded as padic._pair_sum rounds it.

        Composite substitutions truncated at degree D leave residue of
        bounded absolute size, independent of how small the individual
        coefficients are; comparing composite routes therefore needs an
        absolute threshold rather than a relative one.
        """
        return self._level_matches(other) and all(
            _pair_sum(self.ctx, vx, xu, vy, -yu)[0] >= exponent
            for (vx, xu), (vy, yu) in zip_longest(self.pairs, other.pairs, fillvalue=_ZERO))

    def __repr__(self) -> str:
        terms = [(l, c.to_string()) for l, c in enumerate(self.coeffs) if c.unit]
        body = " + ".join(s if l == 0 else f"({s})*z" + (f"^{l}" if l > 1 else "")
                          for l, s in terms) or "0"
        tb = "inf" if self.tail_bound is INF else str(self.tail_bound)
        return f"TateSeries(m={self.m}, {body}, tail>={tb})"

    # -- valuations -------------------------------------------------------

    def stored_val_c(self):
        """min over stored coefficients of valp(a_l) + m*l; +inf if none."""
        return min((v + self.m * l for l, (v, u) in enumerate(self.pairs) if u), default=INF)

    def val_c(self):
        """Banach valuation: stored minimum capped by the tail certificate."""
        return min(self.stored_val_c(), self.tail_bound)

    def suffix_levels(self):
        """suffix_levels()[v] = min over stored l >= v of valp(a_l) + m*l.

        Length degree + 2; the last entry is +inf (empty suffix).
        """
        levels = [v + self.m * l if u else INF for l, (v, u) in enumerate(self.pairs)]
        return list(accumulate(reversed(levels), min, initial=INF))[::-1]

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "TateSeries") -> "TateSeries":
        self._match(other)
        ctx = self.ctx
        cs = [_pair_sum(ctx, vx, xu, vy, yu)
              for (vx, xu), (vy, yu) in zip_longest(self.pairs, other.pairs, fillvalue=_ZERO)]
        return TateSeries._from_pairs(ctx, self.m, cs, min(self.tail_bound, other.tail_bound))

    def __neg__(self) -> "TateSeries":
        return TateSeries._from_pairs(self.ctx, self.m, _negated(self.ctx, self.pairs),
                                      self.tail_bound)

    def __sub__(self, other: "TateSeries") -> "TateSeries":
        return self + (-other)

    def scale(self, c: Coercible) -> "TateSeries":
        """c f: a_l -> a_l c, and self itself for c = 1."""
        c = self.ctx.num(c)
        if c.is_zero:
            return TateSeries.zero(self.ctx, self.m)
        if c.val == 0 and c.unit == 1:
            return self
        cs = _scaled(self.ctx, self.pairs, (c.val, c.unit), (0, 1))
        tb = INF if self.tail_bound is INF else self.tail_bound + c.val
        return TateSeries._from_pairs(self.ctx, self.m, cs, tb)

    def __mul__(self, other: "TateSeries") -> "TateSeries":
        self._match(other)
        ctx = self.ctx
        top = min(ctx.D, self.degree + other.degree)
        # c_n = sum_i a_i b_(n-i): other is the source indexed from the top
        # (l = top - j, v = top - n), so that i = l - v, and self, padded
        # with zeros, is the kernel
        src = [(top - j, v, u)
               for j, (v, u) in reversed(list(enumerate(other.pairs[:top + 1]))) if u]
        ker = list(self.pairs[:top + 1]) + [_ZERO] * (top - self.degree)
        cs = _offset_sums(ctx, src, ker, [(v, 0, 1) for v in range(top + 1)])[0][::-1]
        exact = (
            self.tail_bound is INF
            and other.tail_bound is INF
            and self.degree + other.degree <= ctx.D
        )
        tb = INF if exact else self.val_c() + other.val_c()
        return TateSeries._from_pairs(ctx, self.m, cs, tb)

    def _level_matches(self, other: "TateSeries") -> bool:
        """Whether other lies on self's ball level; refuses another context."""
        _same_context("series", self.ctx, other.ctx)
        return self.m == other.m

    def _match(self, other: "TateSeries") -> None:
        if not self._level_matches(other):
            raise DomainError(f"ball levels differ: {self.m} vs {other.m}")

    # -- substitutions ------------------------------------------------------

    def translate(self, y: Coercible) -> "TateSeries":
        """f(z) -> f(z - y) for y in p**m Z_p; coefficients
        b_v = sum_{l >= v} a_l binom(l, v) (-y)^(l-v)."""
        ctx = self.ctx
        y = ctx.num(y)
        if y.is_zero:
            return self
        if y.val < self.m:
            raise DomainError(f"translation step needs valp(y) >= {self.m}, got {y.val}")
        cs, _ = _taylor_shift(ctx, self.pairs, (y.val, ctx.pN - y.unit))
        # omitted b_v, v > D, draw only on omitted a_l, so the input
        # certificate carries over unchanged
        return TateSeries._from_pairs(ctx, self.m, cs, self.tail_bound)

    def raw_mobius(self, x: Coercible) -> "TateSeries":
        """Untwisted substitution f(z) -> f(z / (1 - x z)), valp(x) >= 1."""
        ctx = self.ctx
        x = ctx.num(x)
        if x.is_zero:
            return self
        if x.val < 1:
            raise DomainError(f"mobius parameter needs valp(x) >= 1, got {x.val}")
        return twisted_mobius(self, ctx.one(), x, 0)

    def mobius_twist(self, x: Coercible, k: int) -> "TateSeries":
        """Unipotent action f(z) -> f(z / (1 - x z)) * (1 - x z)^(k - 2).

        Needs valp(x) >= max(1, m) and a weight k in [2, D + 2].
        """
        ctx = self.ctx
        x = ctx.num(x)
        _int_param("weight k", k, 2, ctx.D + 2)
        if x.is_zero:
            return self
        if x.val < max(1, self.m):
            raise DomainError(
                f"mobius parameter needs valp(x) >= {max(1, self.m)}, got {x.val}"
            )
        return twisted_mobius(self, ctx.one(), x, k - 2)

    def recenter(self, a: Coercible, new_m: int) -> "TateSeries":
        """Re-expansion around a: g(z') = f(a + z') on the ball p**new_m Z_p.

        Needs a in p**m Z_p and new_m >= m; coefficients
        b_v = sum_{l >= v} a_l binom(l, v) a^(l-v).
        """
        ctx = self.ctx
        a = ctx.num(a)
        if new_m < self.m:
            raise DomainError(f"recenter target level {new_m} below source level {self.m}")
        if not a.is_zero and a.val < self.m:
            raise DomainError(f"recenter offset needs valp(a) >= {self.m}, got {a.val}")
        if a.is_zero:
            return TateSeries._from_pairs(ctx, new_m, self.pairs, self.tail_bound)
        cs, _ = _taylor_shift(ctx, self.pairs, (a.val, a.unit))
        return TateSeries._from_pairs(ctx, new_m, cs, self.tail_bound)

    def evaluate(self, z: Coercible) -> PadicNumber:
        """Value at z in p**m Z_p, the first part of evaluate_tracked.

        For a finite tail certificate the omitted terms contribute an
        error of valuation >= tail_bound.
        """
        return self.evaluate_tracked(z)[0]

    def evaluate_tracked(self, z: Coercible) -> Tuple[PadicNumber, float]:
        """Evaluation plus its absolute reliability ceiling: each term a_l z^l
        is known modulo p**(val + N), so the sum is known below its least term
        valuation plus N (+inf when no term is nonzero)."""
        ctx = self.ctx
        z = ctx.num(z)
        if not z.is_zero and z.val < self.m:
            raise DomainError(f"evaluation point needs valp(z) >= {self.m}")
        if z.is_zero:
            a = self.coeff(0)
            return a, INF if a.is_zero else a.val + ctx.N
        # the single output v = 0 of the kernel with ker[l] = z^l
        pN, zu = ctx.pN, z.unit
        zl = [(0, 1)]
        for l in range(1, len(self.pairs)):
            zl.append((l * z.val, zl[-1][1] * zu % pN))
        src = [(l, v, u) for l, (v, u) in enumerate(self.pairs) if u]
        ((val, unit),), (floor,) = _offset_sums(ctx, src, zl, [(0, 0, 1)])
        total = PadicNumber(ctx, val, unit, _checked=True) if unit else ctx.zero()
        return total, floor + ctx.N


def twisted_mobius(f: TateSeries, lam: PadicNumber, mu: PadicNumber, e: int) -> TateSeries:
    """S(lam z / (1 - mu z)) (1 - mu z)^e on f's ball, for S = f, lam != 0
    and 0 <= e <= D: _twisted_sums on f's pairs, whose tail certificate
    covers every coefficient past the stored ones."""
    cs, tail = _twisted_sums(f.ctx, f.m, f.pairs, f.tail_bound,
                             (lam.val, lam.unit), (mu.val, mu.unit), e)
    return TateSeries._from_pairs(f.ctx, f.m, cs, tail)


def _twisted_sums(ctx: PadicContext, m: int, coeffs: Sequence[Tuple[float, int]], tail_bound,
                  lam: Tuple[float, int], mu: Tuple[float, int],
                  e: int) -> Tuple[List[Tuple[float, int]], float]:
    """The (val, unit) pairs and the tail bound of twisted_mobius for S given
    by its pairs coeffs (no trailing zero) on the ball p**m Z_p:

        c_j = sum_{l <= j} a_l lam^l binom(e - l, j - l) (-mu)^(j - l).
    The zero series gives no pair and its own tail bound, with no kernel
    call.  The outer rows are read from the factorial table: rows[:e + 1]
    for j <= e, the last top - e hrows for e < j <= top, with a_l at
    e + 1 - l.  top is D, or for valp(mu) >= 1 the last j whose summand
    bound lo + j valp(mu) lies below max(val_C, 0) + N, where
    lo = min_l (valp(a_l lam^l / (l - e - 1)!) - l valp(mu)).  Each c_j past
    top has every summand at or above max(val_C, 0) + N, and the tail
    certificate covers every coefficient past the stored ones.
    """
    _int_param("twist exponent", e, 0, ctx.D)
    if not coeffs:
        return [], tail_bound
    pN, fac, (lam_v, lam_u), (mu_v, mu_u) = ctx.pN, ctx.factorials, lam, mu
    fvals, finvs = fac.vals, fac.invs
    deg = len(coeffs) - 1
    lam_l = _unit_powers(lam_u, deg + 1, pN)
    # j <= e: binom(e - l, q) = (e - l)! / (q! (e - j)!), q = j - l.  The
    # source (-mu)^q / q! is indexed from the top, l' = e - q and v = e - j,
    # so that l = l' - v; a_l lam^l (e - l)! is the kernel and 1 / (e - j)!
    # the outer factor.  q = 0 is (e, 0, 1)
    neg_mu_q = _unit_powers(pN - mu_u, e + 1, pN)
    src = [(e - q, q * mu_v - fvals[q], neg_mu_q[q] * finvs[q] % pN)
           for q in range(e if mu_u else 0, 0, -1)] + [(e, 0, 1)]
    ker = [(v + l * lam_v + fvals[e - l], u * lam_l[l] * fac.units[e - l] % pN)
           for l, (v, u) in enumerate(coeffs[:e + 1])] + [_ZERO] * (e + 1 - len(coeffs))
    low = _offset_sums(ctx, src, ker, fac.rows[:e + 1])[0][::-1]
    tail = INF if deg <= e and tail_bound is INF else min(
        [v + m * l for l, (v, u) in enumerate(coeffs) if u] + [tail_bound])
    if deg <= e:
        return low, tail
    # j > e: binom(e - l, q) = (-1)^q (j - e - 1)! / (q! (l - e - 1)!).  The
    # source a_l lam^l / (l - e - 1)! sits at l' = e + 1 - l and c_j at
    # v = -n, n = j - e - 1, so that q = l' - v; mu^q / q! is the kernel and
    # the hrows row (-n, v_p(n!), unit(n!)) the outer factor n!
    src = [(e + 1 - l, v + l * lam_v - fvals[l - e - 1], u * lam_l[l] * finvs[l - e - 1] % pN)
           for l, (v, u) in reversed(list(enumerate(coeffs))) if l > e and u]
    # with w_l the valuation of source row l, a summand of c_j lies at
    # w_l + q v(mu) + v_p(n!) - v_p(q!) >= lo + j v(mu), since n >= q; the
    # bound rises with j for v(mu) >= 1, and past top it is max(val_C, 0) + N
    # or more
    top = ctx.D
    if src and mu_u and mu_v > 0:
        lo = min(w - (e + 1 - lp) * mu_v for lp, w, _ in src)
        top = min(top, -((lo - max(tail, 0) - ctx.N) // mu_v) - 1)
    if top <= e:
        return low, tail
    mu_q = _unit_powers(mu_u, top - e, pN)
    ker = [(0, 1)] + [(q * mu_v - fvals[q], mu_q[q] * finvs[q] % pN)
                      for q in range(1, top - e)]
    outs = fac.hrows[len(fac.hrows) - (top - e):]
    return low + _offset_sums(ctx, src, ker, outs)[0][::-1], tail


def _taylor_shift(ctx: PadicContext, coeffs: Sequence[Tuple[float, int]],
                  c: Tuple[float, int]) -> Tuple[List[Tuple[float, int]], List[float]]:
    """The Taylor shift b_v = sum_{l >= v} a_l binom(l, v) c^(l-v) for the
    (val, unit) pairs coeffs of a_l and the pair c != 0: _offset_sums on the
    rows of _shift_source and _shift_powers.

    Returns (b, floors): b[v] is the (val, unit) pair of _offset_sums and
    floors[v] the least valuation of the nonzero summands of b_v (+inf
    when there are none).  A constant is its own shift, with no kernel call.
    """
    if len(coeffs) == 1:
        return list(coeffs), [coeffs[0][0]]
    # binom(l, v) c^(l-v) = l! (c^k / k!) (1 / v!), k = l - v: the source
    # row depends only on the series, the power row only on the offset c
    n = len(coeffs)
    return _offset_sums(ctx, _shift_source(ctx, coeffs), _shift_powers(ctx, c, n),
                        ctx.factorials.rows[:n])


def _shift_source(ctx: PadicContext, coeffs: Sequence[Tuple[float, int]]) -> List[tuple]:
    """The source row of a Taylor shift: (l, a_l l!) for each nonzero a_l."""
    pN, fac = ctx.pN, ctx.factorials
    return [(l, v + fac.vals[l], u * fac.units[l] % pN) for l, (v, u) in enumerate(coeffs) if u]


def _shift_powers(ctx: PadicContext, c: Tuple[float, int], n: int) -> List[Tuple[float, int]]:
    """The power row of a Taylor shift by the pair c: c^k / k! for k < n."""
    pN, fac, (cv, cu) = ctx.pN, ctx.factorials, c
    return [(k * cv - fac.vals[k], u * fac.invs[k] % pN)
            for k, u in enumerate(_unit_powers(cu, n, pN))]


def _scaled(ctx: PadicContext, coeffs: Sequence[Tuple[float, int]], c: Tuple[float, int],
            ratio: Tuple[float, int]) -> List[Tuple[float, int]]:
    """The pairs of a_l c ratio^l for the pairs coeffs of a_l, c != 0 and a
    unit ratio: one unit product mod p**N per coefficient, no rounding."""
    if ratio[0] != 0:
        raise DomainError("variable scaling needs a unit factor")
    pN, (cv, u), out = ctx.pN, c, []
    for v, a in coeffs:
        out.append((v + cv, a * u % pN) if a else _ZERO)
        u = u * ratio[1] % pN
    return out


def _negated(ctx: PadicContext, pairs: Sequence[Tuple[float, int]]) -> List[Tuple[float, int]]:
    """The pairs of -a_l, by _scaled with c = -1."""
    return _scaled(ctx, pairs, (0, ctx.pN - 1), (0, 1))


def _unit_powers(u: int, n: int, pN: int) -> List[int]:
    """u**k mod pN for k = 0 .. n - 1, each by one product with the last."""
    out = [1]
    for _ in range(n - 1):
        out.append(out[-1] * u % pN)
    return out[:n]


def _offset_sums(
    ctx: PadicContext,
    src: Sequence[Tuple[int, int, int]],
    ker: Sequence[Tuple[int, int]],
    outs: Iterable[Tuple[int, int, int]],
) -> Tuple[List[Tuple[float, int]], List[float]]:
    """For each output (v, outer_val, outer_unit), the sum over source pairs
    (l, w, u) with l >= v of the summands (w, u) * ker[l - v], times outer.

    src holds the nonzero source pairs by ascending l, outs runs by ascending
    v and ker[k] is a (val, unit) pair.  Each sum is exact modulo
    p**(floor + N), floor its least summand valuation; the outer unit
    multiplies it once and the result is rounded once.  A summand at or
    above the running floor plus N is skipped, since the floor can only
    fall.  Returns (sums, floors): sums[i] is output i as a (val, unit) pair,
    (INF, 0) when it is zero, and floors[i] its floor, outer_val included
    (+inf when it has no summand).
    """
    N, ppow = ctx.N, ctx.ppow
    out: List[Tuple[float, int]] = []
    floors: List[float] = []
    start = 0
    for v, ov, ou in outs:
        while start < len(src) and src[start][0] < v:
            start += 1
        floor, acc = INF, 0  # acc * p**floor is the sum so far
        for l, w, au in src[start:]:
            kv, ku = ker[l - v]
            tv = w + kv
            if tv < floor:
                d = floor - tv
                acc = acc * ppow[d] + au * ku if d < N else au * ku
                floor = tv
            elif tv - floor < N:
                acc += au * ku * ppow[tv - floor]
        val = floor + ov if floor < INF else INF
        floors.append(val)
        out.append(_normalised(ctx, val, acc * ou))
    return out, floors
