"""Exact bounded-precision arithmetic in Q_p.

A nonzero value is stored in capped-relative form p**val * unit where
the valuation is exact and the unit is an integer residue prime to p,
known modulo p**N.  Zero at working precision is val = +inf, unit = 0.
The context fixes the odd prime p, the relative precision N, the
truncation degree D used by series built on top of this module, and
the comparison slack kappa.

Valuations are normalised so that valp(p) = 1.

Every binomial coefficient is read from one table of p-adic factorials
(FactorialTable, which also keeps the kernel's outer rows): v_p(n!), the
p-free part of n! mod p**N and its inverse for n = 0 .. 2D, so
binom(n, k) = n! / (k! (n - k)!) costs two products.  Contexts with the same
(p, N, D) share one table, built once; a binomial with n > 2D is refused.

Every rounding of a (val, unit) pair in the library goes through three
functions: _normalised, the one place that strips p from a residue (one
division, else one gcd, as FLINT's padic_t strips it with one fmpz_remove);
_pair_sum, the sum rule of __add__ and __sub__ on flat pairs, which
TateSeries.__add__ runs coefficientwise; and _times_binom, a pair times a
binomial from the table.  Multiply, invert and pow stay PadicNumber methods:
no pair code calls them, so a pair function would only wrap its method.
Every comparison of stored digits (agrees_with, agrees_mod, compare_tracked,
the gluing test) reads one rule, _agreement, with x - y rounded by _pair_sum
exactly as __sub__ rounds it (identical pairs read an exact zero at once).

All values are immutable and every operation is pure, so objects can be
shared freely between threads.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Sequence, Tuple, Union

from .errors import DivisionError, DomainError, ParameterError, PrecisionError, _int_param
from .verdict import Verdict

INF = math.inf

Coercible = Union["PadicNumber", int, Fraction, str]

#: the (val, unit) pair of zero
_ZERO = (INF, 0)


#: the first 13 primes: as Miller-Rabin bases they decide primality
#: exactly for every n below _PRIME_LIMIT (Sorenson and Webster, 2015)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981

#: largest relative precision N: a context keeps p**0 .. p**(N-1), size ~ N**2
MAX_PRECISION = 1000

#: largest truncation degree D: shifts and orbit expansions cost O(D**2); factorials go to (2D)!
MAX_DEGREE = 1000


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n it cannot decide exactly."""
    if n >= _PRIME_LIMIT:
        raise ParameterError(f"cannot certify primality of p >= {_PRIME_LIMIT}")
    if n < 2 or any(n % q == 0 for q in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_valuation(n: int, p: int) -> int:
    """Exponent of p dividing the nonzero integer n."""
    if n == 0:
        raise ValueError("p-adic valuation of 0 is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


class FactorialTable:
    """v_p(n!), the p-free part of n! mod p**N and its inverse, n = 0 .. top,
    built once as tuples, and the series kernel's outer rows 1/v! and n!:
    rows (v, -v_p(v!), 1/unit(v!)), v = 0 .. top, and hrows (-n, v_p(n!),
    unit(n!)), n = top .. 0."""

    __slots__ = ("vals", "units", "invs", "rows", "hrows")

    def __init__(self, p: int, N: int, top: int):
        pN = p ** N
        v, u, vals, units, parts = 0, 1, [0], [1], []
        for n in range(1, top + 1):
            while n % p == 0:
                n //= p
                v += 1
            u = u * n % pN
            vals.append(v)
            units.append(u)
            parts.append(n)
        # one modular inverse, then 1/(n-1)! = n * (1/n!) downwards
        invs = [pow(u, -1, pN)]
        for n in reversed(parts):
            invs.append(invs[-1] * n % pN)
        self.vals, self.units, self.invs = tuple(vals), tuple(units), tuple(reversed(invs))
        self.rows = tuple(zip(range(top + 1), [-x for x in vals], self.invs))
        self.hrows = tuple(zip(range(-top, 1), vals[::-1], units[::-1]))


#: one table per (p, N, 2D): contexts with the same (p, N, D) share it
_factorial_table = lru_cache(maxsize=16)(FactorialTable)


class PadicContext:
    """Shared arithmetic parameters (p, N, D) plus the slack kappa.

    Two stored values are considered equal at precision when they share
    at least N - kappa relative digits; kappa is the budget that covers
    the precision loss of composite operations (default 4 digits).  It
    must lie in [0, N): at kappa = N the rule would ask for zero digits,
    and any two nonzero values would agree.
    ``ppow[d]`` is p**d for 0 <= d < N, and ``factorials`` is the
    FactorialTable for 0! .. (2D)! shared by every context with the same
    (p, N, D); every binomial coefficient is read from it.
    """

    __slots__ = ("p", "N", "D", "kappa", "pN", "ppow", "factorials")

    def __init__(self, p: int = 5, N: int = 40, D: int = 64, kappa: int = 4):
        _int_param("p", p)
        if not _is_prime(p) or p == 2:
            raise ParameterError(f"p must be an odd prime, got {p}")
        _int_param("precision N", N, 1, MAX_PRECISION)
        _int_param("truncation degree D", D, 0, MAX_DEGREE)
        _int_param("slack kappa", kappa, 0, N - 1)
        self.p = p
        self.N = N
        self.D = D
        self.kappa = kappa
        self.pN = p ** N
        self.ppow = tuple(p ** d for d in range(N))
        self.factorials = _factorial_table(p, N, 2 * D)

    # -- identity -----------------------------------------------------

    def same(self, other: "PadicContext") -> bool:
        return self is other or (self.p, self.N, self.D) == (other.p, other.N, other.D)

    def __eq__(self, other) -> bool:
        return isinstance(other, PadicContext) and self.same(other)

    def __hash__(self) -> int:
        return hash((self.p, self.N, self.D))

    def __repr__(self) -> str:
        return f"PadicContext(p={self.p}, N={self.N}, D={self.D}, kappa={self.kappa})"

    # -- element factories --------------------------------------------

    def zero(self) -> "PadicNumber":
        return PadicNumber(self, INF, 0, _checked=True)

    def one(self) -> "PadicNumber":
        return PadicNumber(self, 0, 1, _checked=True)

    def from_int(self, n: int) -> "PadicNumber":
        if n == 0:
            return self.zero()
        v = _int_valuation(n, self.p)
        u = (n // self.p ** v) % self.pN
        return PadicNumber(self, v, u, _checked=True)

    def from_fraction(self, q: Fraction) -> "PadicNumber":
        if q == 0:
            return self.zero()
        vn = _int_valuation(q.numerator, self.p)
        vd = _int_valuation(q.denominator, self.p)
        un = (q.numerator // self.p ** vn) % self.pN
        ud = q.denominator // self.p ** vd
        u = (un * pow(ud, -1, self.pN)) % self.pN
        return PadicNumber(self, vn - vd, u, _checked=True)

    def num(self, x: Coercible) -> "PadicNumber":
        """Coerce an int, Fraction, decimal/rational string or PadicNumber."""
        if isinstance(x, PadicNumber):
            if x.ctx is not self and not self.same(x.ctx):
                raise ParameterError("value belongs to a different context")
            return x
        if isinstance(x, bool):
            raise ParameterError("refusing to coerce a bool to Q_p")
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction):
            return self.from_fraction(x)
        if isinstance(x, str):
            try:
                q = Fraction(x)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParameterError(f"not a rational number: {x!r}") from exc
            return self.from_fraction(q)
        raise ParameterError(f"cannot coerce {type(x).__name__} to Q_p")

    def binom(self, n: int, k: int) -> "PadicNumber":
        """binom(n, k) reduced into the context, read from the factorial table
        with the corners of _times_binom."""
        return PadicNumber(self, *_times_binom(self, (0, 1), n, k), _checked=True)


class PadicNumber:
    """Immutable element of Q_p at the context's working precision."""

    __slots__ = ("ctx", "val", "unit")

    def __init__(self, ctx: PadicContext, val, unit: int, _checked: bool = False):
        if not _checked:
            val, unit = _normalised(ctx, val, unit)
        self.ctx, self.val, self.unit = ctx, val, unit

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.val is INF or self.val == INF

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        ctx = self.ctx
        if other.ctx is not ctx and not ctx.same(other.ctx):
            raise ParameterError("values belong to different contexts")
        return PadicNumber(ctx, *_pair_sum(ctx, self.val, self.unit, other.val, other.unit),
                           _checked=True)

    def __neg__(self) -> "PadicNumber":
        if self.is_zero:
            return self
        return PadicNumber(self.ctx, self.val, self.ctx.pN - self.unit, _checked=True)

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return self + (-other)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        if other.ctx is not self.ctx and not self.ctx.same(other.ctx):
            raise ParameterError("values belong to different contexts")
        if self.is_zero or other.is_zero:
            return self.ctx.zero()
        return PadicNumber(self.ctx, self.val + other.val,
                           self.unit * other.unit % self.ctx.pN, _checked=True)

    def invert(self) -> "PadicNumber":
        if self.is_zero:
            raise DivisionError("inverse of zero at working precision")
        return PadicNumber(
            self.ctx, -self.val, pow(self.unit, -1, self.ctx.pN), _checked=True
        )

    def __truediv__(self, other: "PadicNumber") -> "PadicNumber":
        return self * other.invert()

    def __pow__(self, e: int) -> "PadicNumber":
        if e == 0:
            return self.ctx.one()
        if self.is_zero:
            if e < 0:
                raise DivisionError("negative power of zero")
            return self
        # pow handles negative exponents via the modular inverse
        u = pow(self.unit, e, self.ctx.pN)
        return PadicNumber(self.ctx, self.val * e, u, _checked=True)

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other) -> bool:
        """Exact equality of the stored representation."""
        return (
            isinstance(other, PadicNumber)
            and self.ctx.same(other.ctx)
            and self.val == other.val
            and self.unit == other.unit
        )

    def __hash__(self) -> int:
        return hash((self.val, self.unit))

    def agrees_with(self, other: "PadicNumber") -> bool:
        """Equality at precision: the agreement rule with no ceilings, so
        x - y must vanish to min(val) + N - kappa, or to absolute depth
        N - kappa when one side is zero.  Refuses a value of another context."""
        if not self.ctx.same(other.ctx):
            raise ParameterError("values belong to different contexts")
        return _agreement(self.ctx, [(self.val, self.unit)], (),
                          [(other.val, other.unit)], ()) is Verdict.YES

    # -- conversions ----------------------------------------------------

    def to_fraction(self) -> Fraction:
        """Canonical rational representative p**val * unit."""
        if self.is_zero:
            return Fraction(0)
        if self.val >= 0:
            return Fraction(self.unit * self.ctx.p ** self.val)
        return Fraction(self.unit, self.ctx.p ** (-self.val))

    def to_string(self) -> str:
        """Decimal string of the canonical rational representative."""
        q = self.to_fraction()
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    def residue(self, level: int) -> int:
        """Canonical residue in [0, p**level) of an integral element."""
        if type(level) is not int or level < 0:  # leaf_at calls this once per leaf
            _int_param("level", level, 0)
        if self.is_zero:
            return 0
        if self.val < 0:
            raise DomainError("residue of a non-integral element")
        if level > self.val + self.ctx.N:
            raise PrecisionError(
                f"residue mod p^{level} exceeds stored precision p^{self.val + self.ctx.N}"
            )
        return (self.unit * self.ctx.p ** self.val) % self.ctx.p ** level

    def __repr__(self) -> str:
        if self.is_zero:
            return f"O({self.ctx.p}^{self.ctx.N})"
        return f"{self.unit}*{self.ctx.p}^{self.val} + O({self.ctx.p}^{self.val + self.ctx.N})"


# -- module-level operations -------------------------------------------


def _normalised(ctx: PadicContext, val, raw: int) -> Tuple[float, int]:
    """The (val, unit) pair of p**val * raw at relative precision N: raw is
    reduced modulo p**N, a unit is kept, one factor p (the commonest strip)
    is taken by one division, and otherwise p**v = gcd(raw, p**N) moves into
    val in one step (0 < raw < p**N, so v < N is the index of p**v in ppow);
    zero reads (INF, 0).  The one place that strips p from a residue."""
    raw %= ctx.pN
    if not raw:
        return _ZERO
    if raw % ctx.p:
        return val, raw
    r = raw // ctx.p
    if r % ctx.p:
        return val + 1, r
    g = math.gcd(raw, ctx.pN)
    return val + bisect_left(ctx.ppow, g), raw // g


def _pair_sum(ctx: PadicContext, vx, xu: int, vy, yu: int) -> Tuple[float, int]:
    """The pair of x + y, rounded as PadicNumber.__add__ rounds it: a zero
    side gives the other side, valuations N or more apart give the lower
    side (its unit is known only modulo p**N), and otherwise the lower
    side's unit plus the other's shifted onto it is normalised once."""
    if not xu:
        return vy, yu
    if not yu:
        return vx, xu
    if vy < vx:
        vx, xu, vy, yu = vy, yu, vx, xu
    d = vy - vx
    if d >= ctx.N:
        return vx, xu
    return _normalised(ctx, vx, xu + yu * ctx.ppow[d])


def _times_binom(ctx: PadicContext, a: Tuple[float, int], n: int, k: int) -> Tuple[float, int]:
    """The pair a times binom(n, k) from the factorial table, with the
    combinatorial corners: binom(n, 0) = 1 for every n (n = -1 too, the empty
    product), and binom(n, k) = 0 for k < 0 or k > n.  Past the corners, n
    must not exceed 2D, the top of the table."""
    v, u = a
    if k == 0 or not u:
        return a
    if k < 0 or k > n:
        return _ZERO
    t = ctx.factorials
    if n >= len(t.invs):
        raise ParameterError(f"binom({n}, {k}) needs n <= 2D = {len(t.invs) - 1}")
    return (v + t.vals[n] - t.vals[k] - t.vals[n - k],
            u * t.units[n] * t.invs[k] * t.invs[n - k] % ctx.pN)


def _agreement(ctx: PadicContext, xs: Sequence[Tuple[float, int]], xc: Sequence[float],
               ys: Sequence[Tuple[float, int]], yc: Sequence[float]) -> Verdict:
    """The agreement rule on coefficient lists: (val, unit) pairs xs, ys with
    absolute ceilings xc, yc; a missing pair reads zero, a missing ceiling
    +inf.  Two zeros agree.  Otherwise let dv be valp(x - y), read from
    _pair_sum with y's unit negated as -yu (identical pairs read +inf at once,
    as _pair_sum would round them), window the lesser ceiling and
    threshold = scale + N - kappa, scale the lesser valuation, or
    0 when one side is zero (a stored zero carries no scale of its own): NO
    when dv < min(window, threshold), INDETERMINATE when window < threshold,
    YES otherwise.  The first NO ends the fold; INDETERMINATE beats YES."""
    gap, ncx, ncy = ctx.N - ctx.kappa, len(xc), len(yc)
    out = Verdict.YES
    for v, ((vx, xu), (vy, yu)) in enumerate(zip_longest(xs, ys, fillvalue=_ZERO)):
        if xu and yu:
            threshold = (vx if vx < vy else vy) + gap
        elif xu or yu:
            threshold = gap
        else:
            continue
        window = xc[v] if v < ncx else INF
        if v < ncy and yc[v] < window:
            window = yc[v]
        dv = INF if xu == yu and vx == vy else _pair_sum(ctx, vx, xu, vy, -yu)[0]
        if dv < window and dv < threshold:
            return Verdict.NO
        if window < threshold:
            out = Verdict.INDETERMINATE
    return out


def valp(x: PadicNumber):
    """Normalised valuation, valp(p) = 1; +inf for zero at precision."""
    return x.val


def invert(x: PadicNumber) -> PadicNumber:
    return x.invert()


def binom(ctx: PadicContext, n: int, k: int) -> PadicNumber:
    return ctx.binom(n, k)


def padic_log(u: PadicNumber) -> PadicNumber:
    """Iwasawa logarithm of a 1-unit via the alternating series.

        log u = sum_{n>=1} (-1)^{n+1} x^n / n,   x = u - 1 = p^j t, j >= 1.

    The series is cut after the last n with n j - floor(log_p n) <= N + j - 1,
    so every omitted term has valuation N + j or more, beyond the N stored
    digits of log u (valuation j), and the digits are those of that exact
    partial sum x A / L, where L = lcm(1..n) and
    A = sum_{k=1..n} (-1)^{k+1} x^{k-1} L/k.  For odd p the k-th term of A
    has valuation v(L) + (k-1) j - v(k) > v(L) when k >= 2, so v(A) = v(L):
    log u has valuation j and unit t (A/p^v(L)) (L/p^v(L))^-1 mod p^N, which
    reads A only mod p^(v(L) + N).  So A is one Horner sum in that modulus,
    with v(L) = floor(log_p n).
    """
    ctx = u.ctx
    t = u - ctx.one()
    if t.is_zero:
        return ctx.zero()
    j = t.val
    if j < 1:
        raise DomainError(f"padic_log needs valp(u - 1) >= 1, got {j}")
    p, target = ctx.p, ctx.N + j - 1
    n, ilog = 1, 0  # the last kept index (the first term is always kept) and floor(log_p n)
    while True:
        up = ilog + 1 if p ** (ilog + 1) <= n + 1 else ilog
        # (n+1)*j - up bounds the next term's valuation from below and is
        # non-decreasing in n for j >= 1, so the first crossing is final
        if (n + 1) * j - up > target:
            break
        n, ilog = n + 1, up
    L = math.lcm(*range(1, n + 1))
    pv = p ** ilog  # the p-part of L
    modulus = pv * ctx.pN
    rep = t.unit * p ** j % modulus
    acc = 0
    for k in range(n, 0, -1):
        acc = (acc * rep + (L // k if k % 2 else -(L // k))) % modulus
    unit = t.unit * (acc // pv) * pow(L // pv, -1, ctx.pN)
    return PadicNumber(ctx, j, unit)
