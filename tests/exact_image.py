"""The exact image of a leaf under the twisted action: the one reference the
action tests hold act, act_cell, act_smooth, act_locally_algebraic and
twisted_mobius to.

No rigidpadic arithmetic is used.  Stored values are read through
to_fraction(), and g = [[1, 0], [y, 1]] [[s, 0], [0, t]] [[1, x], [0, 1]] is
read straight from g's entries: y = c/a, s = a, t = d - cb/a, x = b/a.  With
r = s/t and e = k - 2, g sends the leaf (c, h, S) to the leaf at the residue R
of (c / (1 + x c)) / r + y modulo p**h, and with u0 = r (R - y) and
D0 = 1 - x u0 its series is

    t^e S(Q(z')) (D0 - x r z')^e,   Q(z') = (u0 + r z') / (D0 - x r z') - c,

cut at z'^D.  The bare substitution S(lam z / (1 - mu z)) (1 - mu z)^e of
twisted_mobius is the same shape with u0 = 0, r = lam, D0 = 1, x r = mu,
c = 0 and t = 1.

The Fractions are turned into integers modulo p**M once.  S is first scaled
by p**K so that it is integral; every other quantity is p-integral with a
unit denominator, so the reduction is a ring map and the image is p**K times
the exact image modulo p**M.  The precision contract asks coefficient j to
agree with the exact image modulo p**(val_C - h j + N - kappa), and with
M = val_C + N + K + 1 every such digit lies below M.
"""

from fractions import Fraction
from typing import List, NamedTuple

from rigidpadic.padic import INF


class Image(NamedTuple):
    center: int
    level: int
    #: the source's Banach valuation, which the image keeps
    val_c: object
    #: the tail bound the library must report
    tail: object
    #: p**K times the image's z^0 .. z^D coefficients, modulo p**M
    coeffs: List[int]
    K: int
    M: object


def valuation(q, p):
    """v_p of an int or a Fraction; INF for 0."""
    if not q:
        return INF
    v, n, d = 0, q.numerator, q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _residue(q, p, h):
    """q modulo p**h in [0, p**h), for a p-integral rational q."""
    ph = p ** h
    return q.numerator * pow(q.denominator, -1, ph) % ph


def leaf_image(g, leaf, k, conjugate=False):
    """The exact image of leaf = (c, h, S) under g, or under w0 g w0 (a <-> d
    and b <-> c) when conjugate is set."""
    a, b, c_, d = (v.to_fraction() for v in (g.a, g.b, g.c, g.d))
    if conjugate:
        a, b, c_, d = d, c_, b, a
    y, s, t, x = c_ / a, a, d - c_ * b / a, b / a
    r, e, c, h = s / t, k - 2, leaf.center, leaf.level
    p = leaf.series.ctx.p
    center = _residue(c / (1 + x * c) / r + y, p, h)
    u0 = r * (center - y)
    d0 = 1 - x * u0
    return _image(leaf.series, center, u0, r, d0, -x * r, c, t ** e, e, moved=bool(x))


def twisted_image(series, lam, mu, e):
    """The exact S(lam z / (1 - mu z)) (1 - mu z)^e on series' ball."""
    return _image(series, 0, 0, lam.to_fraction(), 1, -mu.to_fraction(), 0, 1, e, moved=True)


def _image(series, center, alpha, beta, gamma, delta, shift, tau, e, moved):
    """tau S((alpha + beta z) / (gamma + delta z) - shift) (gamma + delta z)^e
    cut at z^D, for a unit gamma.  moved: the substitution is not affine
    (x != 0), so the tail becomes INF for an exact S of degree <= e and
    val_C(S) otherwise; an affine one keeps the source tail."""
    ctx, h = series.ctx, series.m
    p, D = ctx.p, ctx.D
    source = [a.to_fraction() for a in series.coeffs]
    vals = [valuation(a, p) for a in source]
    val_c = min([v + h * l for l, v in enumerate(vals) if v is not INF] + [series.tail_bound])
    if not moved:
        tail = series.tail_bound
    elif series.tail_bound is INF and len(source) - 1 <= e:
        tail = INF
    else:
        tail = val_c
    if val_c is INF:
        return Image(center, h, val_c, tail, [0] * (D + 1), 0, INF)
    K = max(0, -min(v for v in vals if v is not INF)) if source else 0
    M = val_c + ctx.N + K + 1
    pM = p ** M

    def reduce(q):
        q = Fraction(q)
        return q.numerator * pow(q.denominator, -1, pM) % pM

    al, be, ga, de, sh, ta = map(reduce, (alpha, beta, gamma, delta, shift, tau))
    ga_inv = pow(ga, -1, pM)

    def times_q(u):
        # w = u (alpha + beta z) / (gamma + delta z), one term at a time from
        # w (gamma + delta z) = u (alpha + beta z); then u Q = w - shift u
        out, w, prev = [], 0, 0
        for j in range(D + 1):
            w = (al * u[j] + be * prev - de * w) * ga_inv % pM
            out.append((w - sh * u[j]) % pM)
            prev = u[j]
        return out

    acc = [0] * (D + 1)
    for a in reversed(source):
        acc = times_q(acc)
        acc[0] = (acc[0] + reduce(a * p ** K)) % pM
    for _ in range(e):
        acc = [(ga * acc[j] + (de * acc[j - 1] if j else 0)) % pM for j in range(D + 1)]
    return Image(center, h, val_c, tail, [ta * a % pM for a in acc], K, M)


def assert_meets_contract(out, image):
    """out, a TateSeries, is the image: its level, val_C and tail are the
    image's, and its coefficient j agrees with the exact one modulo
    p**(val_C - h j + N - kappa) for every j <= D."""
    ctx = out.ctx
    assert out.m == image.level
    assert out.tail_bound == image.tail
    assert out.val_c() == image.val_c
    p, K = ctx.p, image.K
    for j, want in enumerate(image.coeffs):
        need = image.val_c - image.level * j + ctx.N - ctx.kappa
        # p**K a_j - want = diff / den, and want is p**K times the exact
        # coefficient modulo p**M, where M >= need + K
        a = out.coeff(j).to_fraction()
        den = a.denominator
        diff = a.numerator * p ** K - want * den
        gap = valuation(diff, p) - valuation(den, p) - K
        assert gap >= need, (j, gap, need)
