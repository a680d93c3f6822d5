"""Canonical JSON formats for every value the command line exchanges.

Files carry an envelope {"context": {p, N, D, kappa}, "kind": ...,
"payload": ...}.  Serialization is canonical: sorted keys, two-space
indent, one trailing newline, numbers rendered as exact rational
decimal strings.  Canonical form makes reports diffable and lets the
round-trip property (emit, re-parse, compare equal) hold byte for byte.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional, Tuple

from .actions import InductionCharacter, IwahoriElement, I1, WeylCellVector
from .analytic import CokernelElement, GAElement
from .errors import ParameterError, ParameterMismatch, _int_param
from .functions import Leaf, PiecewiseFunction
from .galois import SCRIPT_L_INF, ContinuousCharacter, TriangulineParam
from .padic import INF, PadicContext, PadicNumber
from .series import TateSeries


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def context_header(ctx: PadicContext) -> dict:
    return {"p": ctx.p, "N": ctx.N, "D": ctx.D, "kappa": ctx.kappa}


def _field(obj: dict, key: str, kind: type = int):
    """obj[key], which must be a JSON integer (not a bool) or, with
    kind=list, a JSON array."""
    value = obj[key]
    if kind is int:
        return _int_param(repr(key), value)
    if isinstance(value, list):
        return value
    raise ParameterError(f"{key!r} must be an array, got {value!r}")


@contextmanager
def _malformed(what: str):
    """A missing or ill-typed field inside the block becomes the
    ParameterError "bad <what>: <error>"; nested decoders prefix theirs."""
    try:
        yield
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"bad {what}: {exc}") from exc


def context_from_header(header: dict, kappa: Optional[int] = None) -> PadicContext:
    """The header's context; a given kappa (the caller's run-time slack)
    replaces the header's, which is then only type-checked."""
    with _malformed("context header"):
        stored = _field(header, "kappa") if "kappa" in header else 4
        return PadicContext(
            p=_field(header, "p"),
            N=_field(header, "N"),
            D=_field(header, "D"),
            kappa=stored if kappa is None else kappa,
        )


# -- scalars -------------------------------------------------------------------


def encode_padic(x: PadicNumber) -> str:
    return x.to_string()


def decode_padic(ctx: PadicContext, s) -> PadicNumber:
    if not isinstance(s, str):
        raise ParameterError(f"expected a rational string, got {type(s).__name__}")
    return ctx.num(s)


def _encode_tail(t) -> object:
    return "inf" if t is INF else int(t)


def _decode_tail(t):
    return INF if t == "inf" else _int_param("tail bound", t)


# -- series and functions ------------------------------------------------------


def encode_series(f: TateSeries) -> dict:
    return {
        "m": f.m,
        "coeffs": [encode_padic(c) for c in f.coeffs],
        "tail_bound": _encode_tail(f.tail_bound),
    }


def decode_series(ctx: PadicContext, obj: dict) -> TateSeries:
    with _malformed("series object"):
        m = _field(obj, "m")
        coeffs = [decode_padic(ctx, c) for c in _field(obj, "coeffs", list)]
        tail = _decode_tail(obj["tail_bound"])
    return TateSeries(ctx, m, coeffs, tail)


def encode_function(f: PiecewiseFunction) -> dict:
    return {
        "leaves": [
            {"center": lf.center, "level": lf.level, "series": encode_series(lf.series)}
            for lf in f.leaves
        ]
    }


def decode_function(ctx: PadicContext, obj: dict) -> PiecewiseFunction:
    with _malformed("function object"):
        leaves = [
            Leaf(_field(l, "center"), _field(l, "level"), decode_series(ctx, l["series"]))
            for l in _field(obj, "leaves", list)
        ]
    return PiecewiseFunction(ctx, leaves)


# -- group elements ------------------------------------------------------------


def encode_matrix(g: IwahoriElement) -> dict:
    return {
        "a": encode_padic(g.a),
        "b": encode_padic(g.b),
        "c": encode_padic(g.c),
        "d": encode_padic(g.d),
        "level": g.level if isinstance(g.level, int) else I1,
    }


def decode_matrix(ctx: PadicContext, obj: dict) -> IwahoriElement:
    with _malformed("matrix object"):
        level = I1 if obj["level"] == I1 else _field(obj, "level")
        return IwahoriElement(
            ctx,
            decode_padic(ctx, obj["a"]),
            decode_padic(ctx, obj["b"]),
            decode_padic(ctx, obj["c"]),
            decode_padic(ctx, obj["d"]),
            level,
        )


# -- characters and parameters -------------------------------------------------


def encode_character(chi: ContinuousCharacter) -> dict:
    return {
        "value_at_p": encode_padic(chi.value_at_p),
        "tame_exponent": chi.tame_exponent,
        "wild_value": encode_padic(chi.wild_value),
    }


def decode_character(ctx: PadicContext, obj: dict) -> ContinuousCharacter:
    with _malformed("character object"):
        return ContinuousCharacter(
            decode_padic(ctx, obj["value_at_p"]),
            _field(obj, "tame_exponent"),
            decode_padic(ctx, obj["wild_value"]),
        )


def encode_induction(chi: InductionCharacter) -> dict:
    return {
        "alpha": encode_padic(chi.alpha),
        "beta": encode_padic(chi.beta),
        "k": chi.k,
        "which": chi.which,
    }


def decode_induction(ctx: PadicContext, obj: dict) -> InductionCharacter:
    with _malformed("induction character object"):
        return InductionCharacter(
            decode_padic(ctx, obj["alpha"]),
            decode_padic(ctx, obj["beta"]),
            _field(obj, "k"),
            which=obj.get("which", "alpha"),
            strict=False,
        )


def encode_param(s: TriangulineParam) -> dict:
    return {
        "delta1": encode_character(s.delta1),
        "delta2": encode_character(s.delta2),
        "scriptL": s.scriptL if isinstance(s.scriptL, str) else str(s.scriptL),
    }


def _decode_script_l(s) -> str:
    """"inf" or a rational string, kept as written."""
    if s == SCRIPT_L_INF:
        return s
    if isinstance(s, str):
        try:
            Fraction(s)
            return s
        except (ValueError, ZeroDivisionError):
            pass
    raise ParameterError(f'scriptL must be "inf" or a rational string, got {s!r}')


def decode_param(ctx: PadicContext, obj: dict) -> TriangulineParam:
    with _malformed("parameter object"):
        return TriangulineParam(
            decode_character(ctx, obj["delta1"]),
            decode_character(ctx, obj["delta2"]),
            _decode_script_l(obj.get("scriptL", SCRIPT_L_INF)),
        )


# -- cell vectors and cokernel classes -----------------------------------------


def encode_weyl(v: WeylCellVector) -> dict:
    return {"identity": encode_function(v.identity), "w0": encode_function(v.w0)}


def decode_weyl(ctx: PadicContext, obj: dict) -> WeylCellVector:
    with _malformed("cell vector object"):
        return WeylCellVector(
            decode_function(ctx, obj["identity"]),
            decode_function(ctx, obj["w0"]),
        )


def encode_cokernel(c: CokernelElement) -> dict:
    return {
        **encode_induction(c.chi),
        "n": c.n,
        "m": c.m,
        "F_alpha": encode_weyl(c.F_alpha.vector),
        "F_beta": encode_weyl(c.F_beta.vector),
    }


def decode_cokernel(ctx: PadicContext, obj: dict) -> CokernelElement:
    with _malformed("cokernel object"):
        chi = decode_induction(ctx, obj)
        n = _field(obj, "n")
        m = _field(obj, "m")
        fa = GAElement(decode_weyl(ctx, obj["F_alpha"]), n, m)
        fb = GAElement(decode_weyl(ctx, obj["F_beta"]), n, m)
    return CokernelElement(chi, n, m, fa, fb)


# -- envelopes -----------------------------------------------------------------

_ENCODERS = {
    "series": encode_series,
    "function": encode_function,
    "matrix": encode_matrix,
    "character": encode_character,
    "induction": encode_induction,
    "param": encode_param,
    "weyl": encode_weyl,
    "cokernel": encode_cokernel,
}

_DECODERS = {
    "series": decode_series,
    "function": decode_function,
    "matrix": decode_matrix,
    "character": decode_character,
    "induction": decode_induction,
    "param": decode_param,
    "weyl": decode_weyl,
    "cokernel": decode_cokernel,
}


def wrap(kind: str, ctx: PadicContext, value) -> str:
    if kind not in _ENCODERS:
        raise ParameterError(f"unknown kind {kind!r}")
    return dumps_canonical(
        {"context": context_header(ctx), "kind": kind, "payload": _ENCODERS[kind](value)}
    )


def load(
    text: str,
    expected_kind: Optional[str] = None,
    ctx: Optional[PadicContext] = None,
) -> Tuple[str, PadicContext, object]:
    """Parse an envelope.  A caller-supplied context must agree with the
    header on p, N and D (PadicContext.same) and is then used as is: its
    kappa wins, since the comparison slack is a run-time setting, not a
    property of the stored digits.  Otherwise the header context is used."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict) or "kind" not in obj or "payload" not in obj:
        raise ParameterError("missing envelope fields (context, kind, payload)")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _DECODERS:
        raise ParameterError(f"unknown kind {kind!r}")
    if expected_kind is not None and kind != expected_kind:
        raise ParameterMismatch(f"expected a {expected_kind} file, found {kind}")
    file_ctx = context_from_header(obj.get("context", {}), None if ctx is None else ctx.kappa)
    if ctx is not None:
        if not ctx.same(file_ctx):
            raise ParameterMismatch(
                f"file context (p={file_ctx.p}, N={file_ctx.N}, D={file_ctx.D}) "
                f"differs from the requested one (p={ctx.p}, N={ctx.N}, D={ctx.D})"
            )
        file_ctx = ctx
    value = _DECODERS[kind](file_ctx, obj["payload"])
    return kind, file_ctx, value
