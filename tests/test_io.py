"""Canonical JSON envelopes: byte-stable round trips and strict
envelope validation."""

import json
from fractions import Fraction

import pytest

from rigidpadic import io
from rigidpadic.actions import (
    I1,
    InductionCharacter,
    IwahoriElement,
    WeylCellVector,
)
from rigidpadic.analytic import CokernelElement, GAElement
from rigidpadic.errors import ParameterError, ParameterMismatch
from rigidpadic.functions import PiecewiseFunction, StepFunction
from rigidpadic.galois import (
    ContinuousCharacter,
    TriangulineParam,
    abs_x_character,
    x_character,
)
from rigidpadic.padic import PadicContext
from rigidpadic.series import TateSeries


def _roundtrip(ctx, kind, value):
    text = io.wrap(kind, ctx, value)
    got_kind, got_ctx, back = io.load(text, kind)
    assert got_kind == kind
    assert got_ctx.same(ctx)
    return text, back


class TestRoundTrips:
    def test_series_exact(self, ctx):
        f = TateSeries(ctx, 1, [1, -2, Fraction(3, 7), 0, 625])
        _, back = _roundtrip(ctx, "series", f)
        assert back == f

    def test_series_finite_tail(self, ctx):
        f = TateSeries(ctx, 2, [5, 25], tail_bound=3)
        _, back = _roundtrip(ctx, "series", f)
        assert back == f
        assert back.tail_bound == 3

    def test_series_zero_product(self, ctx):
        # zero times a truncated series is exactly zero: its tail bound
        # INF + 7 is a float inf, stored as INF itself so that it writes "inf"
        f = TateSeries(ctx, 1, [1, 2, 3], 7)
        zero = TateSeries.zero(ctx, 1)
        for z in (zero * f, f * zero, TateSeries(ctx, 1, [], float("inf"))):
            assert z.is_zero
            _, back = _roundtrip(ctx, "series", z)
            assert back == z == zero and back.is_zero

    def test_function(self, ctx):
        f = PiecewiseFunction.from_global_series(
            TateSeries(ctx, 0, [2, 0, 1])
        ).refine(1)
        _, back = _roundtrip(ctx, "function", f)
        assert back == f

    def test_step_function(self, ctx):
        f = StepFunction.indicator_ball(ctx, 1)
        _, back = _roundtrip(ctx, "function", f)
        assert back == f

    def test_matrix_pro_p_level(self, ctx):
        g = IwahoriElement(ctx, 6, 5, 3, 1, I1)
        _, back = _roundtrip(ctx, "matrix", g)
        assert back == g
        assert back.level == I1

    def test_matrix_integer_level(self, ctx):
        g = IwahoriElement(ctx, 26, 25, 25, 1, 2)
        _, back = _roundtrip(ctx, "matrix", g)
        assert back == g
        assert back.level == 2

    def test_character(self, ctx):
        chi = ContinuousCharacter(ctx.from_int(15), 2, ctx.from_int(31))
        _, back = _roundtrip(ctx, "character", chi)
        assert back == chi

    def test_induction(self, ctx):
        chi = InductionCharacter(
            ctx.from_int(5), ctx.from_int(10), 3, which="beta"
        )
        _, back = _roundtrip(ctx, "induction", chi)
        assert back == chi

    def test_param_infinite_coordinate(self, ctx):
        s = TriangulineParam(x_character(ctx), abs_x_character(ctx))
        _, back = _roundtrip(ctx, "param", s)
        assert back.script_l_is_inf
        assert back.delta1 == s.delta1 and back.delta2 == s.delta2

    def test_param_finite_coordinate(self, ctx):
        s = TriangulineParam(x_character(ctx), abs_x_character(ctx), scriptL="3/7")
        _, back = _roundtrip(ctx, "param", s)
        assert not back.script_l_is_inf
        assert back.scriptL == "3/7"

    def test_weyl_vector(self, ctx):
        v = WeylCellVector(
            PiecewiseFunction.constant(ctx, 3),
            PiecewiseFunction.from_global_series(TateSeries(ctx, 0, [0, 1])),
        )
        _, back = _roundtrip(ctx, "weyl", v)
        assert back.identity == v.identity and back.w0 == v.w0

    def test_cokernel(self, ctx):
        chi = InductionCharacter(ctx.from_int(5), ctx.from_int(10), 3)
        c = CokernelElement(
            chi, 1, 2,
            GAElement(
                WeylCellVector(
                    PiecewiseFunction.constant(ctx, 1),
                    PiecewiseFunction.constant(ctx, 0),
                ),
                1, 2,
            ),
            GAElement.zero(ctx, 1, 2),
        )
        _, back = _roundtrip(ctx, "cokernel", c)
        assert back.chi == chi
        assert (back.n, back.m) == (1, 2)
        assert back.F_alpha.agrees_with(c.F_alpha)
        assert back.F_beta.agrees_with(c.F_beta)


class TestCanonicalForm:
    def test_bytes_stable_under_reload(self, ctx):
        f = TateSeries(ctx, 1, [Fraction(1, 5), 7])
        text = io.wrap("series", ctx, f)
        _, _, back = io.load(text)
        assert io.wrap("series", ctx, back) == text

    def test_layout(self, ctx):
        text = io.wrap("series", ctx, TateSeries.zero(ctx, 0))
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert '  "context"' in text
        lines = text.splitlines()
        assert lines[0] == "{" and lines[-1] == "}"

    def test_keys_sorted(self, ctx):
        text = io.wrap("series", ctx, TateSeries.zero(ctx, 0))
        keys = [
            ln.strip().split(":")[0]
            for ln in text.splitlines()
            if ln.startswith('  "')
        ]
        assert keys == sorted(keys)


class TestEnvelopeValidation:
    def test_kind_mismatch(self, ctx):
        text = io.wrap("series", ctx, TateSeries.zero(ctx, 0))
        with pytest.raises(ParameterMismatch):
            io.load(text, "matrix")

    def test_context_mismatch(self, ctx):
        text = io.wrap("series", ctx, TateSeries.zero(ctx, 0))
        other = PadicContext(p=5, N=20, D=32)
        with pytest.raises(ParameterMismatch):
            io.load(text, "series", other)

    def test_caller_kappa_overrides_the_header(self, ctx):
        # p, N and D must match; kappa is the caller's run-time slack
        tight = PadicContext(p=5, N=40, D=64, kappa=2)
        text = io.wrap("series", tight, TateSeries.zero(tight, 0))
        loose = PadicContext(p=5, N=40, D=64, kappa=7)
        _, got_ctx, value = io.load(text, "series", loose)
        assert got_ctx is loose and value.ctx is loose
        _, header_ctx, _ = io.load(text, "series")
        assert header_ctx.kappa == 2

    def test_malformed_json(self):
        with pytest.raises(ParameterError):
            io.load("{not json")

    def test_missing_envelope_fields(self):
        with pytest.raises(ParameterError):
            io.load('{"context": {"p": 5}}')

    def test_unknown_kind_wrap(self, ctx):
        with pytest.raises(ParameterError):
            io.wrap("polynomial", ctx, TateSeries.zero(ctx, 0))

    def test_unknown_kind_load(self, ctx):
        # a kind that is not a string is unknown too, not a TypeError
        for kind in ('"mystery"', "[]", "{}"):
            text = io.wrap("series", ctx, TateSeries.zero(ctx, 0)).replace(
                '"kind": "series"', f'"kind": {kind}'
            )
            with pytest.raises(ParameterError, match="unknown kind"):
                io.load(text)

    def test_bad_payload(self, ctx):
        text = io.wrap("series", ctx, TateSeries.zero(ctx, 0)).replace(
            '"m": 0', '"m": "deep"'
        )
        with pytest.raises(ParameterError):
            io.load(text)

    def test_zero_denominator_coefficient(self, ctx):
        text = io.wrap("series", ctx, TateSeries(ctx, 0, [1])).replace(
            '"1"', '"1/0"'
        )
        with pytest.raises(ParameterError):
            io.load(text)

    def test_bad_context_header(self):
        with pytest.raises(ParameterError):
            io.load('{"context": {"p": 5}, "kind": "series", "payload": {}}')


def _samples(ctx):
    """One canonical value of each kind that carries integer fields."""
    chi = InductionCharacter(ctx.from_int(5), ctx.from_int(10), 3)
    cell = WeylCellVector(
        PiecewiseFunction.constant(ctx, 1), PiecewiseFunction.constant(ctx, 0)
    )
    return {
        "series": TateSeries(ctx, 1, [1, -2, Fraction(3, 7)], tail_bound=3),
        "function": StepFunction.indicator_ball(ctx, 1),
        "matrix": IwahoriElement(ctx, 26, 25, 25, 1, 2),
        "character": ContinuousCharacter(ctx.from_int(15), 2, ctx.from_int(31)),
        "induction": chi,
        "param": TriangulineParam(x_character(ctx), abs_x_character(ctx), scriptL="-3/7"),
        "cokernel": CokernelElement(
            chi, 1, 2, GAElement(cell, 1, 2), GAElement.zero(ctx, 1, 2)
        ),
    }


def _with(text, path, value):
    obj = json.loads(text)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(obj)


class TestStrictFields:
    """Integer fields take JSON integers only and coeffs/leaves arrays only:
    a float, bool or string is refused, never truncated or iterated."""

    @pytest.mark.parametrize("kind", ["series", "function", "matrix", "character",
                                      "induction", "param", "cokernel"])
    def test_canonical_bytes_roundtrip(self, ctx, kind):
        text = io.wrap(kind, ctx, _samples(ctx)[kind])
        _, _, back = io.load(text, kind)
        assert io.wrap(kind, ctx, back) == text

    @pytest.mark.parametrize("kind, path, value", [
        ("function", ("payload", "leaves", 0, "center"), 0.9),
        ("function", ("payload", "leaves", 0, "level"), True),
        ("function", ("payload", "leaves", 0, "series", "m"), "1"),
        ("function", ("payload", "leaves"), ""),
        ("series", ("payload", "coeffs"), "123"),
        ("series", ("payload", "m"), 1.5),
        ("series", ("context", "N"), "40"),
        ("series", ("context", "kappa"), True),
        ("matrix", ("payload", "level"), 2.5),
        ("character", ("payload", "tame_exponent"), "2"),
        ("induction", ("payload", "k"), 3.0),
        ("cokernel", ("payload", "n"), True),
        ("cokernel", ("payload", "m"), "2"),
        ("cokernel", ("payload", "F_alpha", "w0", "leaves", 0, "level"), False),
    ])
    def test_non_integer_or_non_array_is_refused(self, ctx, kind, path, value):
        text = _with(io.wrap(kind, ctx, _samples(ctx)[kind]), path, value)
        with pytest.raises(ParameterError, match="must be an"):
            io.load(text, kind)

    @pytest.mark.parametrize("value", [3, 0.5, [1], None, True, "abc", "1/0", ""])
    def test_script_l_is_inf_or_a_rational_string(self, ctx, value):
        text = _with(io.wrap("param", ctx, _samples(ctx)["param"]),
                     ("payload", "scriptL"), value)
        with pytest.raises(ParameterError, match="scriptL must be"):
            io.load(text, "param")

    @pytest.mark.parametrize("value", ["inf", "0", "-3/7", "2.5"])
    def test_script_l_strings_load_as_written(self, ctx, value):
        text = _with(io.wrap("param", ctx, _samples(ctx)["param"]),
                     ("payload", "scriptL"), value)
        assert io.load(text, "param")[2].scriptL == value

    @pytest.mark.parametrize("key, value", [("k", 1), ("alpha", "0"), ("which", "gamma")])
    def test_malformed_cokernel_character_is_refused(self, ctx, key, value):
        text = _with(io.wrap("cokernel", ctx, _samples(ctx)["cokernel"]),
                     ("payload", key), value)
        with pytest.raises(ParameterError, match="bad cokernel object"):
            io.load(text, "cokernel")

    @pytest.mark.parametrize("kind, path, message", [
        ("series", ("context", "p"), "bad context header: 'p'"),
        ("series", ("payload", "tail_bound"), "bad series object: 'tail_bound'"),
        ("function", ("payload", "leaves", 0, "series", "tail_bound"),
         "bad function object: bad series object: 'tail_bound'"),
        ("matrix", ("payload", "a"), "bad matrix object: 'a'"),
        ("character", ("payload", "wild_value"), "bad character object: 'wild_value'"),
        ("induction", ("payload", "alpha"), "bad induction character object: 'alpha'"),
        ("param", ("payload", "delta1", "value_at_p"),
         "bad parameter object: bad character object: 'value_at_p'"),
        ("cokernel", ("payload", "alpha"),
         "bad cokernel object: bad induction character object: 'alpha'"),
        ("cokernel", ("payload", "F_alpha", "w0", "leaves", 0, "series", "coeffs"),
         "bad cokernel object: bad cell vector object: bad function object: "
         "bad series object: 'coeffs'"),
    ])
    def test_missing_field_names_every_enclosing_object(self, ctx, kind, path, message):
        obj = json.loads(io.wrap(kind, ctx, _samples(ctx)[kind]))
        target = obj
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        with pytest.raises(ParameterError) as info:
            io.load(json.dumps(obj), kind)
        assert str(info.value) == message
