"""One integer rule for every integer parameter of the public constructors
and deciders: a bool, a float, a string, None or a value past a finite end
is refused with ParameterError (never a TypeError, never stored), and a
valid int is accepted and stored as an int."""

import json
from argparse import Namespace
from typing import Callable, NamedTuple, Optional

import pytest

from rigidpadic import cli, io
from rigidpadic.actions import InductionCharacter, IwahoriElement, WeylCellVector
from rigidpadic.analytic import CokernelElement, GAElement, orbit_membership, witness_nonzero
from rigidpadic.errors import ParameterError
from rigidpadic.functions import (
    MAX_LEVEL,
    Leaf,
    LocallyAlgebraicFunction,
    PiecewiseFunction,
    StepFunction,
    is_member_Can,
    is_member_pi_an,
    mahler_coefficients,
)
from rigidpadic.galois import (
    ContinuousCharacter,
    FilteredPhiModule,
    TriangulineParam,
    abs_x_character,
    in_S_cris,
    x_character,
)
from rigidpadic.padic import MAX_DEGREE, MAX_PRECISION, PadicContext
from rigidpadic.series import TateSeries, twisted_mobius

CTX = PadicContext(3, 10, 8)
ONE = PiecewiseFunction.constant(CTX, 1)
CFG = cli.RunConfig(CTX, 11, "json")


class Row(NamedTuple):
    """build(value, tmp_path) makes or decides with the parameter set to
    value; read gives back the stored value (None: nothing stored to read);
    valid is accepted; lo and hi are the finite ends of the valid range, if
    any; optional: None means the flag was not given, and is accepted."""

    name: str
    build: Callable
    valid: int
    read: Optional[Callable] = None
    lo: Optional[int] = None
    hi: Optional[int] = None
    optional: bool = False


def _cells():
    zero = PiecewiseFunction.constant(CTX, 0)
    return GAElement(WeylCellVector(ONE, zero), 1, 2), GAElement.zero(CTX, 1, 2)


def _cokernel(n, m):
    chi = InductionCharacter(CTX.from_int(3), CTX.from_int(6), 3)
    return CokernelElement(chi, n, m, *_cells())


def _loaded_series(key, value):
    obj = json.loads(io.wrap("series", CTX, TateSeries(CTX, 1, [1, 3], 4)))
    obj["payload"][key] = value
    return io.load(json.dumps(obj), "series")[2]


def _analytic_level(value, tmp_path):
    path = tmp_path / "indicator.json"
    path.write_text(io.wrap("function", CTX, StepFunction.indicator_ball(CTX, 1)),
                    encoding="utf-8")
    return cli.cmd_analytic_level(CFG, Namespace(function_file=str(path), max_level=value))


ROWS = [
    Row("context p", lambda v, _: PadicContext(v, 10, 8), 3, lambda c: c.p),
    Row("context N", lambda v, _: PadicContext(3, v, 8, kappa=0), 10, lambda c: c.N,
        1, MAX_PRECISION),
    Row("context D", lambda v, _: PadicContext(3, 10, v), 8, lambda c: c.D, 0, MAX_DEGREE),
    Row("context kappa", lambda v, _: PadicContext(3, 10, 8, kappa=v), 4,
        lambda c: c.kappa, 0, 9),
    Row("residue level", lambda v, _: CTX.from_int(7).residue(v), 2, lambda r: r, 0),
    Row("series level m", lambda v, _: TateSeries(CTX, v, [1]), 1, lambda s: s.m, 0),
    Row("monomial degree", lambda v, _: TateSeries.monomial(CTX, 0, v), 2,
        lambda s: s.degree, 0, CTX.D),
    Row("mobius_twist weight k", lambda v, _: TateSeries(CTX, 1, [1, 1]).mobius_twist(3, v),
        3, None, 2, CTX.D + 2),
    Row("twist exponent e", lambda v, _: twisted_mobius(
        TateSeries.constant(CTX, 0, 1), CTX.one(), CTX.from_int(3), v), 2, None, 0, CTX.D),
    Row("indicator_ball level", lambda v, _: StepFunction.indicator_ball(CTX, v), 2,
        lambda f: f.max_level(), 0, MAX_LEVEL),
    # below max_level() refine answers DomainError, so the lower end is open
    Row("refine level", lambda v, _: ONE.refine(v), 1, lambda f: f.max_level(),
        None, MAX_LEVEL),
    # the middle leaf sorts after an int level 1 when v == 1 (True, 1.0)
    Row("leaf level", lambda v, _: PiecewiseFunction(
        CTX, [Leaf(c, h, TateSeries.constant(CTX, 1, 1)) for c, h in ((0, 1), (1, v), (2, 1))]),
        1, lambda f: f.leaves[1].level, 0, MAX_LEVEL),
    Row("leaf center", lambda v, _: PiecewiseFunction(
        CTX, [Leaf(c, 1, TateSeries.constant(CTX, 1, 1)) for c in (0, v, 2)]), 1,
        lambda f: f.leaves[1].center, 1, 1),
    Row("locally algebraic weight k", lambda v, _: LocallyAlgebraicFunction(
        CTX, [Leaf(0, 0, TateSeries.constant(CTX, 0, 1))], v), 3, lambda f: f.k, 2),
    Row("is_member_Can m", lambda v, _: is_member_Can(ONE, v), 1, lambda r: r.witness.m, 0),
    Row("is_member_pi_an k", lambda v, _: is_member_pi_an(ONE, 1, v), 3, None, 2),
    Row("mahler count", lambda v, _: mahler_coefficients(ONE, v), 2, len, 1, CTX.D + 1),
    Row("induction weight k", lambda v, _: InductionCharacter(
        CTX.from_int(3), CTX.from_int(6), v, strict=False), 3, lambda c: c.k, 2),
    Row("witness weight k", lambda v, _: witness_nonzero(
        CTX, CTX.from_int(3), CTX.from_int(6), v, 1, 2), 3, lambda w: w[0].chi.k, 2),
    Row("Iwahori level", lambda v, _: IwahoriElement(CTX, 1, 0, 0, 1, v), 1,
        lambda g: g.level, 1),
    Row("orbit_membership m", lambda v, _: orbit_membership(ONE, v), 1, None, 0),
    Row("GAElement n", lambda v, _: GAElement.zero(CTX, v, 3), 1, lambda e: e.n, 1),
    # m <= n answers DomainError, so the lower end is open
    Row("GAElement m", lambda v, _: GAElement.zero(CTX, 1, v), 2, lambda e: e.m),
    Row("cokernel n", lambda v, _: _cokernel(v, 2), 1, lambda e: e.n, 1),
    Row("cokernel m", lambda v, _: _cokernel(1, v), 2, lambda e: e.m),
    Row("filtered module weight k", lambda v, _: FilteredPhiModule(
        CTX.from_int(3), CTX.from_int(9), v), 3, lambda d: d.k, 2),
    Row("tame exponent", lambda v, _: ContinuousCharacter(CTX.one(), v, CTX.one()), 1,
        lambda c: c.tame_exponent),
    Row("in_S_cris integer bound", lambda v, _: in_S_cris(
        TriangulineParam(x_character(CTX), abs_x_character(CTX)), v), 50, None, 0),
    Row("file integer field", lambda v, _: _loaded_series("m", v), 1, lambda s: s.m, 0),
    Row("file tail bound", lambda v, _: _loaded_series("tail_bound", v), 4,
        lambda s: s.tail_bound),
    Row("--max-level", _analytic_level, 1, None, 0, MAX_LEVEL, optional=True),
    Row("--count", lambda v, _: cli.cmd_selftest(CFG, Namespace(count=v, only="padic/log")),
        1, None, 1, optional=True),
]

NON_INTEGERS = (True, False, 1.0, 2.5, "1", None)


def _refused(row):
    ends = () if row.lo is None else (row.lo - 1,)
    ends += () if row.hi is None else (row.hi + 1,)
    return tuple(v for v in NON_INTEGERS if v is not None or not row.optional) + ends


@pytest.mark.parametrize("row, value", [
    pytest.param(row, value, id=f"{row.name}-{value!r}")
    for row in ROWS for value in _refused(row)
])
def test_non_integer_or_out_of_range_is_refused(row, value, tmp_path):
    with pytest.raises(ParameterError):
        row.build(value, tmp_path)


@pytest.mark.parametrize("row", [pytest.param(row, id=row.name) for row in ROWS])
def test_valid_int_is_accepted_and_stored_as_int(row, tmp_path):
    out = row.build(row.valid, tmp_path)
    if row.read is not None:
        assert type(row.read(out)) is int
