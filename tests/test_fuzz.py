"""One integer rule for every integer parameter of the public constructors
and deciders: a bool, a float, a string, None or a value past a finite end
is refused with ParameterError (never a TypeError, never stored), and a
valid int is accepted and stored as an int.

One context rule for every place that combines two values: a value whose
(p, N, D) differs is refused with ParameterError ("... belong to different
contexts"), and a value that differs only in the slack kappa is accepted.

A table of refusals pins the class and message of each library refusal
that no other test reaches.

The malformed-file probe at the end feeds every JSON path of one file of
each kind, replaced by ill-typed or extreme values or deleted, to the
command that reads it: each ends in a documented exit code."""

import contextlib
import copy
import io as _text
import json
import random
from argparse import Namespace
from typing import Callable, NamedTuple, Optional

import pytest

from rigidpadic import cli, io, selftest
from rigidpadic.actions import (
    I1,
    InductionCharacter,
    IwahoriElement,
    WeylCellVector,
    act,
    act_cell,
    act_smooth,
)
from rigidpadic.analytic import (
    CokernelElement,
    GAElement,
    bound_report,
    expand_all,
    orbit_membership,
    witness_nonzero,
)
from rigidpadic.errors import (
    DivisionError,
    DomainError,
    ParameterError,
    ParameterMismatch,
    PrecisionError,
    RigidPadicError,
)
from rigidpadic.functions import (
    MAX_LEVEL,
    Leaf,
    LocallyAlgebraicFunction,
    PiecewiseFunction,
    StepFunction,
    compare_tracked,
    is_member_Can,
    is_member_pi_an,
    mahler_coefficients,
)
from rigidpadic.galois import (
    ContinuousCharacter,
    FilteredPhiModule,
    TriangulineParam,
    abs_x_character,
    x_character,
)
from rigidpadic.padic import INF, MAX_DEGREE, MAX_PRECISION, PadicContext
from rigidpadic.series import TateSeries, twisted_mobius

CTX = PadicContext(3, 10, 8)
ONE = PiecewiseFunction.constant(CTX, 1)
ARGS = {"seed": 11, "format": "json"}


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


def _chi(c):
    return InductionCharacter(c.from_int(c.p), c.from_int(2 * c.p), 3)


def _cokernel(n, m):
    return CokernelElement(_chi(CTX), n, m, *_cells())


def _loaded_series(key, value):
    obj = json.loads(io.wrap("series", CTX, TateSeries(CTX, 1, [1, 3], 4)))
    obj["payload"][key] = value
    return io.load(json.dumps(obj), "series")[2]


def _analytic_level(value, tmp_path):
    path = tmp_path / "indicator.json"
    path.write_text(io.wrap("function", CTX, StepFunction.indicator_ball(CTX, 1)),
                    encoding="utf-8")
    return cli.cmd_analytic_level(CTX, Namespace(**ARGS, function_file=str(path),
                                                 max_level=value))


ROWS = [
    Row("context p", lambda v, _: PadicContext(v, 10, 8), 3, lambda c: c.p),
    Row("context N", lambda v, _: PadicContext(3, v, 8, kappa=0), 10, lambda c: c.N,
        1, MAX_PRECISION),
    Row("context D", lambda v, _: PadicContext(3, 10, v), 8, lambda c: c.D, 0, MAX_DEGREE),
    Row("context kappa", lambda v, _: PadicContext(3, 10, 8, kappa=v), 4,
        lambda c: c.kappa, 0, 9),
    Row("residue level", lambda v, _: CTX.from_int(7).residue(v), 2, lambda r: r, 0),
    Row("series level m", lambda v, _: TateSeries(CTX, v, [1]), 1, lambda s: s.m, 0),
    Row("series tail bound", lambda v, _: TateSeries(CTX, 0, [1, 3], v), 4,
        lambda s: s.tail_bound),
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
    Row("covering_leaf ball level m", lambda v, _: ONE.covering_leaf(v), 1, None, 0),
    Row("leaves_in_ball ball level m", lambda v, _: ONE.leaves_in_ball(v), 1, None, 0),
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
    Row("bound_report ball level m", lambda v, _: bound_report(
        TateSeries(CTX, 1, [1, 2, 3]), v), 1, lambda r: r.m, 0),
    Row("expand_all ball level m", lambda v, _: expand_all(TateSeries(CTX, 1, [1, 2, 3]), v),
        1, lambda e: e["mobius"].components[1].m, 0),
    Row("tamper index", lambda v, _: bound_report(
        TateSeries(CTX, 1, [1, 3]), 1, ("mobius", v)), 3, None, 0, CTX.D),
    Row("GAElement n", lambda v, _: GAElement.zero(CTX, v, 3), 1, lambda e: e.n, 1),
    # m <= n answers DomainError, so the lower end is open
    Row("GAElement m", lambda v, _: GAElement.zero(CTX, 1, v), 2, lambda e: e.m),
    Row("cokernel n", lambda v, _: _cokernel(v, 2), 1, lambda e: e.n, 1),
    Row("cokernel m", lambda v, _: _cokernel(1, v), 2, lambda e: e.m),
    Row("filtered module weight k", lambda v, _: FilteredPhiModule(
        CTX.from_int(3), CTX.from_int(9), v), 3, lambda d: d.k, 2),
    Row("tame exponent", lambda v, _: ContinuousCharacter(CTX.one(), v, CTX.one()), 1,
        lambda c: c.tame_exponent),
    Row("file integer field", lambda v, _: _loaded_series("m", v), 1, lambda s: s.m, 0),
    Row("file tail bound", lambda v, _: _loaded_series("tail_bound", v), 4,
        lambda s: s.tail_bound),
    Row("--max-level", _analytic_level, 1, None, 0, MAX_LEVEL, optional=True),
    Row("--count", lambda v, _: cli.cmd_selftest(
        CTX, Namespace(**ARGS, count=v, only="padic/log")), 1, None, 1, optional=True),
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


# -- one context rule -----------------------------------------------------------

HOME = PadicContext()
#: another (p, N, D): each row mixes a value of it into a value of HOME
AWAY = PadicContext(7, 20, 16)
#: HOME but for the slack kappa, which the rule does not compare
LOOSE = PadicContext(kappa=0)


def _identity(c):
    return IwahoriElement(c, 1, 0, 0, 1)


def _ga_zero(c):
    return GAElement.zero(c, 1, 2)


#: kind -> one value of that kind in a given context
KINDS = {
    "series": lambda c: TateSeries(c, 1, [1, 3], 4),
    "function": lambda c: StepFunction.indicator_ball(c, 1),
    "matrix": _identity,
    "character": x_character,
    "induction": _chi,
    "param": lambda c: TriangulineParam(x_character(c), abs_x_character(c)),
    "weyl": lambda c: WeylCellVector(PiecewiseFunction.constant(c, 1),
                                     PiecewiseFunction.constant(c, 0)),
    "cokernel": lambda c: CokernelElement(_chi(c), 1, 2, _ga_zero(c), _ga_zero(c)),
}

#: (name, mix): mix(other) combines values of HOME with one value of other
CONTEXT_ROWS = [
    ("num", lambda o: HOME.num(o.from_int(3))),
    ("+", lambda o: HOME.from_int(3) + o.from_int(2)),
    ("*", lambda o: HOME.from_int(3) * o.from_int(2)),
    ("agrees_with", lambda o: HOME.from_int(3).agrees_with(o.from_int(3))),
    ("series +", lambda o: TateSeries(HOME, 1, [1, 2]) + TateSeries(o, 1, [1])),
    ("function +", lambda o: (PiecewiseFunction.constant(HOME, 1)
                              + PiecewiseFunction.constant(o, 2))),
    ("leaf series", lambda o: PiecewiseFunction(
        HOME, [Leaf(0, 0, TateSeries.constant(o, 0, 1))])),
    ("compare_tracked", lambda o: compare_tracked(HOME, HOME.one(), INF, o.one(), INF)),
    ("matrix @", lambda o: _identity(HOME) @ _identity(o)),
    ("cells", lambda o: WeylCellVector(PiecewiseFunction.constant(HOME, 1),
                                       PiecewiseFunction.constant(o, 0))),
    ("act", lambda o: act(_identity(HOME), TateSeries(o, 0, [1, 2]), _chi(HOME))),
    ("cokernel components", lambda o: CokernelElement(
        _chi(HOME), 1, 2, _ga_zero(HOME), _ga_zero(o))),
    ("character components", lambda o: ContinuousCharacter(HOME.one(), 0, o.one())),
    ("induction eigenvalues", lambda o: InductionCharacter(
        HOME.from_int(5), o.from_int(10), 3, strict=False)),
    ("filtered module eigenvalues", lambda o: FilteredPhiModule(
        HOME.from_int(5), o.from_int(25), 3)),
    ("trianguline characters", lambda o: TriangulineParam(
        x_character(HOME), abs_x_character(o))),
    ("cokernel character", lambda o: CokernelElement(
        _chi(o), 1, 2, _ga_zero(HOME), _ga_zero(HOME))),
] + [(f"io.wrap {kind}", lambda o, kind=kind: io.wrap(kind, HOME, KINDS[kind](o)))
     for kind in KINDS]

MIXES = [pytest.param(mix, id=name) for name, mix in CONTEXT_ROWS]


@pytest.mark.parametrize("mix", MIXES)
def test_another_context_is_refused(mix):
    with pytest.raises(ParameterError, match="belong to different contexts"):
        mix(AWAY)


@pytest.mark.parametrize("mix", MIXES)
def test_a_kappa_only_difference_is_accepted(mix):
    mix(LOOSE)


@pytest.mark.parametrize("kind, header, value", [
    pytest.param("param", HOME, KINDS["param"](AWAY), id="7-adic param, default header"),
    pytest.param("series", AWAY, TateSeries(HOME, 0, [1, 5]), id="5-adic series, 7-adic header"),
])
def test_a_value_is_not_written_under_another_header(kind, header, value):
    """Both used to be written: the parameter's file was then refused on load
    (its wild values are not 1 mod 5), and the series loaded as 1 + 5z over
    Q_7, whose z-coefficient is a unit."""
    with pytest.raises(ParameterError, match="value and header belong to different contexts"):
        io.wrap(kind, header, value)


# -- refusals that no other test reaches ---------------------------------------

#: an I(1) matrix whose lower-left entry is a unit: its w0-conjugate leaves I(1)
UNIT_LOWER_LEFT = IwahoriElement(CTX, 1, 0, 1, 1)

#: (name, run, error class, message)
REFUSALS = [
    ("conjugate_by_w0 of a unit lower-left entry", UNIT_LOWER_LEFT.conjugate_by_w0,
     DomainError, "w0-conjugate leaves I(1): lower-left entry is a unit"),
    ("act_cell prefixes the w0 cell", lambda: act_cell(
        UNIT_LOWER_LEFT, WeylCellVector(ONE, ONE), _chi(CTX)),
     DomainError, "w0 cell: w0-conjugate leaves I(1): lower-left entry is a unit"),
    ("act on an int", lambda: act(_identity(CTX), 3, _chi(CTX)),
     ParameterError, "cannot act on int"),
    ("act_smooth on a non-step function", lambda: act_smooth(_identity(CTX), ONE),
     ParameterError, "act_smooth expects a StepFunction"),
    ("refine below the max leaf level", lambda: ONE.refine(1).refine(0),
     DomainError, "refinement level 0 below max leaf level 1"),
    ("locally algebraic truncated leaf", lambda: LocallyAlgebraicFunction(
        CTX, [Leaf(0, 0, TateSeries(CTX, 0, [1], 4))], 3),
     ParameterError, "locally algebraic leaves must be exact polynomials"),
    ("cokernel levels", lambda: CokernelElement(_chi(CTX), 1, 3, *_cells()),
     ParameterMismatch, "component levels differ from the class levels"),
    ("num of a bool", lambda: CTX.num(True), ParameterError, "refusing to coerce a bool to Q_p"),
    ("num of a float", lambda: CTX.num(1.5), ParameterError, "cannot coerce float to Q_p"),
    ("zero ** -1", lambda: CTX.zero() ** -1, DivisionError, "negative power of zero"),
    ("residue of 1/5", lambda: HOME.num("1/5").residue(1),
     DomainError, "residue of a non-integral element"),
    ("residue past N", lambda: HOME.from_int(5).residue(42),
     PrecisionError, "residue mod p^42 exceeds stored precision p^41"),
    ("render xml", lambda: cli.render({}, "xml"), ParameterError, "unknown format 'xml'"),
]


@pytest.mark.parametrize("run, error, message", [
    pytest.param(run, error, message, id=name) for name, run, error, message in REFUSALS
])
def test_refusal_has_its_class_and_message(run, error, message):
    with pytest.raises(RigidPadicError) as info:
        run()
    assert (type(info.value), str(info.value)) == (error, message)


def test_analytic_level_of_a_matrix_file_exits_4(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(io.wrap("matrix", HOME, _identity(HOME)), encoding="utf-8")
    assert cli.main(["analytic-level", str(path)]) == 4
    assert capsys.readouterr() == ("", "error: expected a function or series file, "
                                       "found matrix\n")


# -- malformed files ------------------------------------------------------------

PROBE_VALUES = (None, True, False, 0, -1, 1, 10 ** 30, 1.5, 1e308, "", "x", "1/0", "5/25",
                [], {}, [[]], 2 ** 64)
DELETED = object()


def _sample_documents():
    """One envelope of each kind at the command's default context, drawn from
    the selftest generators, as parsed JSON."""
    ctx = PadicContext()
    rng = random.Random(2020)
    chi = selftest.rand_chi(ctx, rng)
    values = {
        "series": selftest.rand_series(ctx, rng, 1, max_deg=4),
        "function": selftest.rand_refined_global(ctx, rng, 1, max_deg=3),
        "matrix": selftest.rand_iwahori(ctx, rng, I1),
        "character": selftest.rand_character(ctx, rng),
        "induction": chi,
        "param": TriangulineParam(selftest.rand_character(ctx, rng),
                                  selftest.rand_character(ctx, rng)),
        "weyl": WeylCellVector(selftest.rand_refined_global(ctx, rng, 1, max_deg=2),
                               selftest.rand_refined_global(ctx, rng, 1, max_deg=2)),
        "cokernel": CokernelElement(chi, 1, 2, selftest._rand_ga(ctx, rng, 1, 2),
                                    selftest._rand_ga(ctx, rng, 1, 2)),
    }
    return ctx, {kind: json.loads(io.wrap(kind, ctx, v)) for kind, v in values.items()}


def _json_paths(node, path=()):
    """Every path into node, the root included; lists are cut at 4 items."""
    yield path
    if isinstance(node, dict):
        for key in node:
            yield from _json_paths(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node[:4]):
            yield from _json_paths(item, path + (i,))


def _mutants(doc):
    """(label, text) for doc with each path replaced by each probe value, and
    with each path below the root deleted."""
    for path in _json_paths(doc):
        for value in PROBE_VALUES + (() if path == () else (DELETED,)):
            if path == ():
                yield f"/ = {value!r}", json.dumps(value)
                continue
            out = copy.deepcopy(doc)
            parent = out
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETED:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            label = "/".join(map(str, path))
            yield f"{label} {'deleted' if value is DELETED else f'= {value!r}'}", json.dumps(out)


def probe_requests(directory):
    """(kind, label, argv, text) for every mutant file of every kind: argv is
    the command that reads the file, written to directory, or None for the
    kinds that no command reads, which go through io.load(text, kind, ctx)."""
    ctx, docs = _sample_documents()
    good = {}
    for kind, doc in docs.items():
        good[kind] = str(directory / f"good-{kind}.json")
        with open(good[kind], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    bad = str(directory / "bad.json")
    commands = {
        "series": ["verify-bounds", bad, "-m", str(docs["series"]["payload"]["m"])],
        "function": ["analytic-level", bad],
        "param": ["classify", bad],
        "matrix": ["act", bad, good["function"], good["induction"]],
        "induction": ["act", good["matrix"], good["function"], bad],
        "cokernel": ["cokernel-eq", bad, good["cokernel"]],
    }
    for kind, doc in docs.items():
        argv = commands.get(kind)
        for label, text in _mutants(doc):
            if argv is not None:
                with open(bad, "w", encoding="utf-8") as fh:
                    fh.write(text)
            yield kind, label, argv, text


def run_probe_request(ctx, kind, argv, text):
    """(exit code, stdout, stderr) of one request; io.load's refusal reads
    exit code 2 with the error on stderr, its success exit code 0."""
    out, err = _text.StringIO(), _text.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if argv is not None:
            code = cli.main(argv)
        else:
            try:
                io.load(text, kind, ctx)
                code = 0
            except RigidPadicError as exc:
                print(f"error: {exc}", file=err)
                code = 2
    return code, out.getvalue(), err.getvalue()


def test_malformed_files_end_in_a_documented_exit(tmp_path):
    ctx = PadicContext()
    problems = []
    for kind, label, argv, text in probe_requests(tmp_path):
        try:
            code, _, err = run_probe_request(ctx, kind, argv, text)
        except Exception as exc:  # noqa: BLE001 -- any escape is the finding
            problems.append(f"{kind} {label}: {type(exc).__name__}: {exc}")
            continue
        lines = err.splitlines()
        if code not in range(5):
            problems.append(f"{kind} {label}: exit code {code}")
        elif code >= 2 and (len(lines) != 1 or not lines[0].startswith("error: ")):
            problems.append(f"{kind} {label}: exit code {code} with stderr {err!r}")
    assert not problems, "\n".join(problems[:20])
