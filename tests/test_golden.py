"""Golden outputs: the command line's stdout, pinned byte for byte.

Each row is (name, fixture builder, argv lists, exit code, sha256).  The
builder writes the row's input files into one directory shared by the
module, cli.main runs in-process on each argv from that directory, every
run must return the row's exit code, and the sha256 of the joined stdout
must equal the row's digest.  A deliberate change of output moves its
digest here, with the reason recorded in CHANGES.md.
"""

import hashlib

import pytest

from rigidpadic import io
from rigidpadic.actions import I1, InductionCharacter, IwahoriElement
from rigidpadic.cli import main
from rigidpadic.functions import PiecewiseFunction, StepFunction
from rigidpadic.galois import ContinuousCharacter as C
from rigidpadic.galois import TriangulineParam, abs_x_character, x_character
from rigidpadic.padic import INF, PadicContext
from rigidpadic.series import TateSeries


def _put(d, name, kind, ctx, value):
    (d / name).write_text(io.wrap(kind, ctx, value), encoding="utf-8")


def series_file(d):
    ctx = PadicContext()
    _put(d, "series.json", "series", ctx, TateSeries(ctx, 1, [3, 5, 0, 7, 25], 0))


def multi_row_series_file(d):
    """A level-0 series whose valuation table keeps the inv_torus and mobius
    rows l = 1, 2, 3 and 6 (bases 4, 2, 0 and -1)."""
    ctx = PadicContext()
    _put(d, "series0.json", "series", ctx,
         TateSeries(ctx, 0, [1, 5 ** 4, 5 ** 2, 1, 0, 3, 7], 0))


def _param_files(d, prefix, ctx, rows):
    for i, (d1, d2) in enumerate(rows):
        _put(d, f"{prefix}{i}.json", "param", ctx, TriangulineParam(d1, d2))


def param_files(d):
    """Both ext1 families, dimension 1 and INDETERMINATE."""
    ctx = PadicContext()
    n, x, a = ctx.from_int, x_character(ctx), abs_x_character(ctx)
    c = C(n(15), 2, n(31))
    _param_files(d, "p", ctx, [
        (C(n(5), 1, n(36)), a), (x, a), (x ** -3 * c, c), (a * x ** 2 * c, c),
        (x ** -25, C.trivial(ctx)), (x ** 3, C.trivial(ctx)),
    ])


def high_precision_param_files(d):
    """The weight gap's logarithms at N = 1000."""
    ctx = PadicContext(N=1000, D=8)
    n, a = ctx.from_int, abs_x_character(ctx)
    c = C(n(15), 2, n(31))
    _param_files(d, "hp", ctx, [(C(n(5), 1, n(36)), a), (x_character(ctx) ** -3 * c, c)])


def glue_files(d):
    """The gluing path on 81 leaves, YES and NO."""
    ctx = PadicContext(p=3)
    f = PiecewiseFunction.from_global_series(
        TateSeries(ctx, 0, [1, 3, 9, 2, 5, 7], 30)).refine(4)
    for i, g in enumerate((f, f + StepFunction.indicator_ball(ctx, 2))):
        _put(d, f"glue{i}.json", "function", ctx, g)


def act_files(d):
    """Zero, constant, exact and truncated leaves, k = 2 and 4."""
    ctx = PadicContext()
    n = ctx.from_int
    _put(d, "actg.json", "matrix", ctx, IwahoriElement(ctx, 16, 10, 7, 26, I1))
    for k in (2, 4):
        _put(d, f"actchi{k}.json", "induction", ctx,
             InductionCharacter(n(5 ** (k - 2) * 3), n(5), k, strict=False))
    step = StepFunction.indicator_ball(ctx, 2)
    exact = PiecewiseFunction.from_global_series(TateSeries(ctx, 0, [3, 0, 5], INF))
    truncated = PiecewiseFunction.from_global_series(
        TateSeries(ctx, 0, [1, 3, 9, 2, 5, 7], 30))
    for i, g in enumerate((step, exact.refine(2) + step, truncated.refine(1))):
        _put(d, f"act{i}.json", "function", ctx, g)


def _selftest(*flags):
    return [[*flags, "--seed", "11", "selftest"]]


def _bounds(*flags):
    return [[*flags, "verify-bounds", "series.json", "-m", "1"]]


ROWS = [
    ("selftest", None, _selftest(), 0,
     "4f92a4d5c41970a0303b9ba3ab0f98c50df812181af5a4905e6657c1877d0231"),
    # long raw_mobius sums
    ("selftest-D256", None, _selftest("--degree", "256"), 0,
     "65e83cde26df6325fa4fa20b89249ebd98cf318cf88198f190247396351a94ba"),
    # the orbit builders at full degree
    ("selftest-D512", None, _selftest("--degree", "512"), 0,
     "154fa423928193ce14bf3eed2fb14122d90d6222e5a5be83c895fe5e41843c21"),
    # D = MAX_DEGREE: the twisted sums past the stored precision
    ("selftest-D1000", None, _selftest("--degree", "1000"), 0,
     "60ed90155e0c098376f358ef15c17b294294931aa342e953bcea59d08c55eff5"),
    # the agreement rule's rounding corners
    ("selftest-N20-D24", None, _selftest("--precision", "20", "--degree", "24"), 0,
     "a14f2d73ecbddbda554dfd52803a273f7711103d75790f25829cea3f82e555d5"),
    # where normalising strips p most often
    ("selftest-p3", None, _selftest("--p", "3"), 0,
     "0b69fecd6d1a210e95adca571f968e12da529f63ad3e2914df08a99cecdb1563"),
    ("selftest-p7", None, _selftest("--p", "7"), 0,
     "71f6e9eb610a1b4a4d33a99d230ee9ef19aae85f5eaf4860b430aa3e254de376"),
    ("verify-bounds-json", series_file, _bounds("--format", "json"), 0,
     "31c82f0ee3cf2674c46ede4206cae2b7d8002f02117cf804abaec97c0072303d"),
    ("verify-bounds-text", series_file, _bounds("--format", "text"), 0,
     "3dd21e304e188aed4643c8f187ea3ffdff510b0fa87f427f94a3a9b5ab377ae9"),
    ("verify-bounds-csv", series_file, _bounds("--format", "csv"), 0,
     "19eb976f59cf5d3ae6e23c02171b005add614308af0ecec57ec42c366e0e16c7"),
    # several rows of the valuation table lower entries
    ("verify-bounds-m0", multi_row_series_file,
     [["--format", fmt, "verify-bounds", "series0.json", "-m", "0"]
      for fmt in ("json", "text", "csv")], 0,
     "ceeb6db6f5a41b382e088a918ff6135fda2b7c3c16a07865450c39f2122bf92a"),
    ("verify-bounds-tamper", series_file,
     [_bounds()[0] + ["--tamper", "mobius:3"]], 1,
     "153630a0c1a175d1d40c0221b3abbf37b95be4cbdb15594287d4001e033935d4"),
    ("classify", param_files, [["classify", f"p{i}.json"] for i in range(6)], 0,
     "e4e11767502e0a2868dab2987440596f03bfe7d974e310f75200fdd9b0e587ba"),
    ("classify-N1000", high_precision_param_files,
     [["--precision", "1000", "--degree", "8", "classify", f"hp{i}.json"] for i in range(2)], 0,
     "e3beb56abce218dd2d37202f4565c8ab4961b7002cd42458f76369a7d81977ff"),
    ("analytic-level", glue_files,
     [["--p", "3", "--format", fmt, "analytic-level", f"glue{i}.json"]
      for i in range(2) for fmt in ("json", "text")], 0,
     "bd862948970e1be35a8cc33e0afaa01cb0271533e0743e168226734dddd9859e"),
    ("act", act_files,
     [["act", "actg.json", f"act{i}.json", f"actchi{k}.json"] for i in range(3) for k in (2, 4)], 0,
     "96ac94c65eac136e1c484bdcfca318a867cd69c3f04c58be0f9cd05917badf93"),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("build, argvs, code, digest", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_stdout_digest(build, argvs, code, digest, workdir, monkeypatch, capsys):
    if build is not None:
        build(workdir)
    monkeypatch.chdir(workdir)
    assert [main(argv) for argv in argvs] == [code] * len(argvs)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
