"""Command-line surface.

Commands: classify, act, analytic-level, verify-bounds, cokernel-eq,
witness, selftest.  All reports go to stdout in the selected format
(canonical JSON by default); progress and diagnostics go to stderr.

Exit codes:
    0  success
    1  property or verification failure
    2  usage error (bad flags, malformed files)
    3  domain or level error
    4  parameter mismatch between inputs
"""

from __future__ import annotations

import argparse
import csv
import functools
import io as _stringio
import sys
from dataclasses import dataclass
from typing import List, Optional

from . import analytic, galois, io, selftest
from .actions import act
from .errors import (
    BoundViolation,
    DivisionError,
    DomainError,
    InvariantViolation,
    ParameterError,
    ParameterMismatch,
    PrecisionError,
    RigidPadicError,
    _int_param,
)
from .functions import MAX_LEVEL, PiecewiseFunction
from .padic import INF, PadicContext
from .series import TateSeries
from .verdict import Verdict

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_MISMATCH = 4


@dataclass(frozen=True)
class RunConfig:
    ctx: PadicContext
    seed: int
    fmt: str


# -- report rendering ----------------------------------------------------------


def _flatten(prefix: str, value, out: List[str]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}{key}." if prefix else f"{key}.", value[key], out)
        return
    if isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}{i}.", item, out)
        return
    # scalar tokens match the JSON rendering across all formats
    if value is True:
        value = "true"
    elif value is False:
        value = "false"
    elif value is None:
        value = "null"
    out.append(f"{prefix[:-1]}: {value}")


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return io.dumps_canonical(report)
    if fmt == "text":
        lines: List[str] = []
        _flatten("", report, lines)
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        rows = None
        for key in ("entries", "suites"):
            if isinstance(report.get(key), list):
                rows = report[key]
                break
        buf = _stringio.StringIO()
        if rows:
            fields = sorted({k for row in rows for k in row})
            writer = csv.DictWriter(buf, fieldnames=fields, restval="")
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        else:
            writer = csv.writer(buf)
            lines = []
            _flatten("", report, lines)
            writer.writerow(["key", "value"])
            for line in lines:
                key, _, val = line.partition(": ")
                writer.writerow([key, val])
        return buf.getvalue()
    raise ParameterError(f"unknown format {fmt!r}")


def _emit(report: dict, cfg: RunConfig) -> None:
    sys.stdout.write(render(report, cfg.fmt))


def _verdict_json(v: Verdict):
    if v is Verdict.YES:
        return True
    if v is Verdict.NO:
        return False
    return "indeterminate"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc


# -- commands ------------------------------------------------------------------


def cmd_classify(cfg: RunConfig, args) -> int:
    _, _, param = io.load(_read(args.param_file), "param", cfg.ctx)
    cris = galois.in_S_cris(param)
    ext = galois.ext1_dimension(param.delta1, param.delta2)
    w_repr: object = cris.w.to_string()
    if cris.w_integer is not None:
        w_repr = cris.w_integer
    report = {
        "S_star": cris.in_star,
        "S_cris": _verdict_json(cris.status),
        "S_cris_reason": cris.reason,
        "u": cris.u,
        "w": w_repr,
        "ext1_dimension": ext.dimension,
        "ext1_matched_form": ext.matched_form,
        "ext1_status": _verdict_json(ext.status),
    }
    _emit(report, cfg)
    return EXIT_OK


def _function_val_c(f: PiecewiseFunction):
    return min(lf.series.val_c() for lf in f.leaves)


def cmd_act(cfg: RunConfig, args) -> int:
    _, _, g = io.load(_read(args.matrix_file), "matrix", cfg.ctx)
    kind, _, f = io.load(_read(args.function_file), None, cfg.ctx)
    if kind not in ("series", "function"):
        raise ParameterMismatch(f"act expects a series or function file, found {kind}")
    _, _, chi = io.load(_read(args.character_file), "induction", cfg.ctx)
    before = f.val_c() if isinstance(f, TateSeries) else _function_val_c(f)
    out = act(g, f, chi)
    after = out.val_c() if isinstance(out, TateSeries) else _function_val_c(out)

    def fmt_v(v):
        return "inf" if v is INF else str(v)

    print(f"val_C before: {fmt_v(before)}", file=sys.stderr)
    print(f"val_C after:  {fmt_v(after)}", file=sys.stderr)
    text = io.wrap(kind, cfg.ctx, out)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_analytic_level(cfg: RunConfig, args) -> int:
    if args.max_level is not None:
        _int_param("--max-level", args.max_level, 0, MAX_LEVEL)
    kind, _, f = io.load(_read(args.function_file), None, cfg.ctx)
    if kind == "series":
        f = PiecewiseFunction.from_global_series(f)
    elif kind != "function":
        raise ParameterMismatch(f"expected a function or series file, found {kind}")
    top = args.max_level if args.max_level is not None else f.max_level()
    verdicts = []
    min_level: Optional[int] = None
    for m in range(0, top + 1):
        v = analytic.is_analytic_vector(f, m)
        verdicts.append({"m": m, "analytic": _verdict_json(v)})
        if v is Verdict.YES and min_level is None:
            min_level = m
    report = {"min_level": min_level, "verdicts": verdicts}
    _emit(report, cfg)
    return EXIT_OK


def cmd_verify_bounds(cfg: RunConfig, args) -> int:
    _, _, f = io.load(_read(args.series_file), "series", cfg.ctx)
    tamper = None
    if args.tamper:
        fam, _, idx = args.tamper.partition(":")
        if fam not in analytic.FAMILIES or not idx.isdigit():
            raise ParameterError(
                f"--tamper wants family:index with family in {analytic.FAMILIES}"
            )
        tamper = (fam, int(idx))
    try:
        report = analytic.verify_bounds(f, args.m, tamper=tamper)
    except BoundViolation as exc:
        if exc.report is not None:
            _emit(exc.report.to_dict(), cfg)
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    _emit(report.to_dict(), cfg)
    return EXIT_OK


def cmd_cokernel_eq(cfg: RunConfig, args) -> int:
    _, _, c1 = io.load(_read(args.first), "cokernel", cfg.ctx)
    _, _, c2 = io.load(_read(args.second), "cokernel", cfg.ctx)
    _emit({"equal": analytic.cokernel_equal(c1, c2), "embedding": "beta"}, cfg)
    return EXIT_OK


def cmd_witness(cfg: RunConfig, args) -> int:
    ctx = cfg.ctx
    elem, proof = analytic.witness_nonzero(
        ctx, ctx.num(args.alpha), ctx.num(args.beta), args.k, args.n, args.m
    )
    for key in sorted(proof):
        print(f"{key}: {proof[key]}", file=sys.stderr)
    text = io.wrap("cokernel", ctx, elem)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_selftest(cfg: RunConfig, args) -> int:
    if args.count is not None:
        _int_param("--count", args.count, 1)
    report = selftest.run_selftest(
        cfg.ctx, seed=cfg.seed, count_override=args.count, only=args.only
    )
    _emit(report, cfg)
    return EXIT_OK if report["ok"] else EXIT_FAILURE


# -- argument plumbing ---------------------------------------------------------


def _global_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    # registered on the top parser with real defaults and on every
    # subparser with SUPPRESS, so the flags work on either side of the
    # subcommand without the subparser wiping out values parsed earlier
    d = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    parser.add_argument("--p", type=int, default=d(5), help="odd prime below 3.3e24 (default 5)")
    parser.add_argument(
        "--precision", type=int, default=d(40), metavar="N",
        help="relative precision in digits (default 40)",
    )
    parser.add_argument(
        "--degree", type=int, default=d(64), metavar="D",
        help="series truncation degree (default 64)",
    )
    parser.add_argument(
        "--slack", type=int, default=d(4), metavar="KAPPA",
        help="comparison slack in digits, below N (default 4)",
    )
    parser.add_argument("--seed", type=int, default=d(0), help="seed for randomized suites")
    parser.add_argument(
        "--format", choices=("json", "csv", "text"), default=d("json"),
        help="report format (default json)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidpadic",
        description="Rigid analytic function models on Z_p: actions, membership, classification.",
    )
    _global_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kw) -> argparse.ArgumentParser:
        q = sub.add_parser(name, **kw)
        _global_flags(q, top=False)
        return q

    c = add_parser("classify", help="classification report for a parameter file")
    c.add_argument("param_file")
    c.set_defaults(run=cmd_classify)

    c = add_parser("act", help="apply a group element to a series or function")
    c.add_argument("matrix_file")
    c.add_argument("function_file")
    c.add_argument("character_file")
    c.add_argument("--out", help="write the result here instead of stdout")
    c.set_defaults(run=cmd_act)

    c = add_parser(
        "analytic-level", help="smallest ball level at which a function is analytic"
    )
    c.add_argument("function_file")
    c.add_argument("--max-level", type=int, default=None)
    c.set_defaults(run=cmd_analytic_level)

    c = add_parser("verify-bounds", help="orbit-expansion valuation certificates")
    c.add_argument("series_file")
    c.add_argument("-m", type=int, required=True, help="ball level of the series")
    c.add_argument(
        "--tamper", default=None, metavar="FAMILY:INDEX",
        help="deliberately corrupt one component (failure-path testing)",
    )
    c.set_defaults(run=cmd_verify_bounds)

    c = add_parser("cokernel-eq", help="compare two cokernel classes")
    c.add_argument("first")
    c.add_argument("second")
    c.set_defaults(run=cmd_cokernel_eq)

    c = add_parser("witness", help="construct a provably nonzero cokernel class")
    c.add_argument("--alpha", required=True)
    c.add_argument("--beta", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--n", type=int, default=1)
    c.add_argument("--m", type=int, default=2)
    c.add_argument("--out", help="write the class here instead of stdout")
    c.set_defaults(run=cmd_witness)

    c = add_parser("selftest", help="run the seeded property suites")
    c.add_argument("--count", type=int, default=None, help="override every suite's case count")
    c.add_argument("--only", default=None, help="substring filter on suite names")
    c.set_defaults(run=cmd_selftest)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # parsing never mutates the parser, so one instance serves every call
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        ctx = PadicContext(p=args.p, N=args.precision, D=args.degree, kappa=args.slack)
        cfg = RunConfig(ctx, args.seed, args.format)
        return args.run(cfg, args)
    except ParameterMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (DomainError, DivisionError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BoundViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except RigidPadicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
