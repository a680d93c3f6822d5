"""End-to-end command-line behavior: exit codes, report formats, and
byte-stable output."""

import json
import pathlib
import time

import pytest

from rigidpadic import galois, io, selftest
from rigidpadic.actions import I1, InductionCharacter, IwahoriElement
from rigidpadic.analytic import is_analytic_vector
from rigidpadic.cli import _verdict_json, main
from rigidpadic.errors import (
    DivisionError,
    DomainError,
    InvariantViolation,
    ParameterError,
    ParameterMismatch,
    PrecisionError,
    RigidPadicError,
)
from rigidpadic.functions import MAX_LEVEL, PiecewiseFunction, StepFunction
from rigidpadic.galois import TriangulineParam, abs_x_character, x_character
from rigidpadic.galois import ContinuousCharacter
from rigidpadic.padic import PadicContext
from rigidpadic.series import TateSeries


@pytest.fixture()
def files(ctx, tmp_path):
    """A directory of well-formed input files for every command."""
    d = {}

    def put(name, kind, value, context=ctx):
        path = tmp_path / name
        path.write_text(io.wrap(kind, context, value), encoding="utf-8")
        d[name] = str(path)

    put("square.series.json", "series", TateSeries(ctx, 1, [0, 0, 1]))
    put("global.series.json", "series", TateSeries(ctx, 0, [3, 1]))
    put("indicator.function.json", "function", StepFunction.indicator_ball(ctx, 1))
    put("lower.matrix.json", "matrix", IwahoriElement(ctx, 1, 0, 5, 1, I1))
    put(
        "weight3.induction.json",
        "induction",
        InductionCharacter(ctx.from_int(5), ctx.from_int(10), 3),
    )
    put(
        "cris.param.json",
        "param",
        TriangulineParam(
            ContinuousCharacter(ctx.from_int(5), 1, ctx.from_int(36)),
            abs_x_character(ctx),
        ),
    )
    put(
        "star-only.param.json",
        "param",
        TriangulineParam(x_character(ctx), abs_x_character(ctx)),
    )
    small = PadicContext(p=5, N=20, D=32)
    put(
        "small.series.json",
        "series",
        TateSeries(small, 1, [0, 1]),
        context=small,
    )
    d["dir"] = str(tmp_path)
    return d


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_crystalline_member(self, files, capsys):
        code, out, _ = run(capsys, "classify", files["cris.param.json"])
        assert code == 0
        rep = json.loads(out)
        assert rep["S_star"] is True
        assert rep["S_cris"] is True
        assert rep["u"] == 1 and rep["w"] == 2

    def test_star_but_not_crystalline(self, files, capsys):
        code, out, _ = run(capsys, "classify", files["star-only.param.json"])
        assert code == 0
        rep = json.loads(out)
        assert rep["S_star"] is True
        assert rep["S_cris"] is False
        assert "u < w" in rep["S_cris_reason"]

    def test_text_format(self, files, capsys):
        code, out, _ = run(
            capsys, "--format", "text", "classify", files["cris.param.json"]
        )
        assert code == 0
        assert "S_star: true" in out

    def test_csv_format(self, files, capsys):
        code, out, _ = run(
            capsys, "--format", "csv", "classify", files["cris.param.json"]
        )
        assert code == 0
        rows = dict(
            line.split(",", 1) for line in out.strip().splitlines()[1:]
        )
        assert rows["S_star"] == "true"

    @pytest.mark.parametrize("name", ["cris.param.json", "star-only.param.json"])
    def test_one_star_evaluation(self, files, capsys, monkeypatch, name):
        # the crystalline result carries S_star, u and w, so the base locus
        # (two logarithms per character) is evaluated once per request
        calls = []
        star = galois.in_S_star
        monkeypatch.setattr(galois, "in_S_star", lambda s: calls.append(s) or star(s))
        code, out, _ = run(capsys, "classify", files[name])
        assert code == 0 and json.loads(out)["S_star"] is True
        assert len(calls) == 1

    @pytest.mark.parametrize("value", [3, 0.5, [1], None, "abc"])
    def test_non_rational_script_l_is_usage_error(self, files, capsys, tmp_path, value):
        doc = json.loads(pathlib.Path(files["cris.param.json"]).read_text(encoding="utf-8"))
        doc["payload"]["scriptL"] = value
        path = tmp_path / "bad.param.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2
        assert out == ""
        assert "scriptL must be" in err


class TestAct:
    def test_lower_translation_oracle(self, files, capsys, ctx):
        code, out, _ = run(
            capsys,
            "act",
            files["lower.matrix.json"],
            files["square.series.json"],
            files["weight3.induction.json"],
        )
        assert code == 0
        kind, _, g = io.load(out, "series")
        # lower unipotent with c = 5 translates: (z - 5)^2
        assert g.coeff(0).agrees_with(ctx.from_int(25))
        assert g.coeff(1).agrees_with(ctx.from_int(-10))
        assert g.coeff(2).agrees_with(ctx.one())

    def test_identity_output_canonical(self, files, capsys, ctx, tmp_path):
        ident = tmp_path / "id.matrix.json"
        ident.write_text(
            io.wrap("matrix", ctx, IwahoriElement(ctx, 1, 0, 0, 1, I1)),
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys,
            "act",
            str(ident),
            files["square.series.json"],
            files["weight3.induction.json"],
        )
        assert code == 0
        assert out == io.wrap("series", ctx, TateSeries(ctx, 1, [0, 0, 1]))

    def test_function_input(self, files, capsys):
        code, out, _ = run(
            capsys,
            "act",
            files["lower.matrix.json"],
            files["indicator.function.json"],
            files["weight3.induction.json"],
        )
        assert code == 0
        assert json.loads(out)["kind"] == "function"

    def test_wrong_kind_is_mismatch(self, files, capsys):
        code, _, err = run(
            capsys,
            "act",
            files["lower.matrix.json"],
            files["cris.param.json"],
            files["weight3.induction.json"],
        )
        assert code == 4
        assert "param" in err

    def test_out_flag_writes_file(self, files, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys,
            "act",
            files["lower.matrix.json"],
            files["square.series.json"],
            files["weight3.induction.json"],
            "--out",
            str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["kind"] == "series"

    def test_unwritable_out_is_usage_error(self, files, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "result.json"
        code, out, err = run(
            capsys,
            "act",
            files["lower.matrix.json"],
            files["square.series.json"],
            files["weight3.induction.json"],
            "--out",
            str(target),
        )
        assert code == 2
        assert out == ""
        assert "cannot write" in err


class TestAnalyticLevel:
    def test_indicator_minimum_level(self, files, capsys):
        code, out, _ = run(
            capsys, "analytic-level", files["indicator.function.json"]
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["min_level"] == 1
        assert rep["verdicts"][0] == {"m": 0, "analytic": False}
        assert rep["verdicts"][1] == {"m": 1, "analytic": True}

    def test_series_input_is_global(self, files, capsys):
        code, out, _ = run(
            capsys, "analytic-level", files["global.series.json"]
        )
        assert code == 0
        assert json.loads(out)["min_level"] == 0

    def test_max_level_flag(self, files, capsys):
        code, out, _ = run(
            capsys,
            "analytic-level",
            files["indicator.function.json"],
            "--max-level",
            "3",
        )
        assert code == 0
        assert len(json.loads(out)["verdicts"]) == 4

    def test_golden_glue_files_and_the_coarse_route(self, capsys, tmp_path):
        # the analytic-level golden files (tests/test_golden.py): a loaded
        # file has no coarse partition, so it runs the full gluing path, and
        # the in-memory refined functions (coarse route) must give its verdicts
        ctx = PadicContext(p=3)
        f = PiecewiseFunction.from_global_series(
            TateSeries(ctx, 0, [1, 3, 9, 2, 5, 7], 30)).refine(4)
        funcs = (f, f + StepFunction.indicator_ball(ctx, 2))
        for i, g in enumerate(funcs):
            path = tmp_path / f"glue{i}.json"
            path.write_text(io.wrap("function", ctx, g), encoding="utf-8")
            code, out, _ = run(capsys, "--p", "3", "analytic-level", str(path))
            assert code == 0
            assert [{"m": m, "analytic": _verdict_json(is_analytic_vector(g, m))}
                    for m in range(5)] == json.loads(out)["verdicts"]

    def test_negative_max_level_is_usage_error(self, files, capsys):
        code, out, err = run(
            capsys,
            "analytic-level",
            files["indicator.function.json"],
            "--max-level",
            "-1",
        )
        assert code == 2
        assert out == ""
        assert "--max-level" in err

    @pytest.mark.parametrize("level", [MAX_LEVEL + 1, 10 ** 9])
    def test_max_level_above_the_deepest_leaf_level_is_usage_error(
        self, files, capsys, level
    ):
        code, out, err = run(
            capsys,
            "analytic-level",
            files["indicator.function.json"],
            "--max-level",
            str(level),
        )
        assert code == 2
        assert out == ""
        assert f"[0, {MAX_LEVEL}]" in err


class TestVerifyBounds:
    def test_certified_series_passes(self, files, capsys):
        code, out, _ = run(
            capsys, "verify-bounds", files["square.series.json"], "-m", "1"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["ok"] is True
        assert all(
            e["margin"] == "inf" or e["margin"] >= 0 for e in rep["entries"]
        )

    def test_tamper_fails_with_named_entry(self, files, capsys):
        code, out, err = run(
            capsys,
            "verify-bounds",
            files["square.series.json"],
            "-m",
            "1",
            "--tamper",
            "translation:1",
        )
        assert code == 1
        assert "translation[1]" in err
        rep = json.loads(out)
        bad = [e for e in rep["entries"] if e["margin"] != "inf" and e["margin"] < 0]
        assert len(bad) == 1 and bad[0]["family"] == "translation"

    @pytest.mark.parametrize("kind", [[], {}], ids=["array", "object"])
    def test_non_string_kind_is_usage_error(self, files, capsys, tmp_path, kind):
        doc = json.loads(pathlib.Path(files["square.series.json"]).read_text(encoding="utf-8"))
        doc["kind"] = kind
        path = tmp_path / "bad.series.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "verify-bounds", str(path), "-m", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "unknown kind" in err
        assert len(err.strip().splitlines()) == 1

    def test_level_mismatch_is_domain_error(self, files, capsys):
        code, _, err = run(
            capsys, "verify-bounds", files["global.series.json"], "-m", "1"
        )
        assert code == 3
        assert "level" in err

    def test_bad_tamper_spec_is_usage_error(self, files, capsys):
        code, _, _ = run(
            capsys,
            "verify-bounds",
            files["square.series.json"],
            "-m",
            "1",
            "--tamper",
            "rotation:0",
        )
        assert code == 2

    def test_out_of_range_tamper_index_is_usage_error(self, files, capsys):
        code, out, err = run(
            capsys,
            "verify-bounds",
            files["square.series.json"],
            "-m",
            "1",
            "--tamper",
            "mobius:999",
        )
        assert code == 2
        assert out == ""
        assert "tamper index 999" in err


class TestWitnessAndCokernelEq:
    def test_witness_roundtrip_equal_to_itself(self, files, capsys, tmp_path):
        first = tmp_path / "w1.json"
        code, _, err = run(
            capsys,
            "witness",
            "--alpha", "10",
            "--beta", "15",
            "--k", "3",
            "--out", str(first),
        )
        assert code == 0
        assert "conclusion" in err
        code, out, _ = run(
            capsys, "cokernel-eq", str(first), str(first)
        )
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_witness_without_out_writes_the_file_bytes_to_stdout(self, capsys, tmp_path):
        target = tmp_path / "w.json"
        flags = ("witness", "--alpha", "10", "--beta", "15", "--k", "3")
        code, out, err = run(capsys, *flags)
        assert code == 0
        assert run(capsys, *flags, "--out", str(target)) == (0, "", err)
        assert target.read_text(encoding="utf-8") == out

    def test_witness_slope_violation_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "witness", "--alpha", "5", "--beta", "25", "--k", "3"
        )
        assert code == 2
        assert "valp" in err

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "w.json"
        code, out, err = run(
            capsys,
            "witness",
            "--alpha", "25", "--beta", "5", "--k", "4",
            "--out", str(target),
        )
        assert code == 2
        assert out == ""
        assert "cannot write" in err

    @pytest.mark.parametrize("alpha", ["abc", "1/0"])
    def test_unparsable_alpha_is_usage_error(self, capsys, alpha):
        code, out, err = run(
            capsys, "witness", "--alpha", alpha, "--beta", "5", "--k", "3"
        )
        assert code == 2
        assert out == ""
        assert "not a rational number" in err

    def test_unknown_embedding_rejected_by_parser(self, files, capsys, tmp_path):
        first = tmp_path / "w1.json"
        run(
            capsys,
            "witness",
            "--alpha", "10", "--beta", "15", "--k", "3",
            "--out", str(first),
        )
        with pytest.raises(SystemExit) as ei:
            run(
                capsys,
                "cokernel-eq", str(first), str(first),
                "--embedding", "gamma",
            )
        assert ei.value.code == 2


class TestExitCodes:
    def test_empty_file_is_usage_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "classify", str(empty))
        assert code == 2
        assert "malformed" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "classify", "/nonexistent/param.json")
        assert code == 2
        assert "cannot read" in err

    def test_context_mismatch_is_exit_four(self, files, capsys):
        code, _, err = run(
            capsys, "verify-bounds", files["small.series.json"], "-m", "1"
        )
        assert code == 4
        assert "context" in err

    def test_matrix_outside_level_is_domain_error(self, files, capsys, ctx, tmp_path):
        # entries claim level 2 but the off-diagonal only has valuation 1
        text = io.wrap("matrix", ctx, IwahoriElement(ctx, 1, 0, 5, 1, I1)).replace(
            '"level": "I1"', '"level": 2'
        )
        bad = tmp_path / "bad.matrix.json"
        bad.write_text(text, encoding="utf-8")
        code, _, err = run(
            capsys,
            "act",
            str(bad),
            files["square.series.json"],
            files["weight3.induction.json"],
        )
        assert code == 3
        assert "level" in err

    def test_float_leaf_center_is_usage_error(self, files, capsys, tmp_path):
        # a float centre used to be truncated to an integer and accepted
        text = pathlib.Path(files["indicator.function.json"]).read_text(encoding="utf-8")
        bad = tmp_path / "float.function.json"
        bad.write_text(text.replace('"center": 1', '"center": 1.9'), encoding="utf-8")
        code, out, err = run(capsys, "analytic-level", str(bad))
        assert code == 2
        assert out == ""
        assert "'center' must be an integer" in err

    def test_huge_prime_is_decided_without_trial_division(self, files, capsys):
        # 10**18 + 3 is prime; trial division up to its square root would
        # not finish, so reaching the context check proves the fast test
        code, _, err = run(
            capsys, "--p", "1000000000000000003", "classify", files["cris.param.json"]
        )
        assert code == 4
        assert "p=1000000000000000003" in err

    def test_prime_beyond_certified_range_is_usage_error(self, files, capsys):
        code, _, err = run(
            capsys, "--p", str(10 ** 25 + 13), "classify", files["cris.param.json"]
        )
        assert code == 2
        assert "cannot certify primality" in err

    def test_huge_degree_is_refused_early(self, capsys):
        # D = 10**8 would make every orbit routine allocate O(D) to O(D**2)
        start = time.perf_counter()
        code, out, err = run(capsys, "--degree", "100000000", "selftest")
        assert code == 2
        assert out == ""
        assert "truncation degree" in err
        assert time.perf_counter() - start < 5

    def test_huge_degree_in_file_header_is_usage_error(self, files, capsys, tmp_path):
        doc = json.loads(pathlib.Path(files["square.series.json"]).read_text(encoding="utf-8"))
        doc["context"]["D"] = 100000000
        path = tmp_path / "huge.series.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "verify-bounds", str(path), "-m", "1")
        assert code == 2
        assert out == ""
        assert "truncation degree" in err

    def test_slack_at_the_precision_is_usage_error(self, capsys):
        # kappa = N would let any two nonzero values agree
        code, out, err = run(capsys, "--precision", "6", "--slack", "6", "selftest")
        assert code == 2
        assert out == ""
        assert "slack kappa" in err

    def test_slack_flag_overrides_a_header_slack_at_the_precision(self, files, capsys, tmp_path):
        # the run-time --slack replaces the header's kappa, which is then
        # not range-checked; read with no context, the header is refused
        text = pathlib.Path(files["square.series.json"]).read_text(encoding="utf-8")
        doc = json.loads(text)
        doc["context"]["kappa"] = doc["context"]["N"]
        path = tmp_path / "slack.series.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        want = run(capsys, "verify-bounds", files["square.series.json"], "-m", "1")
        assert run(capsys, "verify-bounds", str(path), "-m", "1") == want
        assert want[0] == 0
        with pytest.raises(ParameterError, match="slack kappa"):
            io.load(json.dumps(doc))

    @pytest.mark.parametrize("error, want, prefix", [
        (ParameterMismatch, 4, "error: "),
        (DomainError, 3, "error: "),
        (DivisionError, 3, "error: "),
        (PrecisionError, 3, "error: "),
        (ParameterError, 2, "error: "),
        (InvariantViolation, 1, "internal invariant failed: "),
        (RigidPadicError, 1, "error: "),
    ])
    def test_library_error_maps_to_its_exit_code(
            self, files, capsys, monkeypatch, error, want, prefix):
        def fail(_param):
            raise error("planted")

        monkeypatch.setattr(galois, "in_S_cris", fail)
        got = run(capsys, "classify", files["cris.param.json"])
        assert got == (want, "", prefix + "planted\n")

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["frobnicate"])
        assert ei.value.code == 2


class TestGlobalFlags:
    def test_flags_accepted_on_both_sides(self, files, capsys):
        c1, out1, _ = run(
            capsys, "--precision", "20", "--degree", "32",
            "verify-bounds", files["small.series.json"], "-m", "1",
        )
        c2, out2, _ = run(
            capsys, "verify-bounds", files["small.series.json"], "-m", "1",
            "--precision", "20", "--degree", "32",
        )
        assert c1 == c2 == 0
        assert out1 == out2

    def test_post_subcommand_flag_overrides(self, files, capsys):
        code, _, err = run(
            capsys,
            "--precision", "40",
            "verify-bounds", files["small.series.json"], "-m", "1",
            "--precision", "20", "--degree", "32",
        )
        assert code == 0


    def test_consecutive_calls_share_no_state(self, files, capsys):
        # main builds its parser once per process: flags given on either
        # side of one subcommand must not carry over into the next call
        classify = ("classify", files["cris.param.json"])
        padic = ("selftest", "--only", "padic/", "--count", "1")
        fresh_classify = run(capsys, *classify)
        fresh_padic = run(capsys, *padic)
        assert fresh_classify[0] == fresh_padic[0] == 0
        code, out, _ = run(capsys, "--p", "7", "--format", "text", "--seed", "3", *padic)
        assert code == 0 and "config.p: 7" in out and "config.seed: 3" in out
        # a leaked --p 7 would refuse the p = 5 file with exit 4
        assert run(capsys, *classify) == fresh_classify
        code, out, _ = run(capsys, *padic, "--p", "7", "--format", "csv", "--seed", "3")
        assert code == 0 and out.startswith("cases,")
        assert run(capsys, *padic) == fresh_padic
        code, out, _ = run(capsys, "selftest", "--only", "padic/valuation")
        assert code == 0
        rep = json.loads(out)
        assert rep["config"] == {"D": 64, "N": 40, "count_override": None,
                                 "kappa": 4, "p": 5, "seed": 0}


def _scripted(details):
    """A case function that returns the given details in turn."""
    it = iter(details)
    return lambda _ctx, _rng: next(it)


def _raises(_ctx, _rng):
    raise RigidPadicError("bad")


def _planted_suites():
    return [("fake/pass", 1, _scripted([None])),
            ("fake/boom", 3, _scripted(["boom", None, "boom"])),
            ("fake/raise", 1, _raises)]


class TestSelftest:
    def test_failing_suites_are_reported(self, ctx, capsys, monkeypatch):
        monkeypatch.setattr(selftest, "SUITES", _planted_suites())
        report = selftest.run_selftest(ctx)
        assert report["suites"] == [
            {"name": "fake/pass", "cases": 1, "failed": 0, "ok": True},
            {"name": "fake/boom", "cases": 3, "failed": 2, "ok": False,
             "first_failure": {"case": 0, "detail": "boom"}},
            {"name": "fake/raise", "cases": 1, "failed": 1, "ok": False,
             "first_failure": {"case": 0, "detail": "unexpected error: bad"}},
        ]
        assert report["ok"] is False
        monkeypatch.setattr(selftest, "SUITES", _planted_suites())
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert json.loads(out) == report

    def test_single_case_smoke(self, capsys):
        code, out, _ = run(capsys, "selftest", "--count", "1")
        assert code == 0
        rep = json.loads(out)
        assert rep["ok"] is True
        assert rep["config"]["count_override"] == 1

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_usage_error(self, capsys, count):
        code, out, err = run(capsys, "selftest", "--count", count)
        assert code == 2
        assert out == ""
        assert "--count" in err

    def test_deterministic_at_same_seed(self, capsys):
        _, out1, _ = run(capsys, "--seed", "7", "selftest", "--count", "2")
        _, out2, _ = run(capsys, "--seed", "7", "selftest", "--count", "2")
        assert out1 == out2

    def test_seed_changes_report(self, capsys):
        _, out1, _ = run(capsys, "--seed", "1", "selftest", "--count", "2")
        _, out2, _ = run(capsys, "--seed", "2", "selftest", "--count", "2")
        assert out1 != out2

    def test_only_filter(self, capsys):
        code, out, _ = run(capsys, "selftest", "--only", "galois", "--count", "1")
        assert code == 0
        rep = json.loads(out)
        assert rep["suites"] and all("galois" in s["name"] for s in rep["suites"])

    def test_only_filter_matching_no_suite_is_usage_error(self, capsys):
        # a mistyped filter must not run nothing and read as a pass
        code, out, err = run(capsys, "selftest", "--only", "nosuch")
        assert code == 2
        assert out == ""
        assert "nosuch" in err and "actions/cell-associativity" in err
