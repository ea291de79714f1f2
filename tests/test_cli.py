import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from octomono import cli
from octomono.cli import _check_row, _trig_points, main
from octomono.trig_series import TruncationPolicy, cot, csc, sec, tan

TOP_KEYS = ["command", "params", "seed", "results", "elapsed_ms"]
ROW_KEYS = ["name", "value", "target", "residual", "tolerance", "tail_bound", "pass"]


STRIP_EVAL = [
    "eval-kernel", "--kernel", "szego_strip", "--z", "0.5", "--w", "0.5", "--d", "1"
]
STRIP_MC = ["reproduce", "--experiment", "szego_strip", "--samples", "1000"]
BALL_MC = ["reproduce", "--experiment", "cauchy_ball", "--samples", "1000"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strip_elapsed(text: str) -> str:
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": X', text)


class TestReportShape:
    def test_top_level_and_row_key_order(self, capsys):
        code, out = run_cli(capsys, "algebra", "--trials", "200")
        assert code == 0
        report = json.loads(out)
        assert list(report.keys()) == TOP_KEYS
        assert report["command"] == "algebra"
        assert report["seed"] == 42
        assert report["results"], "algebra must emit rows"
        for row in report["results"]:
            assert list(row.keys()) == ROW_KEYS

    def test_params_never_include_threads(self, capsys):
        _, out = run_cli(
            capsys,
            "reproduce",
            "--experiment",
            "cauchy_ball",
            "--samples",
            "2000",
            "--threads",
            "3",
        )
        report = json.loads(out)
        assert "threads" not in report["params"]

    def test_seed_flag_respected_in_any_position(self, capsys):
        _, before = run_cli(capsys, "--seed", "7", "algebra", "--trials", "100")
        _, after = run_cli(capsys, "algebra", "--trials", "100", "--seed", "7")
        assert strip_elapsed(before) == strip_elapsed(after)
        assert json.loads(before)["seed"] == 7


class TestDeterminism:
    def test_rerun_byte_identical_modulo_elapsed(self, capsys):
        argv = ("reproduce", "--experiment", "szego_ball", "--samples", "20000")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert strip_elapsed(first) == strip_elapsed(second)

    @pytest.mark.parametrize("threads", ["2", "4"])
    def test_thread_count_never_changes_bytes(self, capsys, threads):
        base = ("reproduce", "--experiment", "cauchy_ball", "--samples", "150000")
        _, one = run_cli(capsys, *base, "--threads", "1")
        _, many = run_cli(capsys, *base, "--threads", threads)
        assert strip_elapsed(one) == strip_elapsed(many)


class TestEvalKernel:
    def test_ball_szego_frozen_value(self, capsys):
        code, out = run_cli(
            capsys, "eval-kernel", "--kernel", "szego_ball", "--z", "0.5", "--w", "0.5"
        )
        assert code == 0
        row = json.loads(out)["results"][0]
        assert abs(row["value"][0] - 7.491540923639689) < 1e-12
        # a plain evaluation has nothing to check against: verdict null
        assert row["pass"] is None and row["target"] is None

    def test_half_space_bergman_frozen_value(self, capsys):
        code, out = run_cli(
            capsys,
            "eval-kernel",
            "--kernel",
            "bergman_halfspace",
            "--z",
            "1",
            "--w",
            "1",
        )
        assert code == 0
        row = json.loads(out)["results"][0]
        assert abs(row["value"][0] - 7.0 / 128.0) < 1e-15

    def test_strip_methods_cross_check(self, capsys):
        code, out = run_cli(
            capsys,
            "eval-kernel",
            "--kernel",
            "szego_strip",
            "--z",
            "0.5",
            "--w",
            "0.5",
            "--d",
            "1",
            "--method",
            "both",
        )
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["results"]}
        series = rows["szego_strip[series]"]
        assert abs(series["value"][0] - 1.9991090157810752) < 1e-11
        assert series["tail_bound"] is not None
        assert "szego_strip[closed_form]" in rows
        delta = rows["cross_method_delta"]
        assert delta["pass"] is True
        assert delta["residual"] <= delta["tolerance"]

    def test_strip_bergman_reports_half_step_variant_as_unavailable_at_pole(
        self, capsys
    ):
        # the faithful closed form agrees; the denser-lattice variant hits
        # a spurious pole at this argument and its row reports null
        code, out = run_cli(
            capsys,
            "eval-kernel",
            "--kernel",
            "bergman_strip",
            "--z",
            "0.5",
            "--w",
            "0.5",
            "--d",
            "1",
            "--method",
            "both",
        )
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["results"]}
        assert abs(rows["bergman_strip[series]"]["value"][0] - 28.004345012707246) < 1e-10
        assert rows["cross_method_delta"]["pass"] is True
        assert rows["half_step_variant_delta"]["value"] is None

    def test_octonion_literal_forms_agree(self, capsys):
        _, bracket = run_cli(
            capsys,
            "eval-kernel",
            "--kernel",
            "szego_halfspace",
            "--z",
            "[1,1,0,0,0,0,0,0]",
            "--w",
            "1",
        )
        _, textual = run_cli(
            capsys,
            "eval-kernel",
            "--kernel",
            "szego_halfspace",
            "--z",
            "1 + 1 e1",
            "--w",
            "1",
        )
        a = json.loads(bracket)["results"][0]["value"]
        b = json.loads(textual)["results"][0]["value"]
        assert a == b

    def test_missing_strip_width_is_usage_error(self, capsys):
        code, _ = run_cli(
            capsys, "eval-kernel", "--kernel", "szego_strip", "--z", "0.5", "--w", "0.5"
        )
        assert code == 2

    def test_exterior_strip_argument_is_usage_error(self, capsys):
        code, _ = run_cli(
            capsys,
            "eval-kernel",
            "--kernel",
            "szego_strip",
            "--z",
            "1.5",
            "--w",
            "0.5",
            "--d",
            "1",
        )
        assert code == 2


class TestVerificationSuites:
    def test_trig_suite_passes_and_reports_combined_relation(self, capsys):
        code, out = run_cli(capsys, "trig", "--points", "5")
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["results"]}
        assert rows["duplication_max"]["pass"] is True
        assert rows["tan_relation_max"]["pass"] is True
        assert rows["csc_relation_max"]["pass"] is True
        assert rows["sec_definition_max"]["pass"] is True
        # informational rows carry no verdict but must show the split
        dup = rows["combined_against_duplication_max"]
        two = rows["combined_against_two_cot_max"]
        assert dup["pass"] is None and two["pass"] is None
        assert two["value"] < 1e-9
        assert dup["value"] > 1e-3
        for name in ("cot", "tan", "csc", "sec"):
            assert rows[f"oregularity_{name}"]["pass"] is True

    IDENTITY_ROWS = (
        "duplication_max", "tan_relation_max", "csc_relation_max", "sec_definition_max"
    )
    OREG_ROWS = tuple(f"oregularity_{n}" for n in ("cot", "tan", "csc", "sec"))

    def test_trig_default_bars(self, capsys):
        code, out = run_cli(capsys, "trig", "--points", "50")
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["results"]}
        assert all(rows[n]["tolerance"] == 1e-9 for n in self.IDENTITY_ROWS)
        assert all(rows[n]["tolerance"] == 1e-6 for n in self.OREG_ROWS)
        assert all(rows[n]["tail_bound"] is None for n in self.IDENTITY_ROWS + self.OREG_ROWS)

    def test_trig_difference_bar_follows_fd_step(self, capsys):
        # O(h^2) difference error: at h = 1e-4 the residuals reach a few
        # 1e-6, above the default step's bar, on functions that are monogenic
        code, out = run_cli(capsys, "--fd-step", "1e-4", "trig", "--points", "50")
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["results"]}
        bar = 1e-6 * (1e-4 / 1e-5) ** 2
        assert all(rows[n]["tolerance"] == bar for n in self.OREG_ROWS)
        assert max(rows[n]["residual"] for n in self.OREG_ROWS) > 1e-6
        assert all(rows[n]["pass"] for n in self.OREG_ROWS)

    def test_trig_identity_bars_follow_tail_tol(self, capsys):
        code, out = run_cli(capsys, "--tail-tol", "1e-6", "trig", "--points", "50")
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["results"]}
        # the bars are the coefficient-weighted tail bounds of the sums
        policy = TruncationPolicy(tail_tol=1e-6)
        pts = _trig_points(np.random.default_rng(42), 50)
        shifted = pts + np.eye(8)[0] * (math.pi / 2.0)
        tail = {
            "cot": cot(pts, policy).tail_bound,
            "cot2": cot(2.0 * pts, policy).tail_bound,
            "tan": tan(pts, policy).tail_bound,
            "csc": csc(pts, policy).tail_bound,
            "cot_half": cot(0.5 * pts, policy).tail_bound,
            "sec": sec(pts, policy).tail_bound,
            "csc_shift": csc(shifted, policy).tail_bound,
        }
        want = {
            "duplication_max": 128.0 * tail["cot2"] + tail["cot"] + tail["tan"],
            "tan_relation_max": tail["tan"] + tail["cot"] + 128.0 * tail["cot2"],
            "csc_relation_max": tail["csc"] + tail["cot_half"] / 64.0 + tail["cot"],
            "sec_definition_max": tail["sec"] + tail["csc_shift"],
        }
        for name in self.IDENTITY_ROWS:
            assert rows[name]["tolerance"] == pytest.approx(want[name], rel=1e-12)
            assert rows[name]["pass"] is True
        assert max(rows[n]["residual"] for n in self.IDENTITY_ROWS) > 1e-9

    def test_trig_residual_above_derived_bar_fails(self, capsys, monkeypatch):
        argv = ("--tail-tol", "1e-6", "--fd-step", "1e-4", "trig", "--points", "50")
        rows = {r["name"]: r for r in json.loads(run_cli(capsys, *argv)[1])["results"]}
        dup_bar = rows["duplication_max"]["tolerance"]
        fd_bar = rows["oregularity_cot"]["tolerance"]
        for scale, passed in ((0.99, True), (1.01, False)):
            monkeypatch.setattr(
                cli, "duplication_residual", lambda z, policy: np.full(len(z), scale * dup_bar)
            )
            monkeypatch.setattr(cli, "o_regularity_residual", lambda f, z, h: scale * fd_bar)
            code, out = run_cli(capsys, *argv)
            rows = {r["name"]: r for r in json.loads(out)["results"]}
            assert rows["duplication_max"]["pass"] is passed
            assert all(rows[n]["pass"] is passed for n in self.OREG_ROWS)
            assert code == (0 if passed else 1)

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("step", ["1e-9", "1e-8"])
    def test_trig_difference_bar_covers_roundoff(self, capsys, seed, step):
        # O(eps/h) roundoff: at h = 1e-9 the residuals reach a few 1e-6 on
        # functions that are monogenic
        argv = ("--seed", str(seed), "--fd-step", step, "trig", "--points", "50")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["results"]}
        pts = _trig_points(np.random.default_rng(seed), 50)
        f_max = max(
            float(np.linalg.norm(fn(pts).value, axis=1).max()) for fn in (cot, tan, csc, sec)
        )
        bar = max(1e-6, 16.0 * np.finfo(np.float64).eps * f_max / float(step))
        for n in self.OREG_ROWS:
            assert rows[n]["tolerance"] == pytest.approx(bar, rel=1e-12)
            assert rows[n]["pass"] is True

    def test_trig_roundoff_bar_is_strict(self, capsys, monkeypatch):
        argv = ("--fd-step", "1e-9", "trig", "--points", "50")
        rows = {r["name"]: r for r in json.loads(run_cli(capsys, *argv)[1])["results"]}
        fd_bar = rows["oregularity_cot"]["tolerance"]
        assert fd_bar > 1e-6
        for scale, passed in ((0.99, True), (1.01, False)):
            monkeypatch.setattr(cli, "o_regularity_residual", lambda f, z, h: scale * fd_bar)
            code, out = run_cli(capsys, *argv)
            rows = {r["name"]: r for r in json.loads(out)["results"]}
            assert all(rows[n]["pass"] is passed for n in self.OREG_ROWS)
            assert code == (0 if passed else 1)

    def test_algebra_suite_small_trials(self, capsys):
        code, out = run_cli(capsys, "algebra", "--trials", "500")
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["results"]}
        assert rows["table_vs_cayley_dickson"]["tolerance"] == 1e-14
        assert rows["norm_composition_rel"]["tolerance"] == 1e-12
        assert all(r["pass"] for r in rows.values())


class TestCheckRow:
    @pytest.mark.parametrize(
        "residual", [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")]
    )
    def test_non_finite_residual_fails(self, residual):
        # -inf <= tol is True and nan <= tol only happens to be False
        row = _check_row("x", residual, 0.0, residual, 1e-6)
        assert row["pass"] is False

    @pytest.mark.parametrize(
        "residual, passed",
        [(0.0, True), (1e-6, True), (-1.0, True), (np.float64(5e-7), True), (2e-6, False)],
    )
    def test_finite_residual_verdict_unchanged(self, residual, passed):
        row = _check_row("x", 1.5, 0.0, residual, 1e-6, tail_bound=1e-13, d=2.0)
        assert row == {
            "name": "x",
            "value": 1.5,
            "target": 0.0,
            "residual": residual,
            "tolerance": 1e-6,
            "tail_bound": 1e-13,
            "pass": passed,
            "_d": 2.0,
        }
        assert row["pass"] is passed


class TestLimitStudy:
    def test_scaled_geometry_recovers_decay_exponents(self, capsys):
        code, out = run_cli(capsys, "limit-study", "--d-values", "2,4,8,16")
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["results"]}
        assert abs(rows["szego_exponent"]["value"] - (-7.0)) < 0.5
        assert abs(rows["bergman_exponent"]["value"] - (-8.0)) < 0.5
        assert rows["szego_exponent"]["pass"] is True
        assert rows["bergman_exponent"]["pass"] is True

    def test_fixed_points_leave_asymptotic_regime_and_fail_honestly(self, capsys):
        code, out = run_cli(
            capsys, "limit-study", "--d-values", "2,4,8,16", "--no-scale-with-d"
        )
        assert code == 1
        rows = {r["name"]: r for r in json.loads(out)["results"]}
        assert rows["szego_exponent"]["value"] < -8.0
        assert rows["szego_exponent"]["pass"] is False

    def test_empty_d_list_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "limit-study", "--d-values", "")
        assert code == 2

    def test_nonpositive_width_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "limit-study", "--d-values", "2,-4")
        assert code == 2


class TestUsageErrors:
    def test_zero_trials(self, capsys):
        assert run_cli(capsys, "algebra", "--trials", "0")[0] == 2

    def test_zero_points(self, capsys):
        assert run_cli(capsys, "trig", "--points", "0")[0] == 2

    def test_nonpositive_tail_tol(self, capsys):
        assert run_cli(capsys, "trig", "--tail-tol", "0")[0] == 2

    @staticmethod
    def assert_usage_error(capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("step", ["0", "-1e-5", "nan", "inf", "1e-300"])
    def test_bad_fd_step_is_usage_error(self, capsys, step):
        # a zero step, or one too small to move a coordinate (z + h == z),
        # used to report every oregularity residual as 0.0
        self.assert_usage_error(capsys, ["trig", "--points", "2", f"--fd-step={step}"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--tail-tol=0", *STRIP_EVAL],
            ["--tail-tol=-1", *STRIP_EVAL],
            ["--tail-tol=nan", *STRIP_EVAL],
            ["--tail-tol=nan", "trig", "--points", "2"],
            ["--tail-tol=0", "limit-study", "--d-values", "2,4"],
            ["--radius=0", *STRIP_MC],
            ["--radius=-1", *STRIP_MC],
            ["--threads=0", *STRIP_MC],
            ["--threads=-1", *STRIP_MC],
            ["--radius=1e300", *STRIP_MC],
            pytest.param([*STRIP_EVAL[:-1], "inf"], id="eval-kernel --d=inf"),
            pytest.param(
                ["eval-kernel", "--kernel", "szego_ball", "--z", "nan", "--w", "0.5"],
                id="eval-kernel --z=nan",
            ),
            pytest.param(
                [*BALL_MC, "--csv", "/nonexistent/x.csv"], id="reproduce --csv=/nonexistent"
            ),
            pytest.param(
                ["eval-kernel", "--kernel", "szego_halfspace", "--z", "1e-80", "--w", "1e-80"],
                id="eval-kernel szego_halfspace at the pole",
            ),
            pytest.param(
                ["limit-study", "--d-values", "2,2"], id="limit-study --d-values=2,2"
            ),
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_bad_policy_or_mc_config_is_usage_error(self, capsys, argv):
        # these used to exit 1 with a traceback, or to run on a negative
        # measure (--radius -1) or with no worker (--threads 0); an
        # infinite width or a NaN literal printed NaN tokens and exited 0,
        # and an unwritable CSV path printed the report before failing
        self.assert_usage_error(capsys, argv)

    @pytest.mark.parametrize(
        "literal",
        [
            "inf",
            "-inf",
            "1e400",
            "[NaN,0,0,0,0,0,0,0]",
            "[0,Infinity,0,0,0,0,0,0]",
            "1e308 + 1e308",
        ],
    )
    def test_non_finite_literal_is_usage_error(self, capsys, literal):
        self.assert_usage_error(
            capsys, ["eval-kernel", "--kernel", "szego_ball", "--z", "0.5", f"--w={literal}"]
        )

    def test_undersized_mc_run(self, capsys):
        code, _ = run_cli(
            capsys, "reproduce", "--experiment", "cauchy_ball", "--samples", "500"
        )
        assert code == 2

    def test_bad_octonion_literal(self, capsys):
        code, _ = run_cli(
            capsys, "eval-kernel", "--kernel", "szego_ball", "--z", "[1,2]", "--w", "0"
        )
        assert code == 2

    def test_unknown_kernel_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["eval-kernel", "--kernel", "mystery", "--z", "0", "--w", "0"])


class TestCsvOutput:
    def test_csv_columns_and_rows(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out = run_cli(
            capsys,
            "eval-kernel",
            "--kernel",
            "szego_strip",
            "--z",
            "0.5",
            "--w",
            "0.5",
            "--d",
            "1",
            "--method",
            "both",
            "--csv",
            str(path),
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "name,d,value,target,residual"
        body = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        series = body["szego_strip[series]"]
        assert series[1] == "1.0"  # d column
        assert float(series[2]) == pytest.approx(1.9991090157810752)
        # JSON on stdout is unaffected by CSV emission
        assert json.loads(out)["command"] == "eval-kernel"

    def test_reproduce_csv_has_d_for_strip_rows(self, capsys, tmp_path):
        path = tmp_path / "strip.csv"
        code, _ = run_cli(
            capsys,
            "reproduce",
            "--experiment",
            "szego_strip",
            "--samples",
            "2000",
            "--radius",
            "2",
            "--csv",
            str(path),
        )
        assert code in (0, 1)  # tiny sample count may miss tolerance
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "name,d,value,target,residual"
        assert len(lines) > 1


# Every flag value is drawn from a fixed list that mixes valid values with
# the invalid ones that used to slip through; sizes stay small so that one
# example runs in milliseconds.
LITERALS = [
    "0.5", "0.25 + 0.1 e1", "[0.5,0,0,0,0,0,0,0]", "1.5", "nan", "-inf", "1e400", "1e-80"
]
GLOBAL_FLAGS = {
    "--seed": ["42", "7"],
    "--threads": ["-1", "0", "1", "2"],
    "--tail-tol": ["1e-12", "1e-6", "0", "-1", "nan"],
    "--radius": ["2", "50", "0", "-1", "nan", "inf", "1e300"],
    "--fd-step": ["1e-5", "1e-4", "0", "nan", "inf", "1e-300"],
    "--samples": ["1000", "2000", "500", "0"],
}
COMMAND_FLAGS = {
    "algebra": {"--trials": ["1", "100", "0"]},
    "trig": {"--points": ["1", "3", "0"]},
    "eval-kernel": {
        "--kernel": [
            "szego_ball",
            "bergman_ball",
            "szego_halfspace",
            "bergman_halfspace",
            "szego_strip",
            "bergman_strip",
        ],
        "--z": LITERALS,
        "--w": LITERALS,
        "--d": ["1", "2", "0", "-1", "inf", "nan"],
        "--method": ["series", "closed_form", "both"],
    },
    "reproduce": {
        "--experiment": [
            "cauchy_ball",
            "szego_ball",
            "bergman_ball",
            "szego_strip",
            "bergman_strip",
        ],
        "--d": ["1", "0.5", "0", "inf"],
    },
    "limit-study": {
        "--d-values": ["2,4,8", "2", "", "2,-4", "2,inf", "nan", "2,2"],
        "--z": LITERALS,
        "--w": LITERALS,
    },
}
# required flags, and the sizes whose defaults (1e6 samples, 1e4 trials,
# 50 points) would make one example take seconds
ALWAYS = {
    "--kernel", "--z", "--w", "--experiment", "--d-values", "--samples", "--trials", "--points"
}


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def _draw_flag(draw, argv, flag, values):
    choice = st.sampled_from(values)
    value = draw(choice if flag in ALWAYS else st.none() | choice)
    if value is not None:
        argv.append(f"{flag}={value}")


@st.composite
def invocations(draw, csv_ok: str):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = []
    flags = {**GLOBAL_FLAGS, "--csv": [csv_ok, "/nonexistent/x.csv"]}
    for flag, values in flags.items():
        _draw_flag(draw, argv, flag, values)
    argv.append(command)
    for flag, values in COMMAND_FLAGS[command].items():
        _draw_flag(draw, argv, flag, values)
    if command == "limit-study" and draw(st.booleans()):
        argv.append("--no-scale-with-d")
    return argv


class TestFuzz:
    # derandomized, so a Tier-1 run is repeatable; widen by hand with
    # more examples when the flag lists change
    @settings(max_examples=100, derandomize=True)
    @given(data=st.data())
    def test_any_flag_combination_exits_cleanly(self, tmp_path_factory, data):
        csv_ok = str(tmp_path_factory.getbasetemp() / "fuzz.csv")
        argv = data.draw(invocations(csv_ok))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                # a fitted exponent must never come from a rank-deficient fit
                warnings.simplefilter("error", np.exceptions.RankWarning)
                code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            return
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        for row in report["results"]:
            if row["pass"] is True:
                assert math.isfinite(row["residual"])
