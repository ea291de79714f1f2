import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import octomono
from octomono import cli, suites
from octomono.cli import _write_csv, main
from octomono.suites import Row, trig_points
from octomono.trig_series import TruncationPolicy, cot, csc, sec, tan

TOP_KEYS = ["command", "params", "seed", "results", "elapsed_ms"]
ROW_KEYS = ["name", "value", "target", "residual", "tolerance", "tail_bound", "pass"]


STRIP_EVAL = [
    "eval-kernel", "--kernel", "szego_strip", "--z", "0.5", "--w", "0.5", "--d", "1"
]
BERGMAN_EVAL = [
    "eval-kernel", "--kernel", "bergman_strip", "--z", "0.5", "--w", "0.5", "--d", "1"
]
STRIP_MC = ["reproduce", "--experiment", "szego_strip", "--samples", "1000"]
BERGMAN_MC = ["reproduce", "--experiment", "bergman_strip", "--samples", "1000"]
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

    # a valid value other than the default for each shared flag, and a
    # command whose report or run reads it
    FLAG_CASES = {
        "--seed": ("7", ["algebra", "--trials", "100"]),
        "--samples": ("2000", ["reproduce", "--experiment", "cauchy_ball"]),
        "--tail-tol": ("1e-6", ["trig", "--points", "1"]),
        "--fd-step": ("1e-4", ["trig", "--points", "1"]),
        "--radius": ("2", STRIP_MC),
        "--threads": ("2", BALL_MC),
        "--csv": (None, ["algebra", "--trials", "10"]),
    }

    @pytest.mark.parametrize("flag", list(cli.GLOBAL_FLAGS))
    def test_seed_flag_respected_in_any_position(self, capsys, monkeypatch, tmp_path, flag):
        text, command = self.FLAG_CASES[flag]
        text = text or str(tmp_path / "rows.csv")
        spec = cli.GLOBAL_FLAGS[flag]
        want = spec["type"](text)
        assert want != spec["default"]
        seen = []
        report = cli._report

        def spy(args, params, rows, t0):
            seen.append(getattr(args, flag[2:].replace("-", "_")))
            return report(args, params, rows, t0)

        monkeypatch.setattr(cli, "_report", spy)
        _, before = run_cli(capsys, flag, text, *command)
        _, after = run_cli(capsys, *command, flag, text)
        assert strip_elapsed(before) == strip_elapsed(after)
        # the parser serves every call: a call without the flag reads its default
        run_cli(capsys, *command)
        assert seen == [want, want, spec["default"]]

    def test_a_second_call_builds_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        run_cli(capsys, "algebra", "--trials", "1")
        first = len(built)
        run_cli(capsys, "algebra", "--trials", "1")
        assert len(built) == first


class TestClosedPipe:
    def test_a_reader_that_stops_early_gets_the_exit_code_and_no_traceback(self, capsys):
        # as under `octomono ... | head -1`: the pipe's read end is closed
        # before the report is written
        src = str(Path(octomono.__file__).resolve().parents[1])
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "octomono.cli", *BALL_MC],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
        assert "Traceback" not in err and "Exception ignored" not in err
        assert code == run_cli(capsys, *BALL_MC)[0]


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

    @pytest.mark.parametrize(
        "kernel, z, w, want",
        [
            # 1 / |u|^7 at u = 4e38, whose |u|^8 overflows
            ("szego_halfspace", "3e38", "1e38", 1.0 / 4e38**7),
            # (1 - 1e40) / |1 - 1e40|^8 and 6 (1 - 1e80) (1 - 1e40) / |1 - 1e40|^10
            ("szego_ball", "1e20", "1e20", -1e-280),
            ("bergman_ball", "1e20", "1e20", 6e-280),
            # -2 (1 - 8) / |u|^8 at u = 4e38, below the normal floats
            ("bergman_halfspace", "3e38", "1e38", 14.0 / 4e38**4 / 4e38**4),
        ],
        ids=["szego_halfspace", "szego_ball", "bergman_ball", "bergman_halfspace"],
    )
    def test_kernel_past_the_eighth_power_of_u_reads_its_value(self, capsys, kernel, z, w, want):
        # the power overflowed, so the kernel read 0 with numpy's overflow
        # warning on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["eval-kernel", "--kernel", kernel, "--z", z, "--w", w])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        value = json.loads(captured.out)["results"][0]["value"]
        assert abs(value[0] - want) <= 1e-12 * abs(want)
        assert all(v == 0.0 for v in value[1:])

    def test_half_space_bergman_keeps_its_sign_where_u_to_the_tenth_overflows(self, capsys):
        # u = z + conj(w) = 1e31: |u|^10 overflows and |u|^8 does not; the
        # kernel is -2 (1 - 8) / |u|^8 = 14 / |u|^8, where the real part
        # once read -2.0e-248 with an overflow warning on stderr
        argv = ["eval-kernel", "--kernel", "bergman_halfspace", "--z", "5e30", "--w", "5e30"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        value = json.loads(captured.out)["results"][0]["value"]
        want = 14.0 / 1e31**8
        assert abs(value[0] - want) <= 1e-12 * want
        assert value[1:] == [0.0] * 7

    def test_strip_szego_frozen_value(self, capsys):
        code, out = run_cli(capsys, *STRIP_EVAL)
        assert code == 0
        report = json.loads(out)
        assert [r["name"] for r in report["results"]] == ["szego_strip"]
        assert "method" not in report["params"]
        row = report["results"][0]
        assert abs(row["value"][0] - 1.9991090157810752) < 1e-11
        assert row["tail_bound"] is not None

    def test_strip_method_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*STRIP_EVAL, "--method", "both"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "z,want",
        [("0.5", 28.004345012707246), ("0.5 + 0.3 e1", 17.968234239601337)],
        ids=["real_u", "complex_u"],
    )
    def test_strip_bergman_reports_the_kernel_alone(self, capsys, z, want):
        # the kernel is the report's only row, at a real and at a complex u
        code, out = run_cli(capsys, *BERGMAN_EVAL[:4], z, *BERGMAN_EVAL[5:])
        assert code == 0
        rows = json.loads(out)["results"]
        assert [r["name"] for r in rows] == ["bergman_strip"]
        assert abs(rows[0]["value"][0] - want) < 1e-10

    @pytest.mark.parametrize(
        "kernel,want",
        [("szego_strip", 1.0), ("bergman_strip", 14.0)],
        ids=["szego_strip", "bergman_strip"],
    )
    def test_wide_strip_prints_its_value_without_a_warning(self, capsys, kernel, want):
        # at d = 1e40 only the n = 0 lattice term is inside the float range;
        # the far terms' r^8 overflowed with a numpy warning on stderr
        argv = [*BERGMAN_EVAL[:2], kernel, *BERGMAN_EVAL[3:-1], "1e40"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert json.loads(captured.out)["results"][0]["value"] == [want] + [0.0] * 7

    @pytest.mark.parametrize("im", ["1.4e154", "1e160"])
    @pytest.mark.parametrize("kernel", ["szego_strip", "bergman_strip"])
    def test_strip_kernel_at_a_huge_imaginary_part_reads_zero(self, capsys, kernel, im):
        # |Im u|^2 overflows and the kernel underflows to 0; this printed
        # numpy's overflow warning and refused the finite argument
        argv = ["eval-kernel", "--kernel", kernel, "--z", f"0.5 + {im} e1", "--w", "0.5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*argv, "--d", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert json.loads(captured.out)["results"][0]["value"] == [0.0] * 8

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
        assert rows["csc_relation_max"]["pass"] is True
        # informational rows carry no verdict but must show the split
        dup = rows["combined_against_duplication_max"]
        two = rows["combined_against_two_cot_max"]
        assert dup["pass"] is None and two["pass"] is None
        assert two["value"] < 1e-9
        assert dup["value"] > 1e-3
        for name in ("cot", "tan", "csc", "sec"):
            assert rows[f"oregularity_{name}"]["pass"] is True

    IDENTITY_ROWS = ("duplication_max", "csc_relation_max")
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

    @pytest.mark.usefixtures("direct_route")
    def test_trig_identity_bars_follow_tail_tol(self, capsys):
        # under the direct route the residuals carry the truncation error
        # the bars are derived from; the closed form has none
        code, out = run_cli(capsys, "--tail-tol", "1e-6", "trig", "--points", "50")
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["results"]}
        # the bars are the coefficient-weighted tail bounds of the sums
        policy = TruncationPolicy(tail_tol=1e-6)
        pts = trig_points(np.random.default_rng(42), 50)
        tail = {
            "cot": cot(pts, policy).tail_bound,
            "cot2": cot(2.0 * pts, policy).tail_bound,
            "tan": tan(pts, policy).tail_bound,
            "csc": csc(pts, policy).tail_bound,
            "cot_half": cot(0.5 * pts, policy).tail_bound,
        }
        want = {
            "duplication_max": 128.0 * tail["cot2"] + tail["cot"] + tail["tan"],
            "csc_relation_max": tail["csc"] + tail["cot_half"] / 64.0 + tail["cot"],
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
                suites,
                "duplication_gap",
                lambda cot_z, cot_2z, tan_z: np.full(len(cot_z.value), scale * dup_bar),
            )
            monkeypatch.setattr(suites, "o_regularity_residual", lambda f, z, h: scale * fd_bar)
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
        pts = trig_points(np.random.default_rng(seed), 50)
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
            monkeypatch.setattr(suites, "o_regularity_residual", lambda f, z, h: scale * fd_bar)
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
        row = Row("x", residual, 0.0, residual, 1e-6)
        assert row.passed is False

    @pytest.mark.parametrize(
        "residual, passed",
        [(0.0, True), (1e-6, True), (-1.0, True), (np.float64(5e-7), True), (2e-6, False)],
    )
    def test_finite_residual_verdict_unchanged(self, residual, passed, tmp_path):
        row = Row("x", 1.5, 0.0, residual, 1e-6, tail_bound=1e-13, d=2.0)
        assert (row.name, row.value, row.target, row.residual) == ("x", 1.5, 0.0, residual)
        assert (row.tolerance, row.tail_bound, row.d) == (1e-6, 1e-13, 2.0)
        assert row.passed is passed
        path = tmp_path / "row.csv"
        _write_csv(str(path), [row])
        assert path.read_text().splitlines()[1] == f"x,2.0,1.5,0.0,{float(residual)!r}"

    @pytest.mark.parametrize("residual", [None, 0.0, math.nan])
    def test_row_without_tolerance_has_no_verdict(self, residual):
        assert Row("x", 1.5, residual=residual).passed is None


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

    @pytest.mark.parametrize("d_values", ["1e20,2e20", "3e20,6e20", "1e22,2e22"])
    def test_gaps_below_the_normal_squares_keep_their_exponents(self, capsys, d_values):
        # the Bergman gap is below 1.5e-154, so its squared norm is subnormal
        # or 0: 1e20 fitted -8.0074, and the wider pairs refused a 0 gap
        code, out = run_cli(capsys, "limit-study", "--d-values", d_values)
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["results"]}
        assert abs(rows["szego_exponent"]["value"] - (-7.0)) < 1e-6
        assert abs(rows["bergman_exponent"]["value"] - (-8.0)) < 1e-6

    def test_neighbour_terms_past_the_eighth_power_keep_their_exponents(self, capsys):
        # from d = 1e38 the gap is the lattice's nearest neighbour terms, at
        # r of 1e38 to 6e38, whose r^8 or r^10 overflows; they read 0, and
        # 1e38,2e38 fitted szego_exponent -6.9937 and bergman_exponent -7.9994
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["limit-study", "--d-values", "1e38,2e38"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        rows = {r["name"]: r for r in json.loads(captured.out)["results"]}
        assert abs(rows["szego_exponent"]["value"] - (-7.0)) < 1e-6
        assert abs(rows["bergman_exponent"]["value"] - (-8.0)) < 1e-6

    def test_bergman_gap_past_the_eighth_power_of_u_scales_as_d_to_the_minus_8(self, capsys):
        # at d = 1e40 the half-space point u = 1e40 has |u|^8 past the float
        # range; that kernel read 0, so the gap was the whole strip kernel,
        # twice the d^-8 scaling of the d = 1e38 gap
        gaps = {}
        for d in ("1e38", "1e40"):
            _, out = run_cli(capsys, "limit-study", "--d-values", d)
            gaps[d] = json.loads(out)["results"][1]["value"]
        # the d = 1e40 gap is subnormal, good to a few 1e-5
        assert gaps["1e40"] == pytest.approx(gaps["1e38"] * 1e-16, rel=1e-3, abs=0)

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
            # numpy's seeding refuses a negative seed with a ValueError
            ["--seed=-1", "algebra", "--trials", "10"],
            ["--seed=-1", "trig", "--points", "1"],
            ["--seed=-1", *BALL_MC],
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
        "argv",
        [
            # the tail law's radius**-7 and radius**-8 overflow
            ["--radius=1e-50", *STRIP_MC],
            ["--radius=1e-50", *BERGMAN_MC],
            # the strip lattice's step 2d leaves its tail law or the float range
            [*STRIP_EVAL[:-1], "1e100"],
            [*BERGMAN_EVAL[:-1], "1e150"],
            [*BERGMAN_EVAL[:-1], "1e308"],
            ["limit-study", "--d-values", "1e100,2e100"],
            # the tail law's term count is infinite
            ["--tail-tol=1e-320", "trig", "--points", "1"],
            ["--tail-tol=5e-324", "trig", "--points", "1"],
            # the relative targets' norms |q0(d/2 + 1)| underflow to 0
            [*STRIP_MC, "--d", "1e100"],
            [*BERGMAN_MC, "--d", "1e100"],
            # the central-difference bar grows as the step squared
            ["trig", "--points", "2", "--fd-step=1e160"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_out_of_range_scale_is_usage_error(self, capsys, argv):
        # these printed an OverflowError, ValueError or ZeroDivisionError
        # traceback and exited 1, the reproduce runs after sampling
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
            "--csv",
            str(path),
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "name,d,value,target,residual"
        body = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        series = body["szego_strip"]
        assert series[1] == "1.0"  # d column
        assert float(series[2]) == pytest.approx(1.9991090157810752)
        # JSON on stdout is unaffected by CSV emission
        assert json.loads(out)["command"] == "eval-kernel"

    @pytest.mark.parametrize(
        "kernel,point",
        [("szego_halfspace", "1e30"), ("bergman_halfspace", "1e-20")],
    )
    def test_csv_norms_outside_the_normal_squares(self, capsys, tmp_path, kernel, point):
        # the squares of these values underflow or overflow; the norm is
        # still the JSON value's
        path = tmp_path / "rows.csv"
        argv = ["eval-kernel", "--kernel", kernel, "--z", point, "--w", point]
        code, out = run_cli(capsys, *argv, "--csv", str(path))
        assert code == 0
        (row,) = json.loads(out)["results"]
        with open(path, newline="") as fh:
            cells = {line[0]: line for line in csv.reader(fh)}
        assert float(cells[kernel][2]) == math.hypot(*row["value"])
        assert 0.0 < math.hypot(*row["value"]) < math.inf

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


class TestWarningRows:
    # at radius 1e20 both strip cases underflow with the same warning text,
    # which Python's default filter prints once for the two of them
    ARGV = ("--radius", "1e20", "reproduce", "--experiment", "szego_strip", "--samples", "100000")
    WARNED = ["kernel_shift_c_minus_1_warning", "kernel_shift_c_d_plus_1_warning"]

    def run(self, capsys, *argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(capsys, *argv, *self.ARGV)
        assert code == 1
        return [str(w.message) for w in caught], json.loads(out)["results"]

    def test_each_warned_case_has_its_row(self, capsys, tmp_path):
        reports = []
        for threads in ("1", "2"):
            path = tmp_path / f"rows{threads}.csv"
            raised, rows = self.run(capsys, "--threads", threads, "--csv", str(path))
            warned = [r for r in rows if r["name"].endswith("_warning")]
            assert [r["name"] for r in warned] == self.WARNED
            assert [r["value"] for r in warned] == raised
            assert all("underflow to zero" in text for text in raised)
            assert all(r["pass"] is None and r["target"] is None for r in warned)
            with open(path, newline="") as fh:
                cells = {line[0]: line for line in csv.reader(fh)}
            assert [cells[name][2] for name in self.WARNED] == raised
            assert [cells[name][1] for name in self.WARNED] == ["1.0", "1.0"]
            reports.append(rows)
        # the same rows at both thread counts and without --csv
        assert reports[0] == reports[1] == self.run(capsys)[1]


# Every flag value is drawn from a fixed list that mixes valid values with
# the invalid ones that used to slip through; sizes stay small so that one
# example runs in milliseconds.
# malformed sums of terms, each a usage error
MALFORMED = ["2 2 e1", "1 +", "e8", "2*", "2 ** e1"]
LITERALS = [
    "0.5", "0.25 + 0.1 e1", "[0.5,0,0,0,0,0,0,0]", "1.5", "nan", "-inf", "1e400", "1e-80",
    "0.1", "0.01", *MALFORMED,
]
GLOBAL_VALUES = {
    "--seed": ["42", "7", "-1"],
    "--threads": ["-1", "0", "1", "2"],
    "--tail-tol": ["1e-12", "1e-6", "0", "-1", "nan", "1e-320"],
    "--radius": ["2", "50", "0", "-1", "nan", "inf", "1e300", "1e-300"],
    "--fd-step": ["1e-5", "1e-4", "0", "nan", "inf", "1e-300", "1e160"],
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
        "--d": ["1", "2", "0", "-1", "inf", "nan", "1e40", "1e100", "1e308"],
    },
    "reproduce": {
        "--experiment": [
            "cauchy_ball",
            "szego_ball",
            "bergman_ball",
            "szego_strip",
            "bergman_strip",
        ],
        "--d": ["1", "0.5", "0", "inf", "1e100", "1e308"],
    },
    "limit-study": {
        "--d-values": [
            "2,4,8", "2", "", "2,-4", "2,inf", "nan", "2,2", "1e22,2e22", "1e100,2e100"
        ],
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
    before, after = [], []
    flags = {**GLOBAL_VALUES, "--csv": [csv_ok, "/nonexistent/x.csv"]}
    assert flags.keys() == cli.GLOBAL_FLAGS.keys()
    for flag, values in flags.items():
        # each shared flag before or after the subcommand
        _draw_flag(draw, draw(st.sampled_from([before, after])), flag, values)
    argv = [*before, command, *after]
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
                # a fitted exponent must never come from a rank-deficient
                # fit, and no numpy overflow or log(0) may reach stderr
                warnings.simplefilter("error", np.exceptions.RankWarning)
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv)
        assert code in (0, 1, 2)
        literals = [a.split("=", 1)[1] for a in argv if a.startswith(("--z=", "--w="))]
        if any(text in MALFORMED for text in literals):
            assert code == 2
        if code == 2:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            return
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        for row in report["results"]:
            if row["pass"] is True:
                assert math.isfinite(row["residual"])
