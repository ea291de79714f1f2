import json
import re

import pytest

from octomono.cli import main

TOP_KEYS = ["command", "params", "seed", "results", "elapsed_ms"]
ROW_KEYS = ["name", "value", "target", "residual", "tolerance", "tail_bound", "pass"]


STRIP_EVAL = [
    "eval-kernel", "--kernel", "szego_strip", "--z", "0.5", "--w", "0.5", "--d", "1"
]
STRIP_MC = ["reproduce", "--experiment", "szego_strip", "--samples", "1000"]


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

    def test_algebra_suite_small_trials(self, capsys):
        code, out = run_cli(capsys, "algebra", "--trials", "500")
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["results"]}
        assert rows["table_vs_cayley_dickson"]["tolerance"] == 1e-14
        assert rows["norm_composition_rel"]["tolerance"] == 1e-12
        assert all(r["pass"] for r in rows.values())


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

    @pytest.mark.parametrize("step", ["0", "-1e-5", "nan", "inf"])
    def test_bad_fd_step_is_usage_error(self, capsys, step):
        # a zero step used to report every oregularity residual as 0.0
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
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_bad_policy_or_mc_config_is_usage_error(self, capsys, argv):
        # these used to exit 1 with a traceback, or to run on a negative
        # measure (--radius -1) or with no worker (--threads 0)
        self.assert_usage_error(capsys, argv)

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
