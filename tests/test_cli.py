"""Command-line interface: exit codes, output shapes, file closure."""

import csv
import io
import json
import warnings

import numpy as np
import pytest

from scalinglaws import (
    C4_CONSTANTS,
    ScalingLawWarning,
    critical_batch,
    min_steps_for_loss,
    optimal_allocation,
    read_constants,
    read_run_log,
    solve_loss,
    write_constants,
)
from scalinglaws.cli import _parse_steps, main
from scalinglaws.planning import MAX_GRID_POINTS

C4 = C4_CONSTANTS


@pytest.fixture()
def constants_path(tmp_path):
    path = tmp_path / "c4.json"
    write_constants(C4, path)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert run_cli() == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert run_cli("frobnicate") == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run_cli("predict", "--n-params", "1e9") == 2
        capsys.readouterr()

    def test_plan_goals_mutually_exclusive(self, constants_path, capsys):
        rc = run_cli(
            "plan", "--constants", constants_path,
            "--budget-flops", "1e21", "--target-loss", "2.6",
        )
        assert rc == 2
        capsys.readouterr()


class TestPredict:
    def test_csv_rows_match_solver(self, constants_path, capsys):
        rc = run_cli(
            "predict", "--constants", constants_path,
            "--n-params", "1e9", "--batch-tokens", "1e6",
            "--steps", "100,1000,10000", "--format", "csv",
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "step,tokens,loss"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        for step_s, tokens_s, loss_s in rows:
            step = float(step_s)
            assert float(tokens_s) == step * 1e6
            assert float(loss_s) == pytest.approx(
                solve_loss(C4, 1e9, step, 1e6), rel=1e-10
            )

    def test_range_steps_are_log_spaced(self, constants_path, capsys):
        rc = run_cli(
            "predict", "--constants", constants_path,
            "--n-params", "1e9", "--batch-tokens", "1e6",
            "--steps", "100:10000:5", "--format", "jsonl",
        )
        assert rc == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        steps = [r["step"] for r in rows]
        np.testing.assert_allclose(steps, np.geomspace(100, 10000, 5), rtol=1e-12)

    def test_bad_steps_spec_is_operation_error(self, constants_path, capsys):
        rc = run_cli(
            "predict", "--constants", constants_path,
            "--n-params", "1e9", "--batch-tokens", "1e6", "--steps", "abc",
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["1:inf:10", "nan:10:5", "1:10:1", f"1:10:{MAX_GRID_POINTS + 1}"])
    def test_steps_range_out_of_bounds_is_only_an_error_line(self, constants_path, capsys, spec):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(
                "predict", "--constants", constants_path,
                "--n-params", "1e9", "--batch-tokens", "1e6", "--steps", spec,
            )
        assert rc == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_steps_range_at_the_point_cap(self):
        assert len(_parse_steps(f"1:1e6:{MAX_GRID_POINTS}")) == MAX_GRID_POINTS

    def test_missing_constants_file(self, tmp_path, capsys):
        rc = run_cli(
            "predict", "--constants", str(tmp_path / "nope.json"),
            "--n-params", "1e9", "--batch-tokens", "1e6", "--steps", "100,200",
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_table_output_to_file(self, constants_path, tmp_path, capsys):
        out = tmp_path / "pred.txt"
        rc = run_cli(
            "predict", "--constants", constants_path,
            "--n-params", "1e9", "--batch-tokens", "1e6",
            "--steps", "100,200", "--out", str(out),
        )
        assert rc == 0
        text = out.read_text()
        assert text.splitlines()[0].split() == ["step", "tokens", "loss"]
        assert len(text.splitlines()) == 3


class TestPlan:
    def test_budget_allocation_rows(self, constants_path, capsys):
        rc = run_cli(
            "plan", "--constants", constants_path,
            "--budget-flops", "1e21", "--format", "jsonl",
        )
        assert rc == 0
        rows = {r["quantity"]: r["value"] for r in
                (json.loads(line) for line in capsys.readouterr().out.strip().splitlines())}
        plan = optimal_allocation(C4, 1e21)
        assert rows["n_opt"] == pytest.approx(plan.n_opt, rel=1e-12)
        assert rows["loss_final"] == pytest.approx(plan.loss_final, rel=1e-12)
        assert 6.0 * rows["n_opt"] * rows["b_opt"] * rows["s_opt"] == pytest.approx(
            1e21, rel=1e-9
        )
        assert rows["tokens"] == pytest.approx(rows["s_opt"] * rows["b_opt"], rel=1e-12)
        assert rows["stop_ratio"] == pytest.approx(1.1134328358208956, rel=1e-12)
        assert rows["recommended_batch"] == pytest.approx(
            critical_batch(C4, plan.loss_final), rel=1e-12
        )

    def test_target_loss_with_fixed_size(self, constants_path, capsys):
        rc = run_cli(
            "plan", "--constants", constants_path,
            "--target-loss", "2.6", "--n-params", "1e9", "--format", "jsonl",
        )
        assert rc == 0
        rows = {r["quantity"]: r["value"] for r in
                (json.loads(line) for line in capsys.readouterr().out.strip().splitlines())}
        assert rows["steps_at_unbounded_batch"] == pytest.approx(
            57175.88803123188, rel=1e-10
        )
        assert rows["min_tokens"] == pytest.approx(91918220073.7277, rel=1e-10)
        assert rows["budget_flops"] == pytest.approx(7.787202259845172e20, rel=1e-8)
        assert rows["loss_final"] == pytest.approx(2.6, rel=1e-10)

    def test_unreachable_target_is_operation_error(self, constants_path, capsys):
        rc = run_cli(
            "plan", "--constants", constants_path,
            "--target-loss", "2.0", "--n-params", "1e9",
        )
        assert rc == 1
        assert "converged floor" in capsys.readouterr().err

    def test_n_params_with_budget_is_usage_fault(self, constants_path, capsys):
        rc = run_cli(
            "plan", "--constants", constants_path,
            "--budget-flops", "1e21", "--n-params", "1e9",
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "--n-params" in captured.err

    @pytest.mark.parametrize("target", ["1e-30", "1e30"])
    def test_target_outside_double_range_is_operation_error(self, constants_path, capsys, target):
        rc = run_cli("plan", "--constants", constants_path, "--target-loss", target)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "target loss" in err


class TestSimulate:
    def test_trajectory_round_trip(self, constants_path, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        rc = run_cli(
            "simulate", "--constants", constants_path,
            "--n-params", "1e7", "--batch-tokens", "1e6",
            "--num-steps", "500", "--log-every", "50", "--out", str(out),
        )
        assert rc == 0
        assert str(out) in capsys.readouterr().out
        run = read_run_log(out)
        assert run.n_params == 1e7
        assert run.batch_tokens == 1e6
        steps, _, losses = run.split_arrays("test")
        np.testing.assert_allclose(losses, solve_loss(C4, 1e7, steps, 1e6), rtol=1e-12)

    def test_scan_writes_one_file_per_batch(self, constants_path, tmp_path, capsys):
        rc = run_cli(
            "simulate", "--constants", constants_path, "--kind", "scan",
            "--n-params", "1e7", "--batch-tokens", "1e5,1e6",
            "--num-steps", "200", "--log-every", "20",
            "--out-dir", str(tmp_path / "scans"),
        )
        assert rc == 0
        paths = capsys.readouterr().out.strip().splitlines()
        assert len(paths) == 2
        batches = sorted(read_run_log(p).batch_tokens for p in paths)
        assert batches == [1e5, 1e6]

    def test_converged_writes_one_file_per_size(self, constants_path, tmp_path, capsys):
        rc = run_cli(
            "simulate", "--constants", constants_path, "--kind", "converged",
            "--sizes", "1e6,1e7", "--out-dir", str(tmp_path / "conv"),
        )
        assert rc == 0
        paths = capsys.readouterr().out.strip().splitlines()
        assert len(paths) == 2
        sizes = sorted(read_run_log(p).n_params for p in paths)
        assert sizes == [1e6, 1e7]

    @pytest.mark.parametrize("argv", [
        ("--kind", "trajectory", "--n-params", "1e7", "--batch-tokens", "1e6"),
        ("--kind", "trajectory", "--n-params", "1e7", "--batch-tokens", "1e5,1e6",
         "--out", "x.jsonl"),
        ("--kind", "scan", "--n-params", "1e7", "--batch-tokens", "1e5,1e6"),
        ("--kind", "converged",),
    ])
    def test_flag_combinations_rejected(self, constants_path, tmp_path, capsys, argv):
        extra = ()
        if argv[1] != "trajectory":
            extra = ("--out-dir", str(tmp_path / "d")) if argv[1] == "converged" else ()
        rc = run_cli("simulate", "--constants", constants_path, *argv, *extra)
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (("--kind", "trajectory", "--batch-tokens", "1e6"), "needs --n-params, --out"),
        (("--kind", "scan", "--out-dir", "d"), "needs --n-params, --batch-tokens"),
        (("--kind", "converged", "--sizes", "1e6"), "needs --out-dir"),
        (("--kind", "converged", "--sizes", "1e6", "--out-dir", "d", "--batch-tokens", "1e5,1e9"),
         "only --kind scan takes several"),
    ])
    def test_usage_fault_is_one_error_line(self, constants_path, tmp_path, monkeypatch, capsys,
                                           argv, message):
        monkeypatch.chdir(tmp_path)
        assert run_cli("simulate", "--constants", constants_path, *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert not (tmp_path / "d").exists()


@pytest.fixture(scope="module")
def scan_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scans")
    path = tmp / "c4.json"
    write_constants(C4, path)
    steps = int(1.25 * min_steps_for_loss(C4, 1e7, 4.6)
                * (1 + critical_batch(C4, 4.6) / 1e6))
    rc = main([
        "simulate", "--constants", str(path), "--kind", "scan",
        "--n-params", "1e7", "--batch-tokens", "1e6,3e6,1e7",
        "--num-steps", str(steps), "--out-dir", str(tmp),
    ])
    assert rc == 0
    return tmp


class TestScanAndDiagnose:
    def test_scan_recovers_batch_law(self, scan_dir, capsys):
        logs = sorted(scan_dir.glob("scan-*.jsonl"))
        assert len(logs) == 3
        argv = ["scan"]
        for p in logs:
            argv += ["--scan-log", str(p)]
        rc = main(argv + ["--format", "csv", "--out", str(scan_dir / "contours.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        b_star = float(out.split("b_star:")[1].splitlines()[0])
        alpha_b = float(out.split("alpha_b:")[1].splitlines()[0])
        assert alpha_b == pytest.approx(C4.alpha_b, rel=0.02)
        assert b_star == pytest.approx(C4.b_star, rel=0.10)
        header = (scan_dir / "contours.csv").read_text().splitlines()[0]
        assert header == "loss_target,s_min,e_min,b_crit,points,residual_rms"

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_scan_rows_on_stdout_parse(self, scan_dir, capsys, fmt):
        argv = ["scan", "--format", fmt]
        for p in sorted(scan_dir.glob("scan-*.jsonl")):
            argv += ["--scan-log", str(p)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        fields = ["loss_target", "s_min", "e_min", "b_crit", "points", "residual_rms"]
        if fmt == "csv":
            rows = list(csv.DictReader(io.StringIO(captured.out)))
            assert rows and all(list(r) == fields and None not in r.values() for r in rows)
        else:
            rows = [json.loads(line) for line in captured.out.splitlines()]
            assert rows and all(list(r) == fields for r in rows)
        assert all(np.isfinite(float(v)) for r in rows for v in r.values())
        # the fitted law is still reported, on stderr
        assert "b_star:" in captured.err and "alpha_b:" in captured.err

    def test_diagnose_single_log_gap(self, constants_path, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert run_cli(
            "simulate", "--constants", constants_path,
            "--n-params", "1e7", "--batch-tokens", "1e6",
            "--num-steps", "500", "--log-every", "50", "--out", str(out),
        ) == 0
        capsys.readouterr()
        rc = run_cli("diagnose", "--log", str(out))
        assert rc == 0
        text = capsys.readouterr().out
        assert "max train/test gap: 0" in text
        assert "data effectively unbounded: yes" in text

    def test_diagnose_many_logs_batch_regime(self, scan_dir, capsys):
        logs = sorted(scan_dir.glob("scan-*.jsonl"))
        argv = ["diagnose"]
        for p in logs:
            argv += ["--log", str(p)]
        rc = main(argv)
        assert rc == 0
        text = capsys.readouterr().out
        assert text.count("max deviation") == 2
        assert "batch effectively unbounded" in text


class TestFitClosure:
    def test_simulated_logs_fit_back(self, tmp_path, capsys):
        consts = tmp_path / "c4.json"
        write_constants(C4, consts)
        conv_dir = tmp_path / "conv"
        assert main([
            "simulate", "--constants", str(consts), "--kind", "converged",
            "--sizes", "1e6,3e6,1e7,3e7,6e7", "--out-dir", str(conv_dir),
        ]) == 0
        big = tmp_path / "big.jsonl"
        assert main([
            "simulate", "--constants", str(consts),
            "--n-params", "1e7", "--batch-tokens", "1e12",
            "--num-steps", "3000", "--out", str(big),
        ]) == 0
        scan_dir = tmp_path / "scans"
        # batches straddle the critical batch at the scanned losses, so
        # the contours carry slope and post-correction has usable samples
        steps = int(1.25 * min_steps_for_loss(C4, 1e7, 4.6)
                    * (1 + critical_batch(C4, 4.6) / 3e4))
        assert main([
            "simulate", "--constants", str(consts), "--kind", "scan",
            "--n-params", "1e7", "--batch-tokens", "3e4,3e5,3e6",
            "--num-steps", str(steps), "--out-dir", str(scan_dir),
        ]) == 0
        capsys.readouterr()

        fitted = tmp_path / "fitted.json"
        argv = ["fit", "--big-batch-log", str(big), "--out", str(fitted)]
        for p in sorted(conv_dir.glob("*.jsonl")):
            argv += ["--converged-log", str(p)]
        for p in sorted(scan_dir.glob("*.jsonl")):
            argv += ["--scan-log", str(p)]
        rc = main(argv)
        assert rc == 0
        text = capsys.readouterr().out
        assert "complete: yes" in text
        assert "alpha_n" in text and "b_star" in text

        doc = read_constants(fitted)
        assert doc.complete()
        fit = doc.constants()
        assert fit.alpha_n == pytest.approx(C4.alpha_n, rel=1e-3)
        assert fit.alpha_s == pytest.approx(C4.alpha_s, rel=1e-3)
        assert fit.alpha_b == pytest.approx(C4.alpha_b, rel=1e-2)
        assert fit.n_c == pytest.approx(C4.n_c, rel=1e-2)
        assert fit.s_c == pytest.approx(C4.s_c, rel=1e-2)
        assert fit.b_star == pytest.approx(C4.b_star, rel=5e-2)
        assert doc.meta["scan_runs"] == 3
        assert doc.diagnostics["complete"] is True

    def test_document_on_stdout_parses(self, tmp_path, capsys):
        consts = tmp_path / "c4.json"
        write_constants(C4, consts)
        conv_dir = tmp_path / "conv"
        assert main([
            "simulate", "--constants", str(consts), "--kind", "converged",
            "--sizes", "1e6,1e7,1e8", "--out-dir", str(conv_dir),
        ]) == 0
        big = tmp_path / "big.jsonl"
        assert main([
            "simulate", "--constants", str(consts), "--n-params", "1e7",
            "--batch-tokens", "1e12", "--num-steps", "1000", "--log-every", "10",
            "--out", str(big),
        ]) == 0
        capsys.readouterr()

        # no scan logs: a partial fit, which warns
        argv = ["fit", "--big-batch-log", str(big), "--out", "-"]
        for p in sorted(conv_dir.glob("*.jsonl")):
            argv += ["--converged-log", str(p)]
        with pytest.warns(ScalingLawWarning, match="no scan runs"):
            assert main(argv) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["kind"] == "scaling-constants"
        assert doc["constants"]["b_star"] is None
        assert doc["meta"]["dataset_tag"] == "c4"
        # the table and stage lines still reach the terminal, on stderr
        assert "complete: no" in captured.err and "alpha_n" in captured.err


@pytest.fixture(scope="module")
def noisy_logs(tmp_path_factory):
    """Converged, big-batch and five noisy scan logs of one C4 campaign."""
    tmp = tmp_path_factory.mktemp("noisy")
    consts = tmp / "c4.json"
    write_constants(C4, consts)
    common = ["simulate", "--constants", str(consts), "--sigma", "0.01"]
    assert main(common + [
        "--kind", "converged", "--sizes", "1e6,1e7,1e8", "--out-dir", str(tmp / "conv"),
    ]) == 0
    assert main(common + [
        "--n-params", "1e7", "--batch-tokens", "1e12", "--num-steps", "3000",
        "--log-every", "10", "--out", str(tmp / "big.jsonl"),
    ]) == 0
    steps = int(1.25 * min_steps_for_loss(C4, 1e7, 4.6) * (1 + critical_batch(C4, 4.6) / 3e4))
    assert main(common + [
        "--kind", "scan", "--n-params", "1e7", "--batch-tokens", "3e4,1e5,3e5,1e6,3e6",
        "--num-steps", str(steps), "--log-every", "5", "--out-dir", str(tmp / "scans"),
    ]) == 0
    return tmp


class TestScanLogOrder:
    def test_fit_and_scan_agree_for_any_scan_order(self, noisy_logs, capsys):
        capsys.readouterr()
        by_batch = sorted(noisy_logs.glob("scans/*.jsonl"), key=lambda p: float(p.stem[6:]))
        reports = {}
        for name, logs in (("in order", by_batch), ("reversed", by_batch[::-1])):
            argv = ["fit", "--no-post-correct", "--out", "-",
                    "--big-batch-log", str(noisy_logs / "big.jsonl")]
            for p in sorted(noisy_logs.glob("conv/*.jsonl")):
                argv += ["--converged-log", str(p)]
            for p in logs:
                argv += ["--scan-log", str(p)]
            assert main(argv) == 0
            reports[name] = json.loads(capsys.readouterr().out)["constants"]
        assert reports["reversed"] == reports["in order"]

        argv = ["scan"]
        for p in by_batch[::-1]:
            argv += ["--scan-log", str(p)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for key in ("b_star", "alpha_b"):
            scanned = out.split(f"{key}:")[1].split()[0]
            assert scanned == format(reports["reversed"][key], ".10g")
