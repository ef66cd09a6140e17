"""The benchmark's three workloads.

Each is closed loop with one caller: an op runs, its output is checked,
and only then does the next op start. A workload gets its seed and its
op count from the runner and builds every input from them, so the same
seed and op count give the same inputs, the same checks and the same
quality counts. Op ``i`` for ``i >= 0`` is timed; negative ``i`` are
warm-up ops on inputs outside the timed list.

Every call into the package goes through the tracer (``tr.call``), so
the traced run can time each layer from outside.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import shutil
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from scalinglaws import (
    C4_CONSTANTS,
    MIXED_CONSTANTS,
    FitOptions,
    NoiseSpec,
    ScalingConstants,
    ScalingLawWarning,
    critical_batch,
    default_contour_targets,
    document_from_report,
    extract_contours,
    extract_converged_run,
    fit_contour,
    fit_converged_law,
    fit_critical_batch_law,
    fit_full_pipeline,
    fit_step_law,
    gen_batch_scan,
    gen_converged_log,
    gen_trajectory,
    min_budget_for_loss,
    min_steps_for_loss,
    min_tokens_for_loss,
    optimal_allocation,
    post_correct_batch_law,
    predict_trajectory,
    read_constants,
    read_run_log,
    recommend_batch,
    solve_loss,
    trim_warmup,
    verify_allocation,
    write_constants,
    write_run_log,
)
from scalinglaws import cli

# ---------------------------------------------------------------------------
# the campaign: the noisy-recovery gate's shape, C4 truth at 1% noise
# ---------------------------------------------------------------------------

TRUTH = C4_CONSTANTS
SIGMA = 0.01
SIZES = np.geomspace(1e6, 6e7, 7)
SCAN_N = 1e7
BATCHES = list(np.geomspace(1e4, 2.15e7, 6))
# every scan run is sized to cross loss 4.2, as in the gate
SCAN_STEPS = [
    int(1.25 * min_steps_for_loss(TRUTH, SCAN_N, 4.2) * (1.0 + critical_batch(TRUTH, 4.2) / b))
    for b in BATCHES
]
CONSTANT_NAMES = ("n_c", "alpha_n", "s_c", "alpha_s", "b_star", "alpha_b")
EXPONENTS = ("alpha_n", "alpha_s", "alpha_b")
HIT_TOLERANCE = 0.05  # the gate's criterion on each exponent
PLAIN = FitOptions(post_correct=False)
# distinct --seed values give disjoint noise seeds
SEED_STRIDE = 1_000_000


def _rows(run) -> int:
    return len(run.samples)


def generate_campaign(tr, noise_seed: int):
    """Seven converged tails of 240 samples, a 3000-step big-batch run and
    a 6-batch scan logged every 5 steps: about 68k rows."""
    noise = NoiseSpec(sigma=SIGMA, seed=noise_seed)
    converged = [
        tr.counted("synthetic.gen_converged_log", _rows, gen_converged_log,
                   TRUTH, n, samples=240, noise=noise, stream=100 + i)
        for i, n in enumerate(SIZES)
    ]
    big = tr.counted("synthetic.gen_trajectory", _rows, gen_trajectory,
                     TRUTH, SCAN_N, 1e12, 3000, noise=noise, log_every=1,
                     run_id="big", stream=200)
    scans = tr.counted("synthetic.gen_batch_scan", lambda runs: sum(map(_rows, runs)),
                       gen_batch_scan, TRUTH, SCAN_N, BATCHES, SCAN_STEPS,
                       noise=noise, log_every=5)
    return converged, big, scans


def complete(report) -> bool:
    c = report.constants
    return bool(
        report.complete and c is not None
        and all(math.isfinite(getattr(c, k)) and getattr(c, k) > 0 for k in CONSTANT_NAMES)
    )


def exponent_errors(c: ScalingConstants) -> list[float]:
    return [abs(getattr(c, k) / getattr(TRUTH, k) - 1.0) for k in EXPONENTS]


def scaling_warnings(caught) -> int:
    return sum(issubclass(w.category, ScalingLawWarning) for w in caught)


@contextlib.contextmanager
def recorded_warnings():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ScalingLawWarning)
        yield caught


@dataclass
class OpResult:
    ok: bool
    hit: bool = False
    win: bool = False
    warnings: int = 0
    # what the traced run's replay needs; dropped once the op is done
    replay: tuple | None = None


def _package_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "scalinglaws" or k.startswith("scalinglaws.")}


def import_times(repeats: int) -> list[float]:
    """Wall time of importing scalinglaws and its CLI afresh, numpy already
    loaded. The modules the benchmark holds are put back afterwards."""
    held = _package_modules()
    times = []
    try:
        for _ in range(repeats):
            for name in _package_modules():
                del sys.modules[name]
            t0 = time.perf_counter()
            importlib.import_module("scalinglaws")
            importlib.import_module("scalinglaws.cli")
            times.append(time.perf_counter() - t0)
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(held)
    return times


# ---------------------------------------------------------------------------
# traced-run replays
# ---------------------------------------------------------------------------


@dataclass
class FitCounts:
    """Counts from stage replays, summed over the traced ops."""

    targets: int = 0
    contours: int = 0
    pairs_offered: int = 0
    pairs_kept: int = 0

    def metrics(self) -> dict[str, float]:
        return {
            "fitting.contours_kept_frac": self.contours / self.targets if self.targets else 0.0,
            "fitting.postcorr_pairs_kept_frac":
                self.pairs_kept / self.pairs_offered if self.pairs_offered else 0.0,
        }


def replay_pipeline(tr, converged, big, scans, counts: FitCounts) -> tuple:
    """Call fit_full_pipeline's stages one by one, in its order and with
    its default options, and return the six constants they give."""
    opts = FitOptions()
    with recorded_warnings():
        size = tr.call("fitting.fit_converged_law", fit_converged_law, converged)
        step = tr.call("fitting.fit_step_law", fit_step_law, size.scale, size.exponent,
                       big, trim=opts.trim, split=opts.split)
        prepared = [tr.call("records.trim_warmup", trim_warmup, run, opts.trim) for run in scans]
        targets = tr.call("fitting.default_contour_targets", default_contour_targets,
                          prepared, opts.num_targets, split=opts.split, inset=opts.target_inset)
        points = tr.call("fitting.extract_contours", extract_contours,
                         prepared, targets, split=opts.split)
        fits = [tr.call("fitting.fit_contour", fit_contour, p) for p in points]
        batch = tr.call("fitting.fit_critical_batch_law", fit_critical_batch_law,
                        fits, refine=opts.refine_batch_law)
        candidate = ScalingConstants(
            n_c=size.scale, alpha_n=size.exponent, s_c=step.scale, alpha_s=step.exponent,
            b_star=batch.scale, alpha_b=batch.exponent,
        )
        post = tr.call("fitting.post_correct_batch_law", post_correct_batch_law,
                       candidate, prepared, fits, split=opts.split, refine=opts.refine_batch_law)
    counts.targets += len(targets)
    counts.contours += len(points)
    counts.pairs_offered += sum(run.split_arrays(opts.split)[0].size for run in prepared)
    counts.pairs_kept += post.pair_count - len(fits)
    return (size.scale, size.exponent, step.scale, step.exponent, post.b_star, post.alpha_b)


def bit_equal(values, c: ScalingConstants) -> bool:
    return [float(v).hex() for v in values] == [float(getattr(c, k)).hex() for k in CONSTANT_NAMES]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class FitCampaigns:
    """One op is one seed of the noisy-recovery gate: generate a campaign,
    read converged losses off its tails, fit with and without
    post-correction, and score both against the truth."""

    name = "fit_campaigns"
    collect_between_ops = True
    ops_per_second = 6
    has_replay = True
    warmup = 2
    setup_scope = "importing scalinglaws and its CLI afresh, numpy already loaded"
    setup_repeats = 11

    def __init__(self, seed: int, ops: int, out: Path):
        base = seed * SEED_STRIDE
        self.seeds = [base + k for k in range(ops + self.warmup)]
        self.counts = FitCounts()

    def setup(self, tr) -> list[float]:
        return import_times(self.setup_repeats)

    def op(self, tr, i: int) -> OpResult:
        logs, big, scans = generate_campaign(tr, self.seeds[i])
        with recorded_warnings() as caught:
            converged = [
                tr.call("fitting.extract_converged_run", extract_converged_run, r, tail_fraction=0.25)
                for r in logs
            ]
            corrected = tr.call("fitting.fit_full_pipeline", fit_full_pipeline, converged, big, scans)
            plain = tr.call("fitting.fit_full_pipeline.plain", fit_full_pipeline,
                            converged, big, scans, PLAIN)
        result = OpResult(ok=complete(corrected) and complete(plain), warnings=scaling_warnings(caught))
        if result.ok:
            errors = exponent_errors(corrected.constants)
            result.hit = max(errors) <= HIT_TOLERANCE
            result.win = errors[2] < exponent_errors(plain.constants)[2]
            result.replay = (converged, big, scans, corrected.constants)
        return result

    def replay(self, tr, result: OpResult) -> bool:
        converged, big, scans, constants = result.replay
        same = bit_equal(replay_pipeline(tr, converged, big, scans, self.counts), constants)
        # solve_loss on the exact step grids the generators solved on
        for run in (big, *scans):
            steps = run.split_arrays("train")[0]
            tr.counted("laws.solve_loss.vector", np.size, solve_loss,
                       TRUTH, SCAN_N, steps, run.batch_tokens)
        return same

    def finish(self, tr) -> dict[str, bool]:
        return {}

    def quality(self, results) -> tuple[float, float]:
        n = len(results)
        return sum(r.hit for r in results) / n, sum(r.win for r in results) / n

    def layer_counts(self) -> dict[str, float]:
        return self.counts.metrics()

    def close(self) -> None:
        pass


@dataclass
class Campaign:
    converged: list[Path]
    big: Path
    scans: list[Path]
    where: Path
    bytes: int = 0


class LogCampaign:
    """Set-up writes campaigns as run logs; one op is ``scalinglaws fit``
    on one campaign done through the library, plus reading the constants
    document back and planning one budget from it."""

    name = "log_campaign"
    collect_between_ops = True
    ops_per_second = 5
    has_replay = True
    warmup = 2
    campaigns = 10
    setup_scope = "simulating one campaign and writing its 14 run logs"
    budget = 1e21

    def __init__(self, seed: int, ops: int, out: Path):
        self.dir = out / f"log_campaign-seed{seed}-pid{os.getpid()}"
        count = min(self.campaigns, ops)
        self.seeds = [seed * SEED_STRIDE + k for k in range(count)]
        self.written: list[Campaign] = []
        self.counts = FitCounts()
        self.bytes_read = 0

    def setup(self, tr) -> list[float]:
        self.dir.mkdir(parents=True)
        times = []
        for k, noise_seed in enumerate(self.seeds):
            t0 = time.perf_counter()
            with tr.span("setup"):
                self.written.append(self._write(tr, self.dir / f"c{k}", noise_seed))
            times.append(time.perf_counter() - t0)
        return times

    def _write(self, tr, where: Path, noise_seed: int) -> Campaign:
        logs, big, scans = generate_campaign(tr, noise_seed)
        where.mkdir()
        camp = Campaign(
            converged=[where / f"converged-{j}.jsonl" for j in range(len(logs))],
            big=where / "big.jsonl",
            scans=[where / f"scan-{j}.csv" for j in range(len(scans))],
            where=where,
        )
        for run, path, fmt in [
            *((r, p, "jsonl") for r, p in zip(logs, camp.converged)),
            (big, camp.big, "jsonl"),
            *((r, p, "csv") for r, p in zip(scans, camp.scans)),
        ]:
            rows = _rows(run)
            tr.counted(f"io.write_run_log.{fmt}", lambda _: rows, write_run_log, run, path, fmt=fmt)
            camp.bytes += path.stat().st_size
        return camp

    def op(self, tr, i: int) -> OpResult:
        camp = self.written[i % len(self.written)]
        with recorded_warnings() as caught:
            logs = [tr.counted("io.read_run_log.jsonl", _rows, read_run_log, p) for p in camp.converged]
            big = tr.counted("io.read_run_log.jsonl", _rows, read_run_log, camp.big)
            scans = [tr.counted("io.read_run_log.csv", _rows, read_run_log, p) for p in camp.scans]
            converged = [tr.call("fitting.extract_converged_run", extract_converged_run, r) for r in logs]
            report = tr.call("fitting.fit_full_pipeline", fit_full_pipeline,
                             converged, big, scans, FitOptions())
        doc = tr.call("io.document_from_report", document_from_report, report)
        # a new file per op: ext4 flushes a file renamed over an existing
        # one to disk, and disk latency is not what this measures
        path = camp.where / f"fitted-{i}.json"
        tr.call("io.write_constants", write_constants, doc, path)
        back = tr.call("io.read_constants", read_constants, path)
        constants = tr.call("io.ConstantsDocument.constants", back.constants)
        plan = tr.call("planning.optimal_allocation", optimal_allocation, constants, self.budget)
        result = OpResult(
            ok=complete(report) and back == doc and math.isfinite(plan.loss_final),
            warnings=scaling_warnings(caught),
        )
        if result.ok:
            result.hit = max(exponent_errors(report.constants)) <= HIT_TOLERANCE
            result.replay = (converged, big, scans, report.constants, camp.bytes)
        return result

    def replay(self, tr, result: OpResult) -> bool:
        converged, big, scans, constants, size = result.replay
        self.bytes_read += size
        return bit_equal(replay_pipeline(tr, converged, big, scans, self.counts), constants)

    def finish(self, tr) -> dict[str, bool]:
        """``scalinglaws fit`` on campaign 0 writes op 0's document byte for byte."""
        camp = self.written[0]
        out = camp.where / "fitted-cli.json"
        argv = ["fit", "--big-batch-log", str(camp.big), "--out", str(out)]
        for p in camp.converged:
            argv += ["--converged-log", str(p)]
        for p in camp.scans:
            argv += ["--scan-log", str(p)]
        with contextlib.redirect_stdout(io.StringIO()), recorded_warnings():
            rc = tr.call("cli.fit", cli.main, argv)
        op0 = camp.where / "fitted-0.json"
        same = rc == 0 and op0.is_file() and out.read_bytes() == op0.read_bytes()
        return {"cli_fit_identical": same}

    def quality(self, results) -> tuple[float, float]:
        """Share of written campaigns whose fit hits; no plain fit runs here,
        so no campaign can lose to one and the win share is 1."""
        hits = {}
        for i, r in enumerate(results):
            hits.setdefault(i % len(self.written), r.hit)
        return sum(hits.values()) / len(self.written), 1.0

    def layer_counts(self) -> dict[str, float]:
        return {**self.counts.metrics(), "io.bytes_read": float(self.bytes_read)}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class PlanQueries:
    """One op is one planning query at one budget, alternating the C4 and
    the mixed-corpus constants."""

    name = "plan_queries"
    collect_between_ops = False
    ops_per_second = 800
    has_replay = False
    warmup = 50
    setup_scope = "importing scalinglaws and its CLI afresh, numpy already loaded"
    setup_repeats = 11
    grid_points = 200

    def __init__(self, seed: int, ops: int, out: Path):
        rng = np.random.default_rng([seed, 3])
        # log-uniform over 1e17..1e24 FLOPs; the last entries feed warm-up
        self.budgets = [float(b) for b in 10.0 ** rng.uniform(17.0, 24.0, ops + self.warmup)]

    def setup(self, tr) -> list[float]:
        return import_times(self.setup_repeats)

    def op(self, tr, i: int) -> OpResult:
        c = (C4_CONSTANTS, MIXED_CONSTANTS)[i % 2]
        budget = self.budgets[i]
        plan = tr.call("planning.optimal_allocation", optimal_allocation, c, budget)
        check = tr.call("planning.verify_allocation", verify_allocation, c, budget)
        budget_back, _ = tr.call("planning.min_budget_for_loss", min_budget_for_loss, c, plan.loss_final)
        steps = tr.call("planning.min_steps_for_loss", min_steps_for_loss, c, plan.n_opt, plan.loss_final)
        tokens = tr.call("planning.min_tokens_for_loss", min_tokens_for_loss, c, plan.n_opt, plan.loss_final)
        batch = tr.call("planning.recommend_batch", recommend_batch, c, plan.loss_final)
        grid = np.geomspace(plan.s_opt / 1e3, plan.s_opt, self.grid_points)
        curve = tr.call("planning.predict_trajectory", predict_trajectory, c, plan.n_opt, plan.b_opt, grid)
        loss = tr.call("laws.solve_loss", solve_loss, c, plan.n_opt, plan.s_opt, plan.b_opt)
        ok = (
            abs(loss / plan.loss_final - 1.0) <= 1e-9
            and abs(budget_back / budget - 1.0) <= 1e-9
            and check.within_one_cell
            and bool(np.all(np.diff(curve.losses) < 0))
            and all(math.isfinite(v) and v > 0 for v in (steps, tokens, batch))
        )
        return OpResult(ok=ok)

    def finish(self, tr) -> dict[str, bool]:
        return {}

    def quality(self, results) -> tuple[float, float]:
        """Nothing is fitted here: no campaign can miss, so both shares are 1."""
        return 1.0, 1.0

    def layer_counts(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (FitCampaigns, LogCampaign, PlanQueries)}
