"""Desk-scale benchmark engine against the synthetic oracle.

Success is a geometric proxy for task completion: the final gripper-body
position must land within a tolerance of the consensus final position and
the gripper event sequence must match. The downsampling comparison also
requires each grasp/release to happen at the right point in space, which
is exactly what uniform striding of a high-frequency demonstration ruins.

Every trial is seeded by (master seed, cell index, trial index), so sweeps
are reproducible and safe to parallelize across processes.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import Trajectory, is_integer, resample_trajectory
from .downsample import downsample, gripper_transitions, uniform_downsample
from .estimator import FitConfig
from .pipeline import run_rip
from .policy import PolicyConfig, SyntheticOracleConfig, make_consensus_task
from .tokens import PolicyContext

FINAL_TOL = 0.02  # meters
# Length range of the full-rate demonstration the downsample bench thins.
DEMO_LENGTH_RANGE = (260, 340)


def task_success(candidate: Trajectory, reference: Trajectory,
                 event_tol: float | None = None) -> dict:
    """Judge a candidate trajectory against the task's consensus.

    The final gripper-body position must lie within ``FINAL_TOL`` of the
    consensus's and the gripper events must match in direction. A distance
    ``event_tol`` also requires every event to occur within that distance
    of where the consensus performs it.
    """
    cand_p0 = candidate.data[:, 0:3]
    ref_p0 = reference.data[:, 0:3]
    final_err = float(np.linalg.norm(cand_p0[-1] - ref_p0[-1]))

    cand_ev = gripper_transitions(candidate)
    ref_ev = gripper_transitions(reference)
    events_ok = [d for _, d in cand_ev] == [d for _, d in ref_ev]

    event_err = 0.0
    if events_ok and event_tol is not None and ref_ev:
        # Compare where each event lands. Either side of the candidate's
        # transition may anchor it: threshold timing is only resolved to
        # one grid step, but the grasp point itself must be right.
        errs = []
        for (tc, _), (tr, _) in zip(cand_ev, ref_ev):
            anchor = ref_p0[tr + 1]
            errs.append(min(
                float(np.linalg.norm(cand_p0[tc] - anchor)),
                float(np.linalg.norm(cand_p0[tc + 1] - anchor)),
            ))
        event_err = max(errs)
        events_ok = event_err <= event_tol

    success = final_err <= FINAL_TOL and events_ok
    return {
        "success": bool(success),
        "final_err": final_err,
        "events_ok": bool(events_ok),
        "event_err": event_err,
    }


def trajectory_rmse(candidate: Trajectory, reference: Trajectory) -> float:
    """Root-mean-square position error, candidate resampled onto the
    reference length; gripper excluded."""
    cand = resample_trajectory(candidate, len(reference)).to_array()[:, :9]
    ref = reference.to_array()[:, :9]
    return float(np.sqrt(np.mean((cand - ref) ** 2)))


def trial_seed(master_seed: int, cell_index: int, trial_index: int) -> int:
    """Stable per-trial seed; parallel execution cannot change it."""
    ss = np.random.SeedSequence([master_seed, cell_index, trial_index])
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class SweepSettings:
    q_values: tuple = (2, 3, 5, 10)
    nu_values: tuple = (1.5,)
    trials: int = 50
    master_seed: int = 0
    oracle: SyntheticOracleConfig = SyntheticOracleConfig(
        task_shape="pick",
        noise_scale=0.005,
        hallucination_prob=0.2,
        hallucination_offset=0.2,
    )
    fit: FitConfig = FitConfig(steps=3000)

    def __post_init__(self):
        if not self.cells() or not all(is_integer(q) and q >= 1 for q in self.q_values):
            raise ValueError(f"the sweep needs a nu and a Q, each Q an integer >= 1; "
                             f"got Q {self.q_values}")
        if not all(nu > 0 for nu in self.nu_values):
            raise ValueError(f"each nu must be positive (or inf), got {self.nu_values}")
        if not (is_integer(self.trials) and self.trials >= 1
                and is_integer(self.master_seed) and self.master_seed >= 0):
            raise ValueError(f"trials must be an integer >= 1 and the seed an integer >= 0, "
                             f"got {self.trials!r} and {self.master_seed!r}")

    def cells(self) -> list:
        return [(q, nu) for q in self.q_values for nu in self.nu_values]


@dataclass(frozen=True)
class CellResult:
    q: int
    nu: float
    success_rate: float
    rmse_mean: float
    rmse_std: float
    n_trials: int


def run_cell_trial(q: int, nu: float, seed: int, settings: SweepSettings) -> tuple[bool, float]:
    """One aggregation run on a fresh synthetic task; returns (success, rmse)."""
    context, consensus = make_consensus_task(seed, settings.oracle.task_shape)
    oracle = replace(settings.oracle, seed=seed)
    policy = PolicyConfig(backend="synthetic", query_count=q, synthetic=oracle)
    fit_cfg = replace(settings.fit, nu=nu, seed=seed)
    trajectory, _report = run_rip(context, policy, fit_cfg)
    outcome = task_success(trajectory, consensus)
    return outcome["success"], trajectory_rmse(trajectory, consensus)


def _map_trials(fn, workers: int, chunksize: int, *args) -> list:
    """``fn`` over the zipped argument lists, in a process pool when
    ``workers`` > 1; results come back in job order either way."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *args, chunksize=chunksize))
    return list(map(fn, *args))


def run_sweep(settings: SweepSettings, workers: int = 1) -> list[CellResult]:
    """Run the full (Q, nu) grid and aggregate per-cell metrics."""
    cells = settings.cells()
    jobs = [(q, nu, trial_seed(settings.master_seed, ci, ti), settings)
            for ci, (q, nu) in enumerate(cells) for ti in range(settings.trials)]
    outcomes = _map_trials(run_cell_trial, workers, 4, *zip(*jobs))

    results = []
    for ci, (q, nu) in enumerate(cells):
        per = outcomes[ci * settings.trials:(ci + 1) * settings.trials]
        successes = [s for s, _ in per]
        rmses = np.array([r for _, r in per])
        results.append(
            CellResult(
                q=q,
                nu=nu,
                success_rate=sum(successes) / len(successes),
                rmse_mean=float(rmses.mean()),
                rmse_std=float(rmses.std()),
                n_trials=settings.trials,
            )
        )
    return results


def _fmt_nu(nu: float) -> str:
    return "inf" if math.isinf(nu) else f"{nu:g}"


SWEEP_CSV_FIELDS = ("q", "nu", "success_rate", "rmse_mean", "rmse_std", "n_trials")


def _write_csv(path, fields: tuple, rows, append: bool) -> None:
    """Schema-stable CSV; the header is written only when the file is new."""
    need_header = not (append and os.path.exists(path) and os.path.getsize(path) > 0)
    with open(path, "a" if append else "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if need_header:
            writer.writerow(fields)
        writer.writerows(rows)


def write_sweep_csv(path, results: list, append: bool = False) -> None:
    _write_csv(path, SWEEP_CSV_FIELDS, (
        [r.q, _fmt_nu(r.nu), f"{r.success_rate:.4f}",
         f"{r.rmse_mean:.6f}", f"{r.rmse_std:.6f}", r.n_trials]
        for r in results
    ), append)


def two_proportion_band(p1: float, p2: float, n1: int, n2: int, z: float = 1.96) -> float:
    """95% noise band for the difference of two independent proportions."""
    se = math.sqrt(p1 * (1.0 - p1) / n1 + p2 * (1.0 - p2) / n2)
    return z * se


DOWNSAMPLE_CSV_FIELDS = ("method", "seed", "success", "final_err", "event_err")

DOWNSAMPLE_METHODS = ("g_based", "uniform")


@dataclass(frozen=True)
class DownsampleBenchSettings:
    n_seeds: int = 50
    master_seed: int = 0
    target_len: int = 30
    query_count: int = 5
    oracle: SyntheticOracleConfig = SyntheticOracleConfig(
        noise_scale=0.003,
        hallucination_prob=0.1,
        hallucination_offset=0.2,
        length_jitter=(0, 0),
        follow_context_demo=True,
    )
    fit: FitConfig = FitConfig(steps=3000)

    def __post_init__(self):
        if not all(is_integer(n) and n >= 1 for n in (self.n_seeds, self.query_count)):
            raise ValueError(f"seeds and Q must be integers >= 1, "
                             f"got {self.n_seeds!r} and {self.query_count!r}")
        # A target of 2 or more may still be below a task's masked steps,
        # which only the run can tell.
        if not (is_integer(self.master_seed) and self.master_seed >= 0
                and is_integer(self.target_len) and self.target_len >= 2):
            raise ValueError(f"the seed must be an integer >= 0 and the target length "
                             f"an integer >= 2, got {self.master_seed!r} and {self.target_len!r}")


def run_downsample_trial(seed: int, method: str,
                         settings: DownsampleBenchSettings) -> dict:
    """Preprocess the demo with one downsampler, imitate it, judge against
    the full-rate consensus."""
    context, consensus = make_consensus_task(
        seed,
        settings.oracle.task_shape,
        n_demos=1,
        length_range=DEMO_LENGTH_RANGE,
        pick_profile="swoop",
        demo_drift=0.0,
        demo_wobble=0.001,
    )
    kp, demo = context.demonstrations[0]
    thin = downsample if method == "g_based" else uniform_downsample
    processed = PolicyContext(((kp, thin(demo, settings.target_len)),),
                              context.query_keypoints)
    oracle = replace(settings.oracle, seed=seed)
    policy = PolicyConfig(backend="synthetic", query_count=settings.query_count,
                          synthetic=oracle)
    fit_cfg = replace(settings.fit, seed=seed)
    trajectory, _report = run_rip(processed, policy, fit_cfg)
    outcome = task_success(trajectory, consensus, event_tol=FINAL_TOL)
    outcome["method"] = method
    outcome["seed"] = seed
    return outcome


def run_downsample_bench(settings: DownsampleBenchSettings, workers: int = 1) -> list[dict]:
    seeds = [trial_seed(settings.master_seed, 0, s) for s in range(settings.n_seeds)
             for _method in DOWNSAMPLE_METHODS]
    methods = DOWNSAMPLE_METHODS * settings.n_seeds
    return _map_trials(run_downsample_trial, workers, 2, seeds, methods,
                       [settings] * len(seeds))


def write_downsample_csv(path, rows: list, append: bool = False) -> None:
    _write_csv(path, DOWNSAMPLE_CSV_FIELDS, (
        [r["method"], r["seed"], int(r["success"]),
         f"{r['final_err']:.6f}", f"{r['event_err']:.6f}"]
        for r in rows
    ), append)


def downsample_success_rates(rows: list) -> dict:
    rates = {}
    for method in DOWNSAMPLE_METHODS:
        per = [r["success"] for r in rows if r["method"] == method]
        rates[method] = sum(per) / len(per) if per else float("nan")
    return rates
