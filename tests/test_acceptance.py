"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all;
failures always surface the line). The expensive sweeps run with process
workers but stay deterministic: every trial is seeded independently.
"""

import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import oracles
from conftest import random_trajectory

from rip.bench import (
    DownsampleBenchSettings,
    SweepSettings,
    run_cell_trial,
    run_downsample_bench,
    trajectory_rmse,
    trial_seed,
    two_proportion_band,
)
from rip.cli import EXIT_OK, main
from rip.downsample import downsample, gripper_transitions, mask_key_steps
from rip.estimator import (
    FitConfig,
    fit_array,
    log_gamma,
    loss_gradient_array,
    mean_curve,
    nll_loss_array,
    t_log_pdf,
)
from rip.pipeline import run_rip, run_rip_gauss
from rip.policy import (
    PolicyConfig,
    SyntheticOracleConfig,
    make_consensus_task,
    sample_trajectories,
)
from rip.tokens import decode_trajectory, encode_action_block

# One worker per usable core: more only oversubscribes the cores.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def report(n, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)",
          flush=True)
    assert ok, f"criterion {n} failed: {detail}"
    assert elapsed < budget, f"criterion {n} blew its {budget}s budget ({elapsed:.1f}s)"


def make_random_estimator(rng, hidden, n_channels, nu):
    from test_estimator import random_estimator

    return random_estimator(rng, hidden, n_channels, nu, affine=True)


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    nus = (1.25, 1.5, 3.0, math.inf)
    worst = 0.0
    for i in range(20):
        nu = nus[i % 4]
        n_q, n_t, n_d = int(rng.integers(2, 5)), int(rng.integers(3, 6)), int(rng.integers(1, 3))
        est = make_random_estimator(rng, (int(rng.integers(4, 8)), int(rng.integers(4, 8))),
                                    n_d, nu)
        data = rng.normal(0.0, 1.2, (n_q, n_t, n_d))
        grid = np.linspace(0.0, 1.0, n_t)
        analytic = loss_gradient_array(data, grid, est)
        numeric = oracles.central_difference_gradient(
            lambda: nll_loss_array(data, grid, est), est.params, step=1e-5)
        worst = max(worst, oracles.max_relative_error(analytic, numeric))
    report(1, worst <= 1e-4, f"max rel gradient error {worst:.2e} <= 1e-4",
           time.perf_counter() - t0, 30)


def test_criterion_2_density_validity():
    import scipy.integrate

    t0 = time.perf_counter()
    mu, var = 0.4, 0.8
    worst_mass_err = 0.0
    for nu in (1.25, 1.5, 3.0, 30.0):
        mass, _ = scipy.integrate.quad(
            lambda a: math.exp(float(t_log_pdf(a, mu, var, nu))),
            -np.inf, np.inf, limit=400)
        worst_mass_err = max(worst_mass_err, abs(mass - 1.0))
    xs = np.linspace(-5.0, 5.0, 501)
    dens_t = np.exp(t_log_pdf(xs, 0.0, 1.0, 1e6))
    dens_g = np.exp(t_log_pdf(xs, 0.0, 1.0, math.inf))
    limit_err = float(np.abs(dens_t - dens_g).max())
    ok = worst_mass_err <= 1e-3 and limit_err <= 1e-4
    report(2, ok, f"mass error {worst_mass_err:.2e} <= 1e-3, "
           f"Gaussian-limit density error {limit_err:.2e} <= 1e-4",
           time.perf_counter() - t0, 5)


def test_criterion_3_log_gamma_accuracy():
    t0 = time.perf_counter()
    xs = np.linspace(0.5, 100.0, 1000)
    ours = log_gamma(xs)
    worst = max(abs(float(o) - oracles.ref_log_gamma(float(x))) for o, x in zip(ours, xs))
    report(3, worst <= 1e-10, f"max abs error {worst:.2e} <= 1e-10",
           time.perf_counter() - t0, 1)


def test_criterion_4_robust_location_recovery():
    t0 = time.perf_counter()
    data = np.zeros((5, 20, 1))
    data[4] = 10.0
    grid = np.linspace(0.0, 1.0, 20)
    t_est, _ = fit_array(data, grid, FitConfig(nu=1.5, seed=0))
    g_est, _ = fit_array(data, grid, FitConfig(nu=math.inf, seed=0))
    t_peak = float(np.abs(mean_curve(t_est, grid)).max())
    g_vals = mean_curve(g_est, grid)
    mu_t, _, _ = oracles.grid_search_location([0, 0, 0, 0, 10], 1.5)
    mu_g, _, _ = oracles.grid_search_location([0, 0, 0, 0, 10], math.inf)
    ok = (
        t_peak <= 0.5
        and bool(np.all(np.abs(g_vals - 2.0) <= 0.3))
        and abs(mu_t) <= 0.5
        and abs(mu_g - 2.0) <= 0.01
    )
    report(4, ok, f"t-mode peak |mu| {t_peak:.3f} <= 0.5 (oracle argmin {mu_t:.3f}), "
           f"Gaussian in 2.0±0.3 (oracle {mu_g:.3f})",
           time.perf_counter() - t0, 120)


def criterion_5_seed(seed):
    """One seed of criterion 5: (t beats Gaussian by 2x, slot 0 drew the
    hallucination, both fits beat that hallucinated sample)."""
    delta = 0.14
    ctx, consensus = make_consensus_task(seed, "pick")
    oracle_cfg = SyntheticOracleConfig(
        seed=seed, task_shape="pick", noise_scale=0.005,
        planted_hallucinations=1, hallucination_offset=delta)
    policy = PolicyConfig(backend="synthetic", query_count=5, synthetic=oracle_cfg)
    fit_cfg = FitConfig(steps=3000, seed=seed)
    traj_t, _ = run_rip(ctx, policy, fit_cfg)
    traj_g, _ = run_rip_gauss(ctx, policy, fit_cfg)
    rmse_t = trajectory_rmse(traj_t, consensus)
    rmse_g = trajectory_rmse(traj_g, consensus)
    first = sample_trajectories(ctx, policy)[0].trajectory
    rmse_first = trajectory_rmse(first, consensus)
    hallucinated = rmse_first > delta / 2 / math.sqrt(3)
    return rmse_t < 0.5 * rmse_g, hallucinated, rmse_t < rmse_first and rmse_g < rmse_first


def test_criterion_5_robustness_ordering():
    t0 = time.perf_counter()
    n_seeds = 20
    # Spawned workers: the test process may still hold threads from
    # earlier tests, and forking a threaded process is unsafe.
    with ProcessPoolExecutor(WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
        outcomes = list(pool.map(criterion_5_seed, range(n_seeds)))
    ratio_wins = sum(win for win, _, _ in outcomes)
    single_checks = sum(checked for _, checked, _ in outcomes)
    single_wins = sum(checked and beat for _, checked, beat in outcomes)
    ok = ratio_wins >= 0.9 * n_seeds and single_wins == single_checks
    report(5, ok, f"RMSE ratio < 0.5 in {ratio_wins}/{n_seeds} seeds (need 18); "
           f"beat the hallucinated single sample {single_wins}/{single_checks}",
           time.perf_counter() - t0, 600)


def criterion_6_rates(master_seed, trials):
    """Success rates of the three (Q, nu) cells criterion 6 reads.

    Each trial gets the seed ``run_sweep`` gives it on the full 2 x 2 grid,
    so the rates are those of that sweep; the (2, inf) cell is not run.
    """
    settings = SweepSettings(q_values=(2, 5), nu_values=(1.5, math.inf), trials=trials,
                             master_seed=master_seed, fit=FitConfig(steps=3000))
    grid = settings.cells()
    read = [(2, 1.5), (5, 1.5), (5, math.inf)]
    jobs = [(q, nu, trial_seed(master_seed, grid.index((q, nu)), ti), settings)
            for q, nu in read for ti in range(trials)]
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        outcomes = list(pool.map(run_cell_trial, *zip(*jobs), chunksize=4))
    return {cell: sum(s for s, _ in outcomes[i * trials:(i + 1) * trials]) / trials
            for i, cell in enumerate(read)}


def test_criterion_6_design_sweep_directionality():
    t0 = time.perf_counter()
    reps, trials = 5, 50
    passed = 0
    detail = []
    for rep in range(reps):
        rates = criterion_6_rates(1000 + rep, trials)
        p_q2 = rates[(2, 1.5)]
        p_q5 = rates[(5, 1.5)]
        p_inf = rates[(5, math.inf)]
        q_ok = (p_q5 - p_q2) > two_proportion_band(p_q5, p_q2, trials, trials)
        nu_ok = (p_q5 - p_inf) > two_proportion_band(p_q5, p_inf, trials, trials)
        passed += int(q_ok and nu_ok)
        detail.append(f"rep{rep}: q5={p_q5:.2f} q2={p_q2:.2f} inf={p_inf:.2f}")
    ok = passed >= math.ceil(0.8 * reps)
    report(6, ok, f"{passed}/{reps} sweep repetitions exceed both noise bands; "
           + "; ".join(detail), time.perf_counter() - t0, 1800)


def test_criterion_7_downsampling_direction():
    t0 = time.perf_counter()
    settings = DownsampleBenchSettings(n_seeds=50, master_seed=0)
    rows = run_downsample_bench(settings, workers=WORKERS)
    per_seed = {}
    for r in rows:
        per_seed.setdefault(r["seed"], {})[r["method"]] = r["success"]
    geq = sum(1 for d in per_seed.values() if d["g_based"] >= d["uniform"])
    rate_g = np.mean([d["g_based"] for d in per_seed.values()])
    rate_u = np.mean([d["uniform"] for d in per_seed.values()])
    ok = geq >= 0.8 * len(per_seed)
    report(7, ok, f"g-based >= uniform in {geq}/{len(per_seed)} seeds "
           f"(rates {rate_g:.2f} vs {rate_u:.2f})",
           time.perf_counter() - t0, 600)


def _strip_timings(path):
    payload = json.loads(path.read_text())
    payload.pop("timings", None)
    return json.dumps(payload, sort_keys=True)


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    checks = {}

    def rerun_identical(argv, paths):
        """Run the exact same command twice; snapshot output bytes between runs."""
        assert main(argv) == EXIT_OK
        first = [p.read_bytes() for p in paths]
        assert main(argv) == EXIT_OK
        second = [p.read_bytes() for p in paths]
        return first, second

    traj, rep = tmp_path / "t.json", tmp_path / "r.json"
    first, second = rerun_identical(
        ["aggregate", "--method", "rip", "--backend", "synthetic", "--seed", "7",
         "--q", "5", "--nu", "1.5", "--fit-steps", "800", "--noise-scale", "0.004",
         "--out", str(traj), "--report", str(rep)],
        [traj],
    )
    checks["aggregate"] = first == second
    # Timings are wall-clock by nature; everything else must match exactly.
    reports = []
    for _ in range(2):
        assert main(["aggregate", "--seed", "7", "--q", "5", "--fit-steps", "800",
                     "--noise-scale", "0.004", "--out", str(traj),
                     "--report", str(rep)]) == EXIT_OK
        reports.append(_strip_timings(rep))
    checks["report"] = reports[0] == reports[1]

    sweep_csv = tmp_path / "s.csv"
    first, second = rerun_identical(
        ["sweep", "--q-grid", "2", "3", "--nu-grid", "1.5", "--trials", "2",
         "--fit-steps", "400", "--task-shape", "reach", "--hallucination-prob",
         "0.2", "--seed", "3", "--workers", "2", "--out", str(sweep_csv)],
        [sweep_csv],
    )
    checks["parallel sweep"] = first == second

    ds_csv = tmp_path / "d.csv"
    first, second = rerun_identical(
        ["downsample-bench", "--seeds", "2", "--fit-steps", "400", "--seed", "5",
         "--workers", "2", "--out", str(ds_csv)],
        [ds_csv],
    )
    checks["downsample bench"] = first == second

    ok = all(checks.values())
    report(8, ok, f"byte-stable outputs: {checks}", time.perf_counter() - t0, 300)


def test_criterion_9_tokenizer_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    worst = 0.0
    grippers_exact = True
    for _ in range(1000):
        tr = random_trajectory(rng, n=int(rng.integers(2, 40)),
                               n_transitions=int(rng.integers(0, 4)), box=5.0)
        back = decode_trajectory(encode_action_block(tr))
        worst = max(worst, float(np.abs(
            back.to_array()[:, :9] - tr.to_array()[:, :9]).max()))
        grippers_exact &= back.gripper_states() == tr.gripper_states()
    ok = worst <= 5e-4 + 1e-12 and grippers_exact
    report(9, ok, f"max coordinate error {worst * 1000:.3f} mm <= 0.5 mm, "
           f"gripper bits exact: {grippers_exact}", time.perf_counter() - t0, 5)


def test_criterion_10_downsampler_mask_guarantee():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    ok = True
    for _ in range(1000):
        k = int(rng.integers(0, 5))
        tr = random_trajectory(rng, n=int(rng.integers(35, 240)), n_transitions=k)
        out = downsample(tr, 30)
        same_events = [d for _, d in gripper_transitions(out)] == \
            [d for _, d in gripper_transitions(tr)]
        within = abs(len(out) - 30) <= len(mask_key_steps(tr))
        ok &= same_events and within
    report(10, ok, "all transitions preserved and |len-30| <= mask count "
           "over 1000 random trajectories", time.perf_counter() - t0, 5)
