import dataclasses
import logging
import math
from collections import Counter

import numpy as np
import pytest
import scipy.integrate

import oracles

import rip.estimator
from rip.core import align_bundle
from rip.errors import TrainingError
from rip.estimator import (
    ANNEAL_STEPS,
    PLATEAU_TOL,
    VAR_FLOOR,
    FitConfig,
    StudentTEstimator,
    extract_mean,
    fit_array,
    gradient_check,
    log_density,
    log_gamma,
    loss_gradient_array,
    mean_curve,
    nll_loss_array,
    _flat_params,
)
from rip.pipeline import run_rip
from rip.policy import (
    PolicyConfig,
    SyntheticOracleConfig,
    make_consensus_task,
    sample_trajectories,
)


def head_params(layers, i):
    """Views of head i's W1 b1 W2 b2 W3 b3 in ``_flat_params`` layers;
    head 0 is the mean head, head 1 the variance head."""
    L1, (W2, b2), (W3, b3) = layers
    return L1[i, :-1], L1[i, -1], W2[i], b2[i, 0], W3[i], b3[i, 0]


def constant_estimator(mu_values, var_values, nu, hidden=(4, 4)):
    """Estimator whose mean/variance are constant in t: zero weights, set biases."""
    mu_values = np.asarray(mu_values, dtype=float)
    var_values = np.asarray(var_values, dtype=float)
    n = len(mu_values)
    theta, layers = _flat_params(hidden, n)
    head_params(layers, 0)[5][:] = mu_values
    head_params(layers, 1)[5][:] = np.log(np.expm1(var_values - VAR_FLOOR))
    return StudentTEstimator(theta=theta, nu=nu, hidden=hidden, channel_shift=np.zeros(n),
                             channel_scale=np.ones(n))


def log_schedule(steps):
    """The steps fit_array's log schedule names if the fit runs to its cap:
    every max(1, h // 200) steps of the annealing horizon
    h = min(steps, ANNEAL_STEPS) and step h, then a check every 100 steps
    and at the cap."""
    h = min(steps, ANNEAL_STEPS)
    every = max(1, h // 200)
    return sorted(set(range(every, h + 1, every)) | {h}
                  | set(range(h + 100, steps + 1, 100)) | {steps})


def random_estimator(rng, hidden, n_channels, nu, affine=False):
    theta, layers = _flat_params(hidden, n_channels)
    for i in (0, 1):  # mu head then s head, W1 b1 W2 b2 W3 b3 each
        for p in head_params(layers, i):
            p[...] = rng.normal(0.0, 0.4, p.shape)
    shift = rng.normal(0.0, 1.0, n_channels) if affine else np.zeros(n_channels)
    scale = rng.uniform(0.5, 2.0, n_channels) if affine else np.ones(n_channels)
    return StudentTEstimator(theta=theta, nu=nu, hidden=hidden,
                             channel_shift=shift, channel_scale=scale)


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), abs=1e-10)

    def test_against_reference_grid(self):
        xs = np.linspace(0.5, 100.0, 101)
        for x in xs:
            assert abs(log_gamma(float(x)) - oracles.ref_log_gamma(x)) <= 1e-10

    def test_reflection_region(self):
        for x in (0.1, 0.25, 0.4):
            assert abs(log_gamma(x) - oracles.ref_log_gamma(x)) <= 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-3.0)

    def test_vectorized(self):
        out = log_gamma(np.array([1.0, 2.0, 3.0]))
        assert out == pytest.approx([0.0, 0.0, math.log(2.0)])


class TestLogDensity:
    def test_cauchy_mode(self):
        est = constant_estimator([0.0], [1.0], nu=1.0)
        assert log_density(0.0, 0.5, est)[0] == pytest.approx(-math.log(math.pi), abs=1e-12)

    def test_symmetry(self):
        est = constant_estimator([0.3], [0.7], nu=2.5)
        for delta in (0.1, 1.0, 4.2):
            assert log_density(0.3 + delta, 0.2, est)[0] == pytest.approx(
                log_density(0.3 - delta, 0.2, est)[0])

    def test_nu3_unit_scale_at_one(self):
        est = constant_estimator([0.0], [1.0], nu=3.0)
        value = math.exp(log_density(1.0, 0.0, est)[0])
        assert value == pytest.approx(0.2067, abs=2e-4)
        assert log_density(1.0, 0.0, est)[0] == pytest.approx(
            oracles.ref_t_log_density(1.0, 0.0, 1.0, 3.0), abs=1e-10)

    def test_matches_reference_across_nu(self, rng):
        for _ in range(40):
            nu = float(rng.uniform(0.6, 40.0))
            mu = float(rng.normal(0, 2))
            var = float(rng.uniform(0.05, 9.0))
            a = float(rng.normal(mu, 3))
            est = constant_estimator([mu], [var], nu=nu)
            assert log_density(a, 0.5, est)[0] == pytest.approx(
                oracles.ref_t_log_density(a, mu, var, nu), abs=1e-9)

    def test_gaussian_mode(self):
        est = constant_estimator([1.0], [2.0], nu=math.inf)
        expect = -0.5 * math.log(2 * math.pi * 2.0) - 0.25 / 4.0
        assert log_density(1.5, 0.1, est)[0] == pytest.approx(expect, abs=1e-12)


class TestDensityProperties:
    @pytest.mark.parametrize("nu", [1.25, 1.5, 3.0, 30.0])
    def test_normalizes_to_one(self, nu):
        est = constant_estimator([0.4], [0.8], nu=nu)

        def pdf(a):
            return math.exp(log_density(a, 0.5, est)[0])

        mass, _ = scipy.integrate.quad(pdf, -np.inf, np.inf, limit=400)
        assert abs(mass - 1.0) <= 1e-3

    def test_gaussian_limit_on_density_scale(self):
        sigma2 = 1.0
        est_t = constant_estimator([0.0], [sigma2], nu=1e6)
        est_g = constant_estimator([0.0], [sigma2], nu=math.inf)
        xs = np.linspace(-5.0, 5.0, 401)
        worst = max(
            abs(math.exp(log_density(x, 0.5, est_t)[0])
                - math.exp(log_density(x, 0.5, est_g)[0]))
            for x in xs
        )
        assert worst <= 1e-4

    def test_heavy_tails_dominate_past_four_sigma(self):
        est_t = constant_estimator([0.0], [1.0], nu=1.5)
        est_g = constant_estimator([0.0], [1.0], nu=math.inf)
        for x in np.concatenate([np.linspace(4.0, 10.0, 30), [20.0, 50.0]]):
            assert log_density(x, 0.5, est_t)[0] > log_density(x, 0.5, est_g)[0]


class TestNllLoss:
    def test_single_element_is_negative_log_density(self):
        est = constant_estimator([0.2], [0.5], nu=1.5)
        data = np.array([[[1.1]]])
        grid = np.array([0.0])
        expect = -oracles.ref_t_log_density(1.1, 0.2, 0.5, 1.5)
        assert nll_loss_array(data, grid, est) == pytest.approx(expect, abs=1e-9)

    def test_duplicating_bundle_doubles_loss(self, rng):
        est = constant_estimator([0.0, 0.5], [1.0, 2.0], nu=2.0)
        data = rng.normal(0, 1, (3, 4, 2))
        grid = np.linspace(0, 1, 4)
        once = nll_loss_array(data, grid, est)
        twice = nll_loss_array(np.concatenate([data, data]), grid, est)
        assert twice == pytest.approx(2 * once)

    def test_loss_prefers_mean_on_data(self):
        grid = np.linspace(0, 1, 5)
        data = np.full((4, 5, 1), 2.0)
        near = constant_estimator([2.0], [1.0], nu=1.5)
        far = constant_estimator([7.0], [1.0], nu=1.5)
        assert nll_loss_array(data, grid, near) < nll_loss_array(data, grid, far)


class TestLossGradient:
    def test_matches_central_differences(self, rng):
        for nu in (1.25, 1.5, 3.0, math.inf):
            est = random_estimator(rng, (5, 4), 2, nu, affine=True)
            data = rng.normal(0.0, 1.5, (3, 4, 2))
            grid = np.linspace(0, 1, 4)
            analytic = loss_gradient_array(data, grid, est)
            numeric = oracles.central_difference_gradient(
                lambda: nll_loss_array(data, grid, est), {"theta": est.theta})
            assert oracles.max_relative_error({"theta": analytic}, numeric) <= 1e-4

    def test_symmetric_bundle_zeroes_mean_gradient(self):
        est = constant_estimator([0.0], [1.0], nu=1.5)
        grid = np.linspace(0, 1, 3)
        c = 0.8
        data = np.stack([np.full((3, 1), c), np.full((3, 1), -c)])
        grads = loss_gradient_array(data, grid, est)
        for g in head_params(_flat_params(est.hidden, 1, grads)[1], 0):
            assert np.abs(g).max() == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_mode_is_large_nu_limit(self, rng):
        est_inf = random_estimator(rng, (5, 4), 2, math.inf)
        est_big = dataclasses.replace(est_inf, nu=1e8)
        data = rng.normal(0.0, 1.0, (3, 5, 2))
        grid = np.linspace(0, 1, 5)
        g_inf = loss_gradient_array(data, grid, est_inf)
        g_big = loss_gradient_array(data, grid, est_big)
        assert oracles.max_relative_error({"theta": g_big}, {"theta": g_inf},
                                          floor=1e-8) <= 1e-4

    def test_bundle_api(self, rng):
        from conftest import random_trajectory

        bundle = align_bundle([random_trajectory(rng, n=8)], 8)
        est = constant_estimator([0.1] * 10, [1.0] * 10, nu=1.5)
        grads = loss_gradient_array(bundle.to_array(), bundle.grid(), est)
        assert grads.shape == est.theta.shape

    def test_builtin_checker_is_tight(self):
        assert gradient_check(seed=0, n_configs=6) <= 1e-4

    def test_builtin_checker_needs_a_config(self):
        # The count is an integer: True, an int subclass, and 2.5 are refused.
        for n in (0, -2, True, 2.5):
            with pytest.raises(ValueError):
                gradient_check(n_configs=n)
        for nus in ((), (math.nan,)):
            with pytest.raises(ValueError):
                gradient_check(nus=nus)


@pytest.fixture(scope="module")
def outlier_fits():
    """The 4-vs-1 planted-outlier bundle fitted in both modes."""
    data = np.zeros((5, 20, 1))
    data[4] = 10.0
    grid = np.linspace(0, 1, 20)
    t_est, t_curve = fit_array(data, grid, FitConfig(nu=1.5, seed=0))
    g_est, g_curve = fit_array(data, grid, FitConfig(nu=math.inf, seed=0))
    return data, grid, t_est, t_curve, g_est, g_curve


class TestFit:
    def test_constant_bundle_recovers_value(self):
        for c in (0.0, 3.0, -1.7):
            data = np.full((5, 12, 2), c)
            grid = np.linspace(0, 1, 12)
            est, _ = fit_array(data, grid, FitConfig(nu=1.5, seed=1, steps=1500))
            err = np.abs(mean_curve(est, grid) - c).max()
            assert err <= 1e-2 * max(1.0, abs(c))

    def test_outlier_bundle_t_mode_stays_robust(self, outlier_fits):
        data, grid, t_est, _, _, _ = outlier_fits
        assert np.abs(mean_curve(t_est, grid)).max() <= 0.5

    def test_outlier_bundle_matches_grid_oracle(self, outlier_fits):
        data, grid, t_est, _, _, _ = outlier_fits
        mu_star, _, _ = oracles.grid_search_location([0, 0, 0, 0, 10], 1.5)
        assert abs(mu_star) <= 0.05  # the robust location is at the inliers
        assert np.abs(mean_curve(t_est, grid) - mu_star).max() <= 0.5

    def test_outlier_bundle_gaussian_mode_is_dragged(self, outlier_fits):
        data, grid, _, _, g_est, _ = outlier_fits
        mu = mean_curve(g_est, grid)
        assert np.all(np.abs(mu - 2.0) <= 0.3)
        mu_star, _, _ = oracles.grid_search_location([0, 0, 0, 0, 10], math.inf)
        assert mu_star == pytest.approx(2.0, abs=0.01)

    def test_loss_tail_settles(self, outlier_fits):
        # Both default-budget fits stop on a plateau before their cap: the
        # last check fell by less than the tolerance, and the last ten kept
        # losses average no higher than the ten before them.
        data, _, _, t_curve, _, g_curve = outlier_fits
        for curve in (t_curve, g_curve):
            losses = [l for _, l in curve]
            assert curve[-1][0] < FitConfig().steps
            assert losses[-2] - losses[-1] < PLATEAU_TOL * data.size
            tail = np.mean(losses[-10:])
            prev = np.mean(losses[-20:-10])
            assert tail <= prev + 1e-3 * max(1.0, abs(prev))

    def test_translation_equivariance(self):
        rng = np.random.default_rng(5)
        data = rng.normal(0.0, 0.1, (4, 10, 1))
        grid = np.linspace(0, 1, 10)
        cfg = FitConfig(nu=1.5, seed=3, steps=1500)
        base, _ = fit_array(data, grid, cfg)
        shifted, _ = fit_array(data + 2.5, grid, cfg)
        diff = mean_curve(shifted, grid) - mean_curve(base, grid)
        assert np.abs(diff - 2.5).max() <= 2e-2

    def test_deterministic_given_seed(self):
        data = np.random.default_rng(0).normal(0, 1, (3, 8, 2))
        grid = np.linspace(0, 1, 8)
        a, _ = fit_array(data, grid, FitConfig(seed=11, steps=500))
        b, _ = fit_array(data, grid, FitConfig(seed=11, steps=500))
        assert np.array_equal(a.theta, b.theta)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reported_with_step(self):
        data = np.full((2, 4, 1), np.nan)
        grid = np.linspace(0, 1, 4)
        with pytest.raises(TrainingError) as err:
            fit_array(data, grid, FitConfig(steps=50))
        assert err.value.step is not None

    def test_seed_only_changes_the_initialisation(self):
        data = np.random.default_rng(1).normal(0, 1, (2, 5, 1))
        grid = np.linspace(0, 1, 5)
        a, _ = fit_array(data, grid, FitConfig(seed=0, steps=300))
        b, _ = fit_array(data, grid, FitConfig(seed=999, steps=300))
        # Every step trains on the whole bundle, so there is no sampling noise.
        assert np.abs(mean_curve(a, grid) - mean_curve(b, grid)).max() < 0.2


PARITY_SEEDS = (0, 1, 2)
PARITY_BOUND_M = 0.002


def _pick_run(seed):
    context, _ = make_consensus_task(seed, "pick")
    oracle = SyntheticOracleConfig(seed=seed, task_shape="pick", noise_scale=0.005,
                                   hallucination_prob=0.2, hallucination_offset=0.2)
    policy = PolicyConfig(backend="synthetic", query_count=5, synthetic=oracle)
    return run_rip(context, policy, FitConfig(seed=seed))[0]


class TestTrainingPrecision:
    """The loop trains in float32; everything it hands back is float64."""

    @pytest.fixture(scope="class")
    def fitted(self):
        data = np.random.default_rng(3).normal(0, 0.3, (4, 30, 3))
        grid = np.linspace(0, 1, 30)
        est, loss_curve = fit_array(data, grid, FitConfig(seed=4, steps=300))
        return data, grid, est, loss_curve

    def test_estimator_is_float64(self, fitted):
        _, grid, est, _ = fitted
        assert est.theta.dtype == np.float64
        assert all(a.dtype == np.float64 for a in est.mean_and_variance(grid))

    def test_estimator_holds_the_trained_parameters(self, fitted):
        # The loss fell during training (against the loss after step 1 of
        # the same seeded run, which the reference loop logs), and the last
        # logged loss is that of the returned estimator, bit for bit.
        data, grid, est, loss_curve = fitted
        _, curve = oracles.reference_fit(data, grid, 1.5, steps=300, seed=4)
        final_loss = loss_curve[-1][1]
        assert curve[0][0] == 1 and curve[-1] == loss_curve[-1]
        assert final_loss < curve[0][1]
        assert final_loss == nll_loss_array(data, grid, est)

    @pytest.mark.parametrize("nu, shape", [(1.5, (4, 30, 3)), (math.inf, (2, 5, 1))],
                             ids=["t-4x30x3", "gaussian-2x5x1"])
    def test_no_float64_array_enters_the_loop(self, monkeypatch, nu, shape):
        # One float64 operand would silently upcast the whole step, and
        # that includes the buffers the step writes into.
        seen, calls = [], Counter()

        def arrays(*values):
            for a in values:
                if isinstance(a, np.ndarray):
                    yield a
                elif isinstance(a, (list, tuple)):
                    yield from arrays(*a)

        def spy(name):
            real = getattr(rip.estimator, name)

            def wrapper(*args, **kwargs):
                result = real(*args, **kwargs)
                # A _softplus call without buffers is the float64 loss log.
                if name == "_backward" or kwargs.get("out") is not None:
                    calls[name] += 1
                    seen.extend(arrays(*args, *kwargs.values(), result))
                return result

            monkeypatch.setattr(rip.estimator, name, wrapper)

        for name in ("_softplus", "_nll_partials", "_backward"):
            spy(name)
        data = np.random.default_rng(0).normal(0, 1, shape)
        fit_array(data, np.linspace(0, 1, shape[1]), FitConfig(nu=nu, seed=0, steps=5))
        # Every step hands its softplus and its partials their out buffers.
        assert calls == {"_softplus": 5, "_nll_partials": 5, "_backward": 5}
        assert {a.dtype for a in seen} == {np.dtype(np.float32)}

    def test_matches_float64_training(self, monkeypatch):
        # Pick bundles (Q=5 with hallucinations) fitted at both precisions.
        # Measured on these seeds: the extracted means differ by at most
        # 0.18 mm (also 0.18 mm over seeds 0-9); the bound leaves room for
        # another BLAS to round differently.
        results = {}
        for dtype in (np.float32, np.float64):
            monkeypatch.setattr(rip.estimator, "_TRAIN_DTYPE", dtype)
            results[dtype] = [_pick_run(seed) for seed in PARITY_SEEDS]
        for single, double in zip(results[np.float32], results[np.float64]):
            assert single.gripper_states() == double.gripper_states()
            assert np.abs(single.data[:, :9] - double.data[:, :9]).max() <= PARITY_BOUND_M


@pytest.fixture(scope="module")
def pick_bundle():
    """A Q=5 pick bundle from the synthetic oracle: the data and its grid."""
    context, _ = make_consensus_task(1, "pick")
    oracle = SyntheticOracleConfig(seed=1, task_shape="pick", noise_scale=0.005,
                                   hallucination_prob=0.2, hallucination_offset=0.2)
    samples = sample_trajectories(context, PolicyConfig(backend="synthetic", query_count=5,
                                                        synthetic=oracle))
    decoded = [s.trajectory for s in samples]
    bundle = align_bundle(decoded, max(len(t) for t in decoded))
    return bundle.data, bundle.grid()


class TestStillFallingWarning:
    """The warning names a fit that reached a cap above ANNEAL_STEPS still falling."""

    def warnings(self, caplog, data, grid, config):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="rip.estimator"):
            _, loss_curve = fit_array(data, grid, config)
        return loss_curve, [r.getMessage() for r in caplog.records]

    def test_budget_that_runs_out_mid_descent_warns(self, caplog, pick_bundle):
        # The Gaussian fit of this bundle is still falling by several times
        # the tolerance when its 1,500-step cap ends it.
        loss_curve, messages = self.warnings(caplog, *pick_bundle,
                                             FitConfig(nu=math.inf, steps=1500, seed=3))
        assert loss_curve[-1][0] == 1500
        assert loss_curve[-2][1] - loss_curve[-1][1] >= PLATEAU_TOL * pick_bundle[0].size
        assert len(messages) == 1 and "still falling at the 1500-step cap" in messages[0]

    def test_plateaued_fit_does_not_warn(self, caplog, pick_bundle):
        loss_curve, messages = self.warnings(caplog, *pick_bundle, FitConfig(steps=4000, seed=3))
        assert loss_curve[-1][0] < 4000 and messages == []

    def test_annealing_only_budget_does_not_warn(self, caplog, pick_bundle):
        # A budget of at most ANNEAL_STEPS has no checks: it trains every step.
        loss_curve, messages = self.warnings(caplog, *pick_bundle,
                                             FitConfig(nu=math.inf, steps=ANNEAL_STEPS, seed=3))
        assert loss_curve[-1][0] == ANNEAL_STEPS and messages == []


class TestLossLog:
    """fit_array evaluates the loss only at the schedule points its loss curve keeps."""

    # Past 600 steps the curve keeps the annealing phase's last 40 points
    # (steps 483 to 600, every 3), then one check every 100 steps up to the
    # stop: this flat bundle stops at the first check, step 700, so 41.
    @pytest.mark.parametrize("steps, n_calls",
                             [(4000, 41), (3000, 41), (400, 40), (300, 60), (50, 20), (7, 7)])
    def test_only_the_kept_points_are_evaluated(self, monkeypatch, steps, n_calls):
        calls = []
        real = rip.estimator.nll_loss_array

        def spy(data, grid, estimator):
            calls.append(real(data, grid, estimator))
            return calls[-1]

        monkeypatch.setattr(rip.estimator, "nll_loss_array", spy)
        data = np.random.default_rng(0).normal(0, 1, (2, 5, 1))
        _, loss_curve = fit_array(data, np.linspace(0, 1, 5),
                                  FitConfig(hidden=(4, 4), steps=steps, seed=0))
        stop = loss_curve[-1][0]
        schedule = log_schedule(steps)
        anneal = [s for s in schedule if s <= ANNEAL_STEPS]
        kept = anneal[-max(20, 2 * max(1, len(anneal) // 10)):]
        kept += [s for s in schedule if ANNEAL_STEPS < s <= stop]
        assert [s for s, _ in loss_curve] == kept
        assert [l for _, l in loss_curve] == calls
        assert len(calls) == n_calls and (stop == steps or steps > ANNEAL_STEPS)

    def test_window_at_the_benchmark_step_counts(self):
        assert log_schedule(4000)[:200][-40:] == list(range(483, 601, 3))
        assert log_schedule(4000)[200:] == list(range(700, 4001, 100))
        assert log_schedule(600) == log_schedule(4000)[:200]
        assert log_schedule(7) == list(range(1, 8))


class TestReferenceLoop:
    """fit_array against the allocating loop with every loss log, bit for bit."""

    @pytest.mark.parametrize("nu, shape, hidden, steps", [
        (1.5, (4, 30, 3), (64, 64), 600),
        (math.inf, (2, 5, 1), (8, 6), 300),
        (4.0, (3, 60, 2), (64, 64), 250),         # T >= 50
        (math.inf, (2, 70, 10), (64, 64), 250),   # T >= 50, ten channels
        (1.5, (3, 20, 2), (16, 12), 120),
    ], ids=["t-4x30x3", "gaussian-2x5x1", "t-3x60x2", "gaussian-2x70x10", "t-3x20x2"])
    def test_bit_equal_to_reference(self, nu, shape, hidden, steps):
        rng = np.random.default_rng(sum(shape))
        data = rng.normal(0, 0.3, shape)
        data[0] += 1.0  # one sample off the others
        grid = np.linspace(0, 1, shape[1])
        theta, curve = oracles.reference_fit(data, grid, nu, hidden=hidden, steps=steps, seed=3)
        est, loss_curve = fit_array(data, grid,
                                    FitConfig(nu=nu, hidden=hidden, steps=steps, seed=3))
        np.testing.assert_array_equal(est.theta, theta)
        assert len(curve) == len(log_schedule(steps))
        assert loss_curve == curve[-len(loss_curve):]

    # A budget past the annealing horizon: on this pick bundle the t fit
    # stops on a plateau after several checks and the Gaussian fit runs to
    # its cap still falling, so both ends of the stop rule are compared.
    @pytest.mark.parametrize("nu", [1.5, math.inf], ids=["t", "gaussian"])
    def test_bit_equal_past_the_annealing_horizon(self, pick_bundle, nu):
        data, grid = pick_bundle
        theta, curve = oracles.reference_fit(data, grid, nu, steps=1500, seed=3)
        est, loss_curve = fit_array(data, grid, FitConfig(nu=nu, steps=1500, seed=3))
        np.testing.assert_array_equal(est.theta, theta)
        assert loss_curve == curve[-len(loss_curve):]
        stop = loss_curve[-1][0]
        assert curve[-1][0] == stop
        assert [s for s, _ in curve] == [s for s in log_schedule(1500) if s <= stop]
        assert (800 <= stop < 1500) if nu == 1.5 else stop == 1500


class TestRobustnessOrdering:
    @pytest.mark.parametrize("seed", range(5))
    def test_planted_outlier_at_300_steps(self, seed):
        # Criterion 4's bundle at a tenth of its steps. Every step trains on
        # all rows, so the Gaussian mean is the sample mean, 2.0, and the t
        # mean ignores the outlier, whatever the seed.
        data = np.zeros((5, 20, 1))
        data[4] = 10.0
        grid = np.linspace(0.0, 1.0, 20)
        g_est, _ = fit_array(data, grid, FitConfig(nu=math.inf, seed=seed, steps=300))
        t_est, _ = fit_array(data, grid, FitConfig(nu=1.5, seed=seed, steps=300))
        assert np.abs(mean_curve(g_est, grid) - 2.0).max() <= 1e-3
        assert np.abs(mean_curve(t_est, grid)).max() <= 0.01

    def test_planted_outlier_rmse_ratio(self):
        wins = 0
        seeds = range(8)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            path = np.linspace(0.0, 0.4, 25)[:, None]
            data = np.stack([path + rng.normal(0, 0.005, path.shape) for _ in range(5)])
            direction = rng.normal(0, 1, 1)
            data[2] += 0.14 * np.sign(direction)
            grid = np.linspace(0, 1, 25)
            t_est, _ = fit_array(data, grid, FitConfig(nu=1.5, seed=seed))
            g_est, _ = fit_array(data, grid, FitConfig(nu=math.inf, seed=seed))
            rmse_t = float(np.sqrt(np.mean((mean_curve(t_est, grid) - path) ** 2)))
            rmse_g = float(np.sqrt(np.mean((mean_curve(g_est, grid) - path) ** 2)))
            if rmse_t < 0.5 * rmse_g:
                wins += 1
        assert wins >= 0.9 * len(list(seeds))


class TestExtractMean:
    def test_shape_contract(self):
        est = constant_estimator([0.1] * 10, [1.0] * 10, nu=1.5)
        grid = np.linspace(0, 1, 17)
        assert len(extract_mean(est, grid)) == 17

    def test_gripper_thresholding(self):
        mu = [0.0] * 9 + [0.9]
        est = constant_estimator(mu, [1.0] * 10, nu=1.5)
        out = extract_mean(est, np.linspace(0, 1, 5))
        assert set(out.gripper_states()) == {1}
        mu = [0.0] * 9 + [0.4]
        est = constant_estimator(mu, [1.0] * 10, nu=1.5)
        out = extract_mean(est, np.linspace(0, 1, 5))
        assert set(out.gripper_states()) == {0}

    def test_fitted_constant_bundle_extracts_constant(self):
        data = np.full((4, 10, 10), 0.25)
        data[:, :, 9] = 1.0
        grid = np.linspace(0, 1, 10)
        est, _ = fit_array(data, grid, FitConfig(seed=0, steps=1500))
        out = extract_mean(est, grid)
        arr = out.to_array()
        assert np.abs(arr[:, :9] - 0.25).max() <= 1e-2
        assert set(out.gripper_states()) == {1}

    def test_grid_validation(self):
        est = constant_estimator([0.0] * 10, [1.0] * 10, nu=1.5)
        for grid in ([0.0, 1.2], [0.5], [0.0, math.nan]):
            with pytest.raises(ValueError):
                extract_mean(est, grid)
            with pytest.raises(ValueError):
                mean_curve(est, grid)

    def test_channel_count_guard(self):
        est = constant_estimator([0.0], [1.0], nu=1.5)
        with pytest.raises(ValueError):
            extract_mean(est, np.linspace(0, 1, 4))


class TestEquality:
    def test_equality_is_identity(self, rng):
        # Generated field-wise equality would compare theta arrays and raise.
        est, _ = fit_array(rng.normal(0, 0.2, (2, 5, 1)), np.linspace(0, 1, 5),
                           FitConfig(seed=0, steps=20))
        back = dataclasses.replace(est, theta=est.theta.copy())
        assert (est == back) is False
        assert (est == est) is True


class TestFlatParameters:
    def test_params_are_views_of_theta(self, rng):
        data = rng.normal(0, 0.2, (3, 6, 2))
        grid = np.linspace(0, 1, 6)
        est, _ = fit_array(data, grid, FitConfig(seed=0, steps=50))
        params = [p for i in (0, 1) for p in head_params(est._layers(), i)]
        assert sum(p.size for p in params) == est.theta.size
        assert all(np.shares_memory(p, est.theta) for p in params)
        mu0, var0 = est.mean_and_variance(grid)
        est.theta *= 1.5
        mu1, var1 = est.mean_and_variance(grid)
        assert not np.allclose(mu0, mu1) and not np.allclose(var0, var1)
        np.testing.assert_array_equal(head_params(est._layers(), 0)[5], params[5])

    def test_theta_size_checked(self):
        est = constant_estimator([0.0], [1.0], nu=1.5)
        with pytest.raises(ValueError):
            dataclasses.replace(est, theta=est.theta[:-1]).mean_and_variance([0.5])


class TestFitConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(nu=0.0), dict(steps=0), dict(hidden=(0, 4)),
        # Integer fields refuse floats and bools when the config is built,
        # not later inside numpy or range().
        dict(steps=10.5), dict(hidden=(8.5, 8)),
        dict(seed=1.5), dict(steps=True),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = FitConfig(hidden=(np.int64(8), np.int32(8)), steps=np.int64(10),
                        seed=np.uint8(3))
        assert cfg.hidden == (8, 8) and cfg.steps == 10

    def test_batch_size_is_not_a_field(self):
        # Every step trains on the whole bundle; no caller can set a batch.
        assert "batch_size" not in {f.name for f in dataclasses.fields(FitConfig)}
        assert FitConfig().batch_size == math.inf
        with pytest.raises(TypeError):
            FitConfig(batch_size=64)

    def test_immutable_and_hashable(self):
        # From Python 3.11 on, dataclasses reject an unhashable field
        # default, and rip.bench uses FitConfig instances as defaults.
        assert hash(FitConfig()) == hash(FitConfig())
        assert hash(FitConfig(hidden=[64, 64])) == hash(FitConfig())
        with pytest.raises(dataclasses.FrozenInstanceError):
            FitConfig().steps = 10
