"""Robust action estimator: Student's t-regression over normalized time.

Two small feed-forward networks map a normalized timestep t in [0, 1] to a
per-channel mean and raw variance; the likelihood of an observed action
value under the heavy-tailed t-distribution (or its Gaussian limit) drives
full-batch Adam. Heavy tails are the whole point: a candidate
trajectory far from the consensus contributes a bounded pull on the mean
instead of the unbounded pull least squares would give it, so the fitted
mean tracks the consistent majority of a bundle.

The gradients are hand-derived numpy. Training runs in float32: the fit
is a small-MLP regression on standardized values, and single-precision
rounding barely moves it (4,000-step fits of ten Q=5 pick bundles in both
precisions give the same gripper steps and means within 0.18 mm, against
5 mm of sample noise), while float32 doubles the values each vector
instruction of a step handles. Everything outside the training loop is
float64: the fitted estimator, its evaluation and the logged loss.
Each training step writes its forward pass, likelihood terms and Adam
update into buffers allocated once per fit.

The variance-floor warmup and the learning-rate decay anneal over at most
``ANNEAL_STEPS`` steps, whatever the budget. A larger budget is a cap: past
the annealing phase the full-bundle loss is checked every ``CHECK_EVERY``
steps, and the fit stops once it has plateaued. The loss is evaluated only
at the points the fit's loss curve keeps (see ``fit_array``).

The analytic gradient runs the training step's own gradient function in
float64, so the finite-difference check in the bench CLI and tests
audits the code that trains, at full precision.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import GRIPPER_CHANNEL, Trajectory, TrajectoryBundle, is_integer
from .errors import NumericalError, TrainingError

LOG_2PI = math.log(2.0 * math.pi)

# Sinusoidal expansion of the scalar time input; a raw scalar into a 2x64
# tanh network fits these curves far too slowly. The top frequencies let
# the mean head track one-grid-step structure such as a grasp dwell.
FEATURE_FREQS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
FEATURE_DIM = 1 + 2 * len(FEATURE_FREQS)
_FEATURE_OMEGA = np.array([math.pi * f for f in FEATURE_FREQS])

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Precision of fit_array's training loop; see its docstring.
_TRAIN_DTYPE = np.float32

# Absolute lower bound on every fitted variance, in raw units.
VAR_FLOOR = 1e-6

# Loss points at the end of a fit that a run report keeps; fit_array always
# evaluates at least these.
REPORT_TAIL = 20

# The warmup and the learning-rate decay run over min(steps, ANNEAL_STEPS)
# steps. Past that horizon the loss is checked every CHECK_EVERY steps, and
# the fit stops at the first check whose loss fell by less than PLATEAU_TOL
# nats per value (Q*T*D values) since the check before. On 30 Q=5 pick
# episodes, budgets of 300, 600, 1,000 and 4,000 steps scored the same
# successes and RMSE within 0.1 mm, so steps past a plateau buy nothing.
ANNEAL_STEPS = 600
CHECK_EVERY = 100
PLATEAU_TOL = 2.5e-3

FD_STEP = 1e-5  # central-difference step of the finite-difference gradient


def log_gamma(x):
    """Natural log of the gamma function for positive real input.

    Scalars give a float, arrays an array of the same shape.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("log_gamma is defined for positive arguments only")
    return math.lgamma(x) if x.ndim == 0 else np.vectorize(math.lgamma, otypes=[float])(x)


def t_log_pdf(x, mu, var, nu: float):
    """Elementwise log-density of the location-scale Student's t.

    ``var`` is the squared scale. ``nu = inf`` selects the Gaussian with
    the same mean and variance. Inputs broadcast; output is float64.
    """
    x = np.asarray(x, dtype=float)
    r2 = (x - mu) ** 2
    if math.isinf(nu):
        return -0.5 * (LOG_2PI + np.log(var)) - r2 / (2.0 * var)
    return _t_log_norm(nu) - 0.5 * np.log(var) - ((nu + 1.0) / 2.0) * np.log1p(r2 / (nu * var))


@functools.lru_cache(maxsize=64)
def _t_log_norm(nu: float) -> float:
    """Log normalizer of the unit-scale t density; fits evaluate it often."""
    return log_gamma((nu + 1.0) / 2.0) - log_gamma(nu / 2.0) - 0.5 * math.log(nu * math.pi)


def _nll_partials(x, mu, var, nu: float, weight: float, out, work):
    """d(-log pdf)/d mu and d(-log pdf)/d var, elementwise, times ``weight``.

    Computes, one operation at a time and in this order,
        dmu  = (-(nu + 1) w) r / (nu var + r r)
        dvar = (w / 2) / var - ((nu + 1) / 2 w) r r / (var (nu var + r r))
    with r = x - mu, or the Gaussian forms (-w) r / var and
    (w / 2) / var - (w / 2) r r / (var var). ``out`` (2, ...) receives the
    two partials and ``work`` (2, ...) holds temporaries.
    """
    dmu, dvar = out
    r, tmp = work
    np.subtract(x, mu, out=r)
    if math.isinf(nu):
        np.multiply(r, -weight, out=dmu)
        dmu /= var
        np.multiply(r, 0.5 * weight, out=dvar)
        dvar *= r
        np.multiply(var, var, out=tmp)
    else:
        denom = np.multiply(var, nu, out=tmp)
        np.multiply(r, r, out=dvar)
        denom += dvar
        np.multiply(r, -(nu + 1.0) * weight, out=dmu)
        dmu /= denom
        np.multiply(r, (nu + 1.0) / 2.0 * weight, out=dvar)
        dvar *= r
        np.multiply(var, denom, out=tmp)
    dvar /= tmp
    np.divide(0.5 * weight, var, out=tmp)
    np.subtract(tmp, dvar, out=dvar)
    return dmu, dvar


def time_features(t) -> np.ndarray:
    """Expand normalized timesteps (N,) to the bias-augmented feature
    matrix (N, FEATURE_DIM + 1): t, then sin and cos of pi * f * t for each
    frequency, then the ones column that carries the first layer's bias."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    angles = t[:, None] * _FEATURE_OMEGA
    out = np.empty((t.size, FEATURE_DIM + 1))
    out[:, 0] = t
    np.sin(angles, out=out[:, 1:-1:2])
    np.cos(angles, out=out[:, 2:-1:2])
    out[:, -1] = 1.0
    return out


def _softplus(x, out=None, work=None):
    # log(1 + e^x) without overflow, as max(x, 0) + log1p(exp(-|x|)): the
    # same formula np.logaddexp(0, x) uses, in fewer passes. ``out`` and
    # the temporary ``work`` have x's shape; each is allocated if not given.
    out = np.maximum(x, 0.0, out=out)
    work = np.negative(np.abs(x, out=work), out=work)
    np.exp(work, out=work)
    np.log1p(work, out=work)
    out += work
    return out


def _softplus_inv(y):
    # Inverse of log(1 + e^x); y must be positive.
    y = np.asarray(y, dtype=float)
    return y + np.log1p(-np.exp(-y))


@dataclass(frozen=True)
class FitConfig:
    """Training hyperparameters for the action estimator.

    Defaults follow the published settings where they exist (hidden sizes
    64x64, nu 1.5, Adam, learning rate 1e-2). ``steps`` is a cap, not a
    count: the warmup and the learning-rate decay anneal over at most
    ``ANNEAL_STEPS`` (600) steps, and a larger budget stops once the loss
    plateaus (see ``fit_array``). The cap defaults to a desk-scale 4000;
    the paper's budget is 4e4 steps, the faithful setting. On the sweep
    oracle (Q=5, nu 1.5, 50 trials) budgets of 300, 600, 1,000 and 3,000
    steps scored within one trial of each other, and at a 3,000-step cap
    the stop kept every trial's success and the median RMSE (0.90 and
    2.18 mm at hallucination rate 0.2, 0.70 and 3.58 mm at 0.4). t fits of
    pick bundles stop at step 700 to 1,000, Gaussian fits by step 2,600.

    The published minibatch of 64 was replaced on measurement: every step
    trains on the whole bundle. The network's only input is the grid time,
    so a step ran both passes on all T grid steps whatever the batch. On
    the sweep oracle (Q=5, nu 1.5, 3,000 steps, 50 trials) full batch
    scored as the minibatch did, success 0.90 at hallucination rate 0.2
    and 0.70 at 0.4, with median RMSE within 0.02 mm, and the ten
    acceptance criteria pass at unchanged tolerances.

    Immutable and hashable, like the other config types, so an instance can
    serve as a dataclass field default. Derive variants with
    ``dataclasses.replace``; ``nu=math.inf`` is the Gaussian ablation.
    """

    hidden: tuple[int, int] = (64, 64)
    nu: float = 1.5
    steps: int = 4000
    learning_rate: float = 1e-2
    seed: int = 0
    # Not a field: every step trains on all Q*T rows. perfbench's traced
    # replay reads this as its row count, min(this, Q*T).
    batch_size = math.inf

    def __post_init__(self):
        # A tuple whatever the caller passed, so the config stays hashable.
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if len(self.hidden) != 2 or not all(is_integer(h) and h >= 1 for h in self.hidden):
            raise ValueError(f"hidden must be two positive integer sizes, got {self.hidden}")
        if not self.nu > 0:
            raise ValueError(f"nu must be positive (or inf), got {self.nu}")
        if not (is_integer(self.steps) and self.steps >= 1):
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning rate must be finite and positive, got {self.learning_rate}")
        if not (is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass(eq=False)
class StudentTEstimator:
    """Fitted mean/variance networks plus the degrees of freedom.

    Immutable after fitting; evaluation is pure and thread-safe. ``theta``
    is the flat parameter vector in the ``_flat_params`` layout, the one
    view of the parameters. ``nu`` is a positive float, or ``inf`` for
    the Gaussian ablation. The networks operate on per-channel standardized
    values (``channel_shift``/``channel_scale``, each (D,)); evaluation maps
    back to raw units, so the likelihood channels with very different
    spreads stay equally well conditioned during training. Every variance
    carries the absolute floor ``VAR_FLOOR``. ``==`` is identity; compare
    ``theta`` with ``np.array_equal`` to compare values.
    """

    theta: np.ndarray
    nu: float
    hidden: tuple[int, int]
    channel_shift: np.ndarray
    channel_scale: np.ndarray

    @property
    def n_channels(self) -> int:
        """D, the channel count: the size of the standardization arrays."""
        return self.channel_shift.size

    def _layers(self) -> list:
        return _flat_params(self.hidden, self.n_channels, self.theta)[1]

    def mean_and_variance(self, tgrid) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate mu(t) and var(t) on a grid, raw units; both (T, D)."""
        mu_net, s_raw = _forward(self._layers(), time_features(tgrid))[2]
        scale = self.channel_scale
        return mu_net * scale + self.channel_shift, _softplus(s_raw) * scale**2 + VAR_FLOOR


def _flat_params(hidden, n_channels, theta=None):
    """One flat buffer holding both heads, so the optimizer can act on a
    single vector.

    Layer k is a (2, fan_in + 1, fan_out) stack: mu head first, weight rows
    then the bias as the last row. Training runs both heads with one call
    per layer, and a ones column on the input features folds the first
    layer's bias into its matmul. Returns the buffer (new zeros unless
    ``theta`` is given) and the layers: the first layer's whole stack,
    then a (weights, bias) pair for each of the other two, all views of
    the buffer, made once so a training step slices nothing.
    """
    h1, h2 = hidden
    fans = ((FEATURE_DIM, h1), (h1, h2), (h2, n_channels))
    size = 2 * sum((n_in + 1) * n_out for n_in, n_out in fans)
    if theta is None:
        theta = np.zeros(size)
    elif theta.shape != (size,):
        raise ValueError(f"theta must have shape ({size},), got {theta.shape}")
    layers = []
    offset = 0
    for k, (n_in, n_out) in enumerate(fans, start=1):
        size = 2 * (n_in + 1) * n_out
        layer = theta[offset:offset + size].reshape(2, n_in + 1, n_out)
        layers.append(layer if k == 1 else (layer[:, :n_in], layer[:, n_in:]))
        offset += size
    return theta, layers


def _forward(layers, X1, h1=None, h2=None, out=None):
    """Both heads on bias-augmented features X1 (N, FEATURE_DIM + 1).

    Returns the hidden activations and the output, each (2, N, .) with
    the mu head first; passing the buffers makes it allocation-free.
    """
    L1, (W2, b2), (W3, b3) = layers
    h1 = np.matmul(X1, L1, out=h1)
    np.tanh(h1, out=h1)
    h2 = np.matmul(h1, W2, out=h2)
    h2 += b2
    np.tanh(h2, out=h2)
    out = np.matmul(h2, W3, out=out)
    out += b3
    return h1, h2, out


def _backward(layers, X1t, h1, h2, dout, grads):
    """Backprop the output gradients dout (2, N, D) of both heads into
    ``grads``, the layers of a ``_flat_params`` buffer. X1t is the
    transposed bias-augmented feature matrix."""
    _, (W2, _), (W3, _) = layers
    G1, (GW2, Gb2), (GW3, Gb3) = grads
    ones = X1t[-1:]  # the bias column of the features: all ones
    np.matmul(h2.transpose(0, 2, 1), dout, out=GW3)
    np.matmul(ones, dout, out=Gb3)
    dh2 = dout @ W3.transpose(0, 2, 1)
    dh2 *= 1.0 - h2 * h2
    np.matmul(h1.transpose(0, 2, 1), dh2, out=GW2)
    np.matmul(ones, dh2, out=Gb2)
    dh1 = dh2 @ W2.transpose(0, 2, 1)
    dh1 *= 1.0 - h1 * h1
    np.matmul(X1t, dh1, out=G1)


def _step_buffers(hidden, shape, dtype):
    """The buffers ``_nll_gradient`` writes into for a (Q, T, D) bundle:
    h1, h2, out and dout (2, T, .), floored variance and sigmoid (T, D),
    and likelihood partials and their temporaries (2, Q, T, D)."""
    n_q, n_t, n_d = shape
    return [*(np.empty((2, n_t, n), dtype) for n in (*hidden, n_d, n_d)),
            *(np.empty((n_t, n_d), dtype) for _ in range(2)),
            *(np.empty((2, n_q, n_t, n_d), dtype) for _ in range(2))]


def _nll_gradient(layers, X1, X1t, data, floor, nu, w, bufs, grads):
    """One training step: the gradient of the standardized NLL into ``grads``.

    The network's only input is the grid time, so both passes run once per
    grid step; the (T, D) mean and floored variance broadcast over the
    samples of the (Q, T, D) bundle ``data``, and the likelihood partials
    (weight ``w`` each) are summed over samples onto the grid steps.
    ``floor`` is the standardized variance floor and ``bufs`` the
    ``_step_buffers``. Returns dout (2, T, D).
    """
    h1, h2, out, dout, var, sig, partials, work = bufs
    _forward(layers, X1, h1, h2, out)
    _softplus(out[1], out=var, work=sig)
    # d softplus(s)/ds = sigmoid(s) = exp(s - softplus(s)).
    np.subtract(out[1], var, out=sig)
    np.exp(sig, out=sig)
    var += floor
    _nll_partials(data, out[0], var, nu, w, out=partials, work=work)
    partials.sum(axis=1, out=dout)
    dout[1] *= sig
    _backward(layers, X1t, h1, h2, dout, grads)
    return dout


def _init_params(rng, hidden, n_channels, data, nu=1.5):
    theta, layers = _flat_params(hidden, n_channels)
    L1, (W2, _), (_, b3) = layers
    for i in (0, 1):  # mu head, then s head
        L1[i, :-1] = rng.normal(0.0, 1.0 / math.sqrt(FEATURE_DIM), L1[i, :-1].shape)
        W2[i] = rng.normal(0.0, 1.0 / math.sqrt(hidden[0]), W2[i].shape)
    # Output weights start at zero so both heads begin flat at their
    # biases; the curves move off those seeds only where the data asks.
    flat = data.reshape(-1, data.shape[-1])
    # Median, not mean: seeding the location on an outlier would hand the
    # hallucination a head start.
    med = np.median(flat, axis=0)
    b3[0, 0] = med
    if math.isinf(nu):
        # The Gaussian objective punishes an undersized starting scale with
        # enormous variance gradients; seed it at the sample variance.
        spread = np.var(flat, axis=0)
    else:
        spread = (1.4826 * np.median(np.abs(flat - med), axis=0)) ** 2
    # The lower clip keeps the starting likelihood from being so stiff that
    # the mean head cannot move (binary channels have zero robust spread).
    b3[1, 0] = _softplus_inv(np.clip(spread, 1e-2, 25.0) + VAR_FLOOR)
    return theta, layers


def nll_loss_array(data: np.ndarray, grid: np.ndarray, estimator: StudentTEstimator) -> float:
    """Total negative log-likelihood of a (Q, T, D) array under the estimator."""
    mu, var = estimator.mean_and_variance(grid)
    lp = t_log_pdf(data, mu[None, :, :], var[None, :, :], estimator.nu)
    total = -float(np.sum(lp))
    if not math.isfinite(total):
        bad = int(np.count_nonzero(~np.isfinite(lp)))
        raise NumericalError(f"negative log-likelihood is non-finite ({bad} bad terms)")
    return total


def log_density(a, t: float, estimator: StudentTEstimator) -> np.ndarray:
    """Per-channel log-density of action value(s) ``a`` at normalized time t.

    ``a`` broadcasts against the estimator's channels: a scalar is scored
    under every channel, a (D,) vector channelwise.
    """
    mu, var = estimator.mean_and_variance([float(t)])
    out = t_log_pdf(a, mu[0], var[0], estimator.nu)
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"log-density non-finite at t={t}")
    return out


def loss_gradient_array(data: np.ndarray, grid: np.ndarray,
                        estimator: StudentTEstimator) -> np.ndarray:
    """Analytic gradient of the total NLL with respect to ``theta``, in
    its shape.

    Runs training's step, ``_nll_gradient``, once on the whole bundle in
    float64, so the finite-difference checks on it audit the code that
    trains. The step works in standardized units; that NLL differs from
    the raw-unit one by a constant, so their parameter gradients agree.
    """
    X1 = time_features(grid)
    scale = estimator.channel_scale
    grad, grads = _flat_params(estimator.hidden, estimator.n_channels)
    _nll_gradient(estimator._layers(), X1, X1.T, (data - estimator.channel_shift) / scale,
                  VAR_FLOOR / scale**2, estimator.nu, 1.0,
                  _step_buffers(estimator.hidden, data.shape, float), grads)
    return grad


def fit_array(data: np.ndarray, grid: np.ndarray, config: FitConfig) -> tuple[StudentTEstimator, list]:
    """Full-batch Adam on the NLL of a (Q, T, D) array over grid (T,).

    Every step trains on all Q*T values, each weighted 1 / (Q*T), so the
    seed sets only the initialisation. ``config.steps`` is a cap. The
    variance-floor warmup and the cosine learning-rate decay run over the
    horizon ``h = min(config.steps, ANNEAL_STEPS)``; after it the rate
    stays at its final 1% and the floor at its final value. Past the
    horizon the full-bundle loss is checked every ``CHECK_EVERY`` steps
    and at the cap, and the fit stops at the first check whose loss fell
    by less than ``PLATEAU_TOL * Q * T * D`` nats since the check before
    (a rise included). A budget of at most ``ANNEAL_STEPS`` trains every
    step. A fit that reaches a larger cap with its last check still
    falling logs a "loss still falling" warning.

    Returns the fitted estimator and its loss curve of (step, full-bundle
    NLL) pairs. The annealing phase's log schedule is every
    ``max(1, h // 200)`` steps plus step h, n points; the curve keeps its
    last ``max(REPORT_TAIL, 2 * max(1, n // 10))`` points, or all n when n
    is smaller, then every check up to the stop. At a cap above 600
    steps that is steps 483 to 600, every 3 steps (40 points), then
    steps 700, 800, ... up to the stop; at 7 steps it is all 7. Only those
    points are evaluated; the report reads the last ``REPORT_TAIL``.

    The loop trains a float32 copy of the parameters on float32 data,
    features, gradients, Adam moments and pass buffers, which makes a fit
    about 1.5x faster than float64 (see the module docstring for why the
    precision suffices). Each step writes its forward pass, likelihood
    terms and Adam update into buffers allocated once per fit (the
    backward pass's hidden-layer gradients are still allocated: buffering
    them measured no faster). Initialisation, standardization and the
    logged loss run in float64. The float32 parameters are copied into the
    returned estimator's float64 ``theta`` before each evaluation, so it
    ends holding the trained parameters.
    """
    data = np.asarray(data, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if data.ndim != 3:
        raise ValueError(f"expected (Q, T, D) data, got shape {data.shape}")
    n_q, n_t, n_d = data.shape
    if grid.shape != (n_t,):
        raise ValueError(f"grid shape {grid.shape} does not match T={n_t}")

    flat_raw = data.reshape(n_q * n_t, n_d)
    # Per-channel standardization keeps the likelihood equally conditioned
    # across channels whose spreads differ by orders of magnitude (meters
    # of position next to a 0/1 gripper flag). The variance floor stays
    # absolute in raw units.
    shift = np.median(flat_raw, axis=0)
    scale = np.maximum(np.std(flat_raw, axis=0), 1e-3)
    data_std = (data - shift) / scale
    # Every array the loop touches is _TRAIN_DTYPE, and its scalars are
    # Python floats: one float64 operand would upcast the whole step.
    floor_std = (VAR_FLOOR / scale**2).astype(_TRAIN_DTYPE)
    nu = float(config.nu)

    theta, _ = _init_params(np.random.default_rng(config.seed), config.hidden, n_d,
                            data_std, config.nu)
    theta_train = theta.astype(_TRAIN_DTYPE)
    layers = _flat_params(config.hidden, n_d, theta_train)[1]
    # Adam's moments m and v, and the gradient with its square: each pair
    # is one (2, N) array, so one pass decays both moments and one adds to
    # both. The moments are kept without their (1 - beta) factors, which
    # fold into the update's constants.
    moments = np.zeros((2, theta_train.size), dtype=_TRAIN_DTYPE)
    m, v = moments
    grad_sq = np.zeros_like(moments)
    grad = grad_sq[0]
    grads = _flat_params(config.hidden, n_d, grad)[1]
    betas = np.array([[ADAM_BETA1], [ADAM_BETA2]], dtype=_TRAIN_DTYPE)
    buf = np.empty_like(theta_train)
    features = time_features(grid).astype(_TRAIN_DTYPE)
    features_t = np.ascontiguousarray(features.T)
    data_train = data_std.astype(_TRAIN_DTYPE)
    w = 1.0 / (n_q * n_t)
    bufs = _step_buffers(config.hidden, data.shape, _TRAIN_DTYPE)

    est = StudentTEstimator(theta=theta, nu=config.nu, hidden=tuple(config.hidden),
                            channel_shift=shift, channel_scale=scale)

    # The loss schedule of the docstring: the last `window` points of the
    # annealing phase's schedule run, then the plateau checks.
    horizon = min(config.steps, ANNEAL_STEPS)
    log_every = max(1, horizon // 200)
    n_logs = -(-horizon // log_every)
    window = min(n_logs, max(REPORT_TAIL, 2 * max(1, n_logs // 10)))
    first_log = min((n_logs - window + 1) * log_every, horizon)
    tolerance = PLATEAU_TOL * data.size
    curve = []

    # Variance-floor warmup: while the floor is high, every channel sees
    # gradients of comparable size, so the mean head fits all structure
    # before tight channels turn stiff and dominate the shared trunk. The
    # floor then decays to its configured value (standardized units).
    warm_start, warm_end, warm_frac = 0.09, 1e-5, 0.7

    for step in range(1, config.steps + 1):
        progress = min(1.0, step / (warm_frac * horizon))
        warm = warm_start * (warm_end / warm_start) ** progress
        dout = _nll_gradient(layers, features, features_t, data_train,
                             np.maximum(floor_std, warm), nu, w, bufs, grads)
        # The weight gradients are sums of dout times bounded activations,
        # so screening this small array catches a non-finite step.
        if not np.isfinite(dout).all():
            raise TrainingError(f"gradient became non-finite at step {step}", step=step)

        # Cosine decay to 1% of the base rate: a constant rate leaves the
        # optimizer rattling around the collapsed-variance optimum and the
        # late loss non-monotone.
        decay = 0.5 * (1.0 + math.cos(math.pi * min(step, horizon) / horizon))
        lr = config.learning_rate * (0.01 + 0.99 * decay)
        np.multiply(grad, grad, out=grad_sq[1])
        moments *= betas
        moments += grad_sq
        # theta -= lr * (m_hat / (sqrt(v_hat) + eps)) with m_hat = (1 - b1) m / bc1
        # and v_hat = (1 - b2) v / bc2, rearranged to act on m and v in place.
        v_scale = math.sqrt((1.0 - ADAM_BETA2) / (1.0 - ADAM_BETA2 ** step))
        np.sqrt(v, out=buf)
        buf += ADAM_EPS / v_scale
        np.divide(m, buf, out=buf)
        buf *= lr * (1.0 - ADAM_BETA1) / (1.0 - ADAM_BETA1 ** step) / v_scale
        theta_train -= buf

        # The last step always logs, and a stop follows a log, so the
        # estimator leaves the loop holding the trained parameters.
        if step <= horizon:
            log = step >= first_log and (step % log_every == 0 or step == horizon)
        else:
            log = (step - horizon) % CHECK_EVERY == 0 or step == config.steps
        if log:
            theta[...] = theta_train
            curve.append((step, nll_loss_array(data, grid, est)))
            if step > horizon and curve[-2][1] - curve[-1][1] < tolerance:
                break
    else:  # no check stopped the fit before its cap
        if config.steps > horizon:
            logging.getLogger(__name__).warning(
                "training loss still falling at the %d-step cap (%.6g -> %.6g over the "
                "last check); consider more steps", config.steps, curve[-2][1], curve[-1][1],
            )

    return est, curve


def fit_with_trace(bundle: TrajectoryBundle, config: FitConfig) -> tuple[StudentTEstimator, list]:
    """``fit_array`` on an aligned bundle: the estimator and its loss curve."""
    return fit_array(bundle.data, bundle.grid(), config)


def mean_curve(estimator: StudentTEstimator, grid) -> np.ndarray:
    """The fitted mean evaluated on a grid, shape (T, D)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-D array of at least two timesteps")
    # Written so that NaN, which fails every comparison, fails it too.
    if not ((grid >= 0.0) & (grid <= 1.0)).all():
        raise ValueError("grid values must lie in [0, 1]")
    mu, _ = estimator.mean_and_variance(grid)
    return mu


def extract_mean(estimator: StudentTEstimator, grid) -> Trajectory:
    """Read off the aggregated trajectory: mean per channel, gripper
    thresholded at 0.5 back onto {0, 1}."""
    mu = mean_curve(estimator, grid)
    if estimator.n_channels != 10:
        raise ValueError("trajectory extraction needs a 10-channel estimator")
    out = mu.copy()
    out[:, GRIPPER_CHANNEL] = (mu[:, GRIPPER_CHANNEL] >= 0.5).astype(float)
    return Trajectory(out)


def finite_difference_gradient(data: np.ndarray, grid: np.ndarray,
                               estimator: StudentTEstimator) -> np.ndarray:
    """Central-difference gradient of the total NLL, for verification.

    Perturbs ``estimator.theta`` in place one entry at a time and restores
    it; returns the gradient in ``theta``'s shape, like ``loss_gradient_array``.
    """
    theta = estimator.theta
    g = np.zeros_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + FD_STEP
        hi = nll_loss_array(data, grid, estimator)
        theta[i] = orig - FD_STEP
        lo = nll_loss_array(data, grid, estimator)
        theta[i] = orig
        g[i] = (hi - lo) / (2.0 * FD_STEP)
    return g


def gradient_check(seed: int = 0, n_configs: int = 20,
                   nus=(1.25, 1.5, 3.0, math.inf)) -> float:
    """Max per-parameter relative error between analytic and central-
    difference gradients over randomized small configurations."""
    if not (is_integer(n_configs) and n_configs >= 1 and nus and all(nu > 0 for nu in nus)):
        raise ValueError(f"the check needs an integer count of configs >= 1 and positive "
                         f"nus, got {n_configs!r} and {nus!r}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(n_configs):
        nu = nus[i % len(nus)]
        n_q = int(rng.integers(2, 5))
        n_t = int(rng.integers(3, 7))
        n_d = int(rng.integers(1, 3))
        grid = np.linspace(0.0, 1.0, n_t)
        data = rng.normal(0.0, 1.0, (n_q, n_t, n_d))
        hidden = (int(rng.integers(4, 9)), int(rng.integers(4, 9)))
        theta, layers = _init_params(rng, hidden, n_d, data, nu)
        # Perturb the zero-initialized output weights of both heads so the
        # check covers a generic point in parameter space.
        layers[2][0][...] = rng.normal(0.0, 0.3, layers[2][0].shape)
        est = StudentTEstimator(theta=theta, nu=nu, hidden=hidden,
                                channel_shift=rng.normal(0.0, 1.0, n_d),
                                channel_scale=rng.uniform(0.5, 2.0, n_d))
        analytic = loss_gradient_array(data, grid, est)
        numeric = finite_difference_gradient(data, grid, est)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6)
        worst = max(worst, float(rel.max()))
    return worst
