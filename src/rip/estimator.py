"""Robust action estimator: Student's t-regression over normalized time.

Two small feed-forward networks map a normalized timestep t in [0, 1] to a
per-channel mean and raw variance; the likelihood of an observed action
value under the heavy-tailed t-distribution (or its Gaussian limit) drives
seeded minibatch Adam. Heavy tails are the whole point: a candidate
trajectory far from the consensus contributes a bounded pull on the mean
instead of the unbounded pull least squares would give it, so the fitted
mean tracks the consistent majority of a bundle.

The gradients are hand-derived numpy. Training runs in float32: the fit
is a small-MLP regression on standardized values whose result is set by
minibatch noise, far above single-precision rounding (fits of pick
bundles in both precisions give the same gripper steps and means within a
few millimetres), and float32 doubles the values each vector instruction
of a step handles. Everything outside the training loop is float64: the
fitted estimator, its evaluation and serialization, and the logged loss.
The analytic gradient runs the training step's own gradient function in
float64, so the finite-difference check in the bench CLI and tests
audits the code that trains, at full precision.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import GRIPPER_CHANNEL, Trajectory, TrajectoryBundle
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


def _nll_partials(x, mu, var, nu: float, weight: float = 1.0):
    """d(-log pdf)/d mu and d(-log pdf)/d var, elementwise, times ``weight``."""
    r = x - mu
    if math.isinf(nu):
        dmu = (-weight) * r / var
        dvar = (0.5 * weight) / var - (0.5 * weight) * r * r / (var * var)
    else:
        denom = nu * var + r * r
        dmu = (-(nu + 1.0) * weight) * r / denom
        dvar = (0.5 * weight) / var - ((nu + 1.0) / 2.0 * weight) * r * r / (var * denom)
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


def _softplus(x):
    # log(1 + e^x) without overflow; the same formula np.logaddexp(0, x)
    # uses, in fewer passes.
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _softplus_inv(y):
    # Inverse of log(1 + e^x); y must be positive.
    y = np.asarray(y, dtype=float)
    return y + np.log1p(-np.exp(-y))


# Parameter keys in a fixed order, so serialization and checks are deterministic.
PARAM_KEYS = (
    "mu_W1", "mu_b1", "mu_W2", "mu_b2", "mu_W3", "mu_b3",
    "s_W1", "s_b1", "s_W2", "s_b2", "s_W3", "s_b3",
)


@dataclass(frozen=True)
class FitConfig:
    """Training hyperparameters for the action estimator.

    Defaults follow the published settings where they exist (hidden sizes
    64x64, nu 1.5, batch 64, Adam, learning rate 1e-2); the step count
    defaults to a desk-scale 4000, which converges on bundles of a handful
    of trajectories, and can be raised to the full 4e4.

    Immutable and hashable, like the other config types, so an instance can
    serve as a dataclass field default. Derive variants with
    ``dataclasses.replace``, as ``gaussian()`` does.
    """

    hidden: tuple[int, int] = (64, 64)
    nu: float = 1.5
    batch_size: int = 64
    steps: int = 4000
    learning_rate: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        # A tuple whatever the caller passed, so the config stays hashable.
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if len(self.hidden) != 2 or any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden must be two positive sizes, got {self.hidden}")
        if not self.nu > 0:
            raise ValueError(f"nu must be positive (or inf), got {self.nu}")
        if self.batch_size < 1 or self.steps < 1 or not 0 < self.learning_rate < math.inf:
            raise ValueError("batch size, steps, and learning rate must be positive, "
                             "and the learning rate finite")

    def gaussian(self) -> "FitConfig":
        return replace(self, nu=math.inf)


@dataclass(eq=False)
class StudentTEstimator:
    """Fitted mean/variance networks plus the degrees of freedom.

    Immutable after fitting; evaluation is pure and thread-safe. ``theta``
    is the flat parameter vector in the ``_flat_params`` layout; ``params``
    gives per-key views of it. ``nu`` is a positive float, or ``inf`` for
    the Gaussian ablation. The networks operate on per-channel standardized
    values (``channel_shift``/``channel_scale``, each (D,)); evaluation maps
    back to raw units, so the likelihood channels with very different
    spreads stay equally well conditioned during training. ``==`` is
    identity; compare ``theta`` with ``np.array_equal`` to compare values.
    """

    theta: np.ndarray
    nu: float
    hidden: tuple[int, int]
    n_channels: int
    var_floor: float
    channel_shift: np.ndarray
    channel_scale: np.ndarray

    SCHEMA_VERSION = 1

    @property
    def params(self) -> dict:
        return _flat_params(self.hidden, self.n_channels, self.theta)[1]

    def _layers(self) -> list:
        return _flat_params(self.hidden, self.n_channels, self.theta)[2]

    def mean_and_variance(self, tgrid) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate mu(t) and var(t) on a grid, raw units; both (T, D)."""
        mu_net, s_raw = _forward(self._layers(), time_features(tgrid))[2]
        scale = self.channel_scale
        return mu_net * scale + self.channel_shift, _softplus(s_raw) * scale**2 + self.var_floor

    def to_dict(self) -> dict:
        params = self.params
        return {
            "schema_version": self.SCHEMA_VERSION,
            "nu": str(self.nu),
            "hidden": list(self.hidden),
            "n_channels": self.n_channels,
            "var_floor": self.var_floor,
            "channel_shift": self.channel_shift.tolist(),
            "channel_scale": self.channel_scale.tolist(),
            "params": {k: params[k].tolist() for k in PARAM_KEYS},
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "StudentTEstimator":
        if obj.get("schema_version") != cls.SCHEMA_VERSION:
            raise ValueError(f"unsupported estimator schema: {obj.get('schema_version')!r}")
        hidden, n_channels = tuple(obj["hidden"]), int(obj["n_channels"])
        theta, params, _ = _flat_params(hidden, n_channels)
        for k in PARAM_KEYS:
            params[k][...] = obj["params"][k]
        return cls(
            theta=theta,
            nu=float(obj["nu"]),
            hidden=hidden,
            n_channels=n_channels,
            var_floor=float(obj["var_floor"]),
            channel_shift=np.asarray(obj["channel_shift"], dtype=float),
            channel_scale=np.asarray(obj["channel_scale"], dtype=float),
        )


def _flat_params(hidden, n_channels, theta=None):
    """One flat buffer holding both heads, so the optimizer can act on a
    single vector.

    Layer k is a (2, fan_in + 1, fan_out) stack: mu head first, weight rows
    then the bias as the last row. Training runs both heads with one call
    per layer, and a ones column on the input features folds the first
    layer's bias into its matmul. Returns the buffer (new zeros unless
    ``theta`` is given), the per-key views (``params``) and the three
    layer stacks, all views of the buffer.
    """
    h1, h2 = hidden
    fans = ((FEATURE_DIM, h1), (h1, h2), (h2, n_channels))
    size = 2 * sum((n_in + 1) * n_out for n_in, n_out in fans)
    if theta is None:
        theta = np.zeros(size)
    elif theta.shape != (size,):
        raise ValueError(f"theta must have shape ({size},), got {theta.shape}")
    params, layers = {}, []
    offset = 0
    for k, (n_in, n_out) in enumerate(fans, start=1):
        size = 2 * (n_in + 1) * n_out
        layer = theta[offset:offset + size].reshape(2, n_in + 1, n_out)
        layers.append(layer)
        for i, head in enumerate(("mu", "s")):
            params[f"{head}_W{k}"] = layer[i, :n_in]
            params[f"{head}_b{k}"] = layer[i, n_in]
        offset += size
    return theta, params, layers


def _forward(layers, X1, h1=None, h2=None, out=None):
    """Both heads on bias-augmented features X1 (N, FEATURE_DIM + 1).

    Returns the hidden activations and the output, each (2, N, .) with
    the mu head first; passing the buffers makes it allocation-free.
    """
    L1, L2, L3 = layers
    n_h1, n_h2 = L2.shape[1] - 1, L3.shape[1] - 1
    h1 = np.matmul(X1, L1, out=h1)
    np.tanh(h1, out=h1)
    h2 = np.matmul(h1, L2[:, :n_h1], out=h2)
    h2 += L2[:, n_h1:]
    np.tanh(h2, out=h2)
    out = np.matmul(h2, L3[:, :n_h2], out=out)
    out += L3[:, n_h2:]
    return h1, h2, out


def _backward(layers, X1t, h1, h2, dout, grads):
    """Backprop the output gradients dout (2, N, D) of both heads into
    ``grads``, the layer stacks of a ``_flat_params`` buffer. X1t is the
    transposed bias-augmented feature matrix."""
    L1, L2, L3 = layers
    G1, G2, G3 = grads
    n_h1, n_h2 = h1.shape[2], h2.shape[2]
    ones = X1t[-1:]  # the bias column of the features: all ones
    np.matmul(h2.transpose(0, 2, 1), dout, out=G3[:, :n_h2])
    np.matmul(ones, dout, out=G3[:, n_h2:])
    dh2 = dout @ L3[:, :n_h2].transpose(0, 2, 1)
    dh2 *= 1.0 - h2 * h2
    np.matmul(h1.transpose(0, 2, 1), dh2, out=G2[:, :n_h1])
    np.matmul(ones, dh2, out=G2[:, n_h1:])
    dh1 = dh2 @ L2[:, :n_h1].transpose(0, 2, 1)
    dh1 *= 1.0 - h1 * h1
    np.matmul(X1t, dh1, out=G1)


def _nll_gradient(layers, X1, X1t, rows, t_idx, onehot, floor, nu, w, bufs, grads):
    """One training step: the gradient of the standardized NLL into ``grads``.

    Pairs at one grid step share an input, so both passes run once per grid
    step and the (T, B) ``onehot`` sums the output gradients of the pairs
    (values ``rows`` (B, D) at steps ``t_idx``, weight ``w`` each) onto
    them. ``floor`` is the standardized variance floor and ``bufs`` the
    h1, h2, out and dout pass buffers. Returns dout (2, T, D).
    """
    h1, h2, out, dout = bufs
    _forward(layers, X1, h1, h2, out)
    soft = _softplus(out[1])
    var = soft[t_idx]
    var += floor
    dmu_e, dvar_e = _nll_partials(rows, out[0][t_idx], var, nu, w)
    np.matmul(onehot, dmu_e, out=dout[0])
    np.matmul(onehot, dvar_e, out=dout[1])
    # d softplus(s)/ds = sigmoid(s) = exp(s - softplus(s)).
    dout[1] *= np.exp(out[1] - soft)
    _backward(layers, X1t, h1, h2, dout, grads)
    return dout


def _init_params(rng, hidden, n_channels, data, nu=1.5):
    theta, params, layers = _flat_params(hidden, n_channels)
    h1, _ = hidden
    for head in ("mu", "s"):
        params[f"{head}_W1"][...] = rng.normal(0.0, 1.0 / math.sqrt(FEATURE_DIM),
                                               params[f"{head}_W1"].shape)
        params[f"{head}_W2"][...] = rng.normal(0.0, 1.0 / math.sqrt(h1),
                                               params[f"{head}_W2"].shape)
        # Output weights start at zero so both heads begin flat at their
        # biases; the curves move off those seeds only where the data asks.
    flat = data.reshape(-1, data.shape[-1])
    # Median, not mean: seeding the location on an outlier would hand the
    # hallucination a head start.
    med = np.median(flat, axis=0)
    params["mu_b3"][...] = med
    if math.isinf(nu):
        # The Gaussian objective punishes an undersized starting scale with
        # enormous variance gradients; seed it at the sample variance.
        spread = np.var(flat, axis=0)
    else:
        spread = (1.4826 * np.median(np.abs(flat - med), axis=0)) ** 2
    # The lower clip keeps the starting likelihood from being so stiff that
    # the mean head cannot move (binary channels have zero robust spread).
    params["s_b3"][...] = _softplus_inv(np.clip(spread, 1e-2, 25.0) + VAR_FLOOR)
    return theta, params, layers


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
                        estimator: StudentTEstimator) -> dict:
    """Analytic gradient of the total NLL with respect to every parameter.

    Runs training's step, ``_nll_gradient``, once on the whole bundle in
    float64, so the finite-difference checks on it audit the code that
    trains. The step works in standardized units; that NLL differs from
    the raw-unit one by a constant, so their parameter gradients agree.
    """
    n_q, n_t, n_d = data.shape
    X1 = time_features(grid)
    scale = estimator.channel_scale
    rows = ((data - estimator.channel_shift) / scale).reshape(n_q * n_t, n_d)
    t_idx = np.tile(np.arange(n_t), n_q)
    onehot = (np.arange(n_t)[:, None] == t_idx).astype(float)
    _grad, views, grads = _flat_params(estimator.hidden, n_d)
    _nll_gradient(estimator._layers(), X1, X1.T, rows, t_idx, onehot,
                  estimator.var_floor / scale**2, estimator.nu, 1.0,
                  [np.empty((2, n_t, n)) for n in (*estimator.hidden, n_d, n_d)], grads)
    return views


@dataclass
class FitTrace:
    """Training diagnostics kept alongside a fitted estimator."""

    loss_curve: list  # (step, full-bundle NLL) pairs, the last step included

    @property
    def final_loss(self) -> float:
        return self.loss_curve[-1][1]


def fit_array(data: np.ndarray, grid: np.ndarray, config: FitConfig) -> tuple[StudentTEstimator, FitTrace]:
    """Seeded minibatch Adam on the NLL of a (Q, T, D) array over grid (T,).

    The loop trains a float32 copy of the parameters on float32 data,
    features, gradients, Adam moments and pass buffers, which makes a fit
    about 1.5x faster than float64 (see the module docstring for why the
    precision suffices). Initialisation and standardization run in float64,
    and so does the loss logged every ``steps // 200`` steps: the float32
    parameters are copied into the returned estimator's float64 ``theta``
    before each log, so it ends holding the trained parameters.
    """
    data = np.asarray(data, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if data.ndim != 3:
        raise ValueError(f"expected (Q, T, D) data, got shape {data.shape}")
    n_q, n_t, n_d = data.shape
    if grid.shape != (n_t,):
        raise ValueError(f"grid shape {grid.shape} does not match T={n_t}")

    rng = np.random.default_rng(config.seed)
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

    theta, _, _ = _init_params(rng, config.hidden, n_d, data_std, config.nu)
    theta_train = theta.astype(_TRAIN_DTYPE)
    layers = _flat_params(config.hidden, n_d, theta_train)[2]
    grad = np.zeros_like(theta_train)
    grads = _flat_params(config.hidden, n_d, grad)[2]
    features = time_features(grid).astype(_TRAIN_DTYPE)
    features_t = np.ascontiguousarray(features.T)
    flat = data_std.reshape(n_q * n_t, n_d).astype(_TRAIN_DTYPE)
    t_of_pair = np.tile(np.arange(n_t), n_q)
    grid_index = np.arange(n_t)[:, None]

    est = StudentTEstimator(theta=theta, nu=config.nu, hidden=tuple(config.hidden),
                            n_channels=n_d, var_floor=VAR_FLOOR,
                            channel_shift=shift, channel_scale=scale)

    # Adam moments kept without their (1 - beta) factors, which fold into
    # the update's constants, so each step makes fewer passes over theta.
    m = np.zeros_like(theta_train)
    v = np.zeros_like(theta_train)
    buf = np.empty_like(theta_train)
    full_batch = n_q * n_t <= config.batch_size
    log_every = max(1, config.steps // 200)
    curve = []

    if full_batch:
        t_idx, a = t_of_pair, flat
        onehot = (grid_index == t_idx).astype(_TRAIN_DTYPE)
    else:
        onehot = np.empty((n_t, config.batch_size), dtype=_TRAIN_DTYPE)
    w = 1.0 / onehot.shape[1]
    bufs = [np.empty((2, n_t, n), dtype=_TRAIN_DTYPE) for n in (*config.hidden, n_d, n_d)]
    chunk_size = 512

    # Variance-floor warmup: while the floor is high, every channel sees
    # gradients of comparable size, so the mean head fits all structure
    # before tight channels turn stiff and dominate the shared trunk. The
    # floor then decays to its configured value (standardized units).
    warm_start, warm_end, warm_frac = 0.09, 1e-5, 0.7

    for step in range(1, config.steps + 1):
        if not full_batch:
            pos = (step - 1) % chunk_size
            if pos == 0:
                batch_chunk = rng.integers(0, n_q * n_t,
                                           size=(chunk_size, config.batch_size))
                t_chunk = t_of_pair[batch_chunk]
            t_idx = t_chunk[pos]
            a = flat[batch_chunk[pos]]
            np.equal(grid_index, t_idx, out=onehot)

        progress = min(1.0, step / (warm_frac * config.steps))
        warm = warm_start * (warm_end / warm_start) ** progress
        dout = _nll_gradient(layers, features, features_t, a, t_idx, onehot,
                             np.maximum(floor_std, warm), nu, w, bufs, grads)
        # The weight gradients are sums of dout times bounded activations,
        # so screening this small array catches a non-finite step.
        if not np.isfinite(dout).all():
            raise TrainingError(f"gradient became non-finite at step {step}", step=step)

        # Cosine decay to 1% of the base rate: a constant rate leaves the
        # optimizer rattling around the collapsed-variance optimum and the
        # late loss non-monotone.
        lr = config.learning_rate * (0.01 + 0.99 * 0.5 * (1.0 + math.cos(math.pi * step / config.steps)))
        m *= ADAM_BETA1
        m += grad
        v *= ADAM_BETA2
        np.multiply(grad, grad, out=buf)
        v += buf
        # theta -= lr * (m_hat / (sqrt(v_hat) + eps)) with m_hat = (1 - b1) m / bc1
        # and v_hat = (1 - b2) v / bc2, rearranged to act on m and v in place.
        v_scale = math.sqrt((1.0 - ADAM_BETA2) / (1.0 - ADAM_BETA2 ** step))
        np.sqrt(v, out=buf)
        buf += ADAM_EPS / v_scale
        np.divide(m, buf, out=buf)
        buf *= lr * (1.0 - ADAM_BETA1) / (1.0 - ADAM_BETA1 ** step) / v_scale
        theta_train -= buf

        # The last step always logs, so the estimator leaves the loop
        # holding the trained parameters.
        if step % log_every == 0 or step == config.steps:
            theta[...] = theta_train
            curve.append((step, nll_loss_array(data, grid, est)))

    losses = [l for _, l in curve]
    tail_n = max(1, len(losses) // 10)
    if len(losses) >= 3 * tail_n:
        tail = sum(losses[-tail_n:]) / tail_n
        prev = sum(losses[-2 * tail_n:-tail_n]) / tail_n
        if tail > prev + 1e-3 * max(1.0, abs(prev)):
            logging.getLogger(__name__).warning(
                "training loss still moving at the end of the run (%.6g -> %.6g); "
                "consider more steps", prev, tail,
            )

    return est, FitTrace(curve)


def fit_with_trace(bundle: TrajectoryBundle, config: FitConfig) -> tuple[StudentTEstimator, FitTrace]:
    """Fit the estimator to an aligned bundle; see FitConfig for knobs."""
    return fit_array(bundle.data, bundle.grid(), config)


def mean_curve(estimator: StudentTEstimator, grid) -> np.ndarray:
    """The fitted mean evaluated on a grid, shape (T, D)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-D array of at least two timesteps")
    if np.any(grid < 0.0) or np.any(grid > 1.0):
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
                               estimator: StudentTEstimator, step: float = 1e-5) -> dict:
    """Central-difference gradient of the total NLL, for verification.

    Perturbs ``estimator.theta`` in place one entry at a time and restores
    it; returns per-key views of the gradient, like ``loss_gradient_array``.
    """
    theta = estimator.theta
    g = np.zeros_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + step
        hi = nll_loss_array(data, grid, estimator)
        theta[i] = orig - step
        lo = nll_loss_array(data, grid, estimator)
        theta[i] = orig
        g[i] = (hi - lo) / (2.0 * step)
    return _flat_params(estimator.hidden, estimator.n_channels, g)[1]


def gradient_check(seed: int = 0, n_configs: int = 20,
                   nus=(1.25, 1.5, 3.0, math.inf), step: float = 1e-5) -> float:
    """Max per-parameter relative error between analytic and central-
    difference gradients over randomized small configurations."""
    if n_configs < 1:
        raise ValueError(f"the check needs at least one config, got {n_configs}")
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
        theta, params, _layers = _init_params(rng, hidden, n_d, data, nu)
        # Perturb the zero-initialized output weights so the check covers
        # a generic point in parameter space.
        for head in ("mu", "s"):
            params[f"{head}_W3"][...] = rng.normal(0.0, 0.3, params[f"{head}_W3"].shape)
        est = StudentTEstimator(theta=theta, nu=nu, hidden=hidden,
                                n_channels=n_d, var_floor=VAR_FLOOR,
                                channel_shift=rng.normal(0.0, 1.0, n_d),
                                channel_scale=rng.uniform(0.5, 2.0, n_d))
        analytic = loss_gradient_array(data, grid, est)
        numeric = finite_difference_gradient(data, grid, est, step=step)
        for k in PARAM_KEYS:
            denom = np.maximum(np.abs(numeric[k]), 1e-6)
            rel = np.abs(analytic[k] - numeric[k]) / denom
            worst = max(worst, float(rel.max()))
    return worst
