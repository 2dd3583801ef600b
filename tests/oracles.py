"""Independent reference implementations the tests check the package against.

Nothing here may import package internals beyond public data containers:
the whole point is a second, dumber route to the same numbers.
"""

from __future__ import annotations

import math
import re

import mpmath as mp
import numpy as np

from rip.core import Trajectory
from rip.errors import MalformedResponseError

mp.mp.dps = 40


def ref_log_gamma(x: float) -> float:
    """High-precision log-gamma via mpmath."""
    return float(mp.loggamma(mp.mpf(float(x))))


def ref_t_log_density(a: float, mu: float, var: float, nu: float) -> float:
    """High-precision log-density of the location-scale t (or Gaussian)."""
    if math.isinf(nu):
        return float(
            -mp.mpf(0.5) * mp.log(2 * mp.pi * mp.mpf(var))
            - (mp.mpf(a) - mp.mpf(mu)) ** 2 / (2 * mp.mpf(var))
        )
    a, mu, var, nu = (mp.mpf(float(v)) for v in (a, mu, var, nu))
    r2 = (a - mu) ** 2
    return float(
        mp.loggamma((nu + 1) / 2)
        - mp.loggamma(nu / 2)
        - mp.mpf(0.5) * mp.log(nu * mp.pi * var)
        - (nu + 1) / 2 * mp.log(1 + r2 / (nu * var))
    )


def numpy_t_nll(data, mu, var, nu) -> float:
    """Plain elementwise t (or Gaussian) NLL, summed; numpy-only."""
    data = np.asarray(data, dtype=float)
    r2 = (data - mu) ** 2
    if math.isinf(nu):
        per = 0.5 * np.log(2 * math.pi * var) + r2 / (2 * var)
    else:
        c = (
            math.lgamma((nu + 1) / 2)
            - math.lgamma(nu / 2)
            - 0.5 * math.log(nu * math.pi)
        )
        per = -c + 0.5 * np.log(var) + (nu + 1) / 2 * np.log1p(r2 / (nu * var))
    return float(np.sum(per))


def grid_search_location(data, nu, floor=1e-6,
                         mu_range=(-2.0, 12.0), n_mu=2801, n_var=1200):
    """Brute-force argmin of the 1-D location/scale NLL on a dense grid.

    Returns (mu_star, var_star, nll_star). The scale grid is logarithmic
    from the floor up; the variance passed to the NLL includes the floor,
    mirroring a positivity-floored scale head.
    """
    data = np.asarray(data, dtype=float)
    mus = np.linspace(mu_range[0], mu_range[1], n_mu)
    variances = np.exp(np.linspace(math.log(floor), math.log(400.0), n_var)) + floor
    best = (math.inf, math.nan, math.nan)
    for var in variances:
        r2 = (data[None, :] - mus[:, None]) ** 2
        if math.isinf(nu):
            nll = np.sum(0.5 * math.log(2 * math.pi * var) + r2 / (2 * var), axis=1)
        else:
            c = (
                math.lgamma((nu + 1) / 2)
                - math.lgamma(nu / 2)
                - 0.5 * math.log(nu * math.pi)
            )
            nll = np.sum(-c + 0.5 * math.log(var) + (nu + 1) / 2 * np.log1p(r2 / (nu * var)), axis=1)
        i = int(np.argmin(nll))
        if nll[i] < best[0]:
            best = (float(nll[i]), float(mus[i]), float(var))
    nll_star, mu_star, var_star = best
    return mu_star, var_star, nll_star


def central_difference_gradient(loss_fn, params: dict, step: float = 1e-5) -> dict:
    """Central finite differences of a scalar loss over a dict of arrays."""
    grads = {}
    for key, p in params.items():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            hi = loss_fn()
            p[idx] = orig - step
            lo = loss_fn()
            p[idx] = orig
            g[idx] = (hi - lo) / (2.0 * step)
            it.iternext()
        grads[key] = g
    return grads


def max_relative_error(a: dict, b: dict, floor: float = 1e-6) -> float:
    worst = 0.0
    for key in a:
        denom = np.maximum(np.abs(b[key]), floor)
        worst = max(worst, float((np.abs(a[key] - b[key]) / denom).max()))
    return worst


# ------------------------------------------------------ reference training loop
#
# fit_array's training loop written the plain way: every expression
# allocates its result, and the full-bundle NLL is evaluated at every point
# of the log schedule. Each operation runs in the same order and precision
# as in the package, so the package must match it bit for bit; a reordering
# of the step's arithmetic shows up as a changed bit, not as rounding
# inside a tolerance.

_FREQS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
_FEATURES = 1 + 2 * len(_FREQS)
_OMEGA = np.array([math.pi * f for f in _FREQS])
_VAR_FLOOR = 1e-6


def _ref_features(t):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    angles = t[:, None] * _OMEGA
    out = np.empty((t.size, _FEATURES + 1))
    out[:, 0] = t
    np.sin(angles, out=out[:, 1:-1:2])
    np.cos(angles, out=out[:, 2:-1:2])
    out[:, -1] = 1.0
    return out


def _ref_softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _ref_layers(hidden, n_d, theta):
    """Views of the flat vector: layer k is (2, fan_in + 1, fan_out), mu
    head first, the bias as the last row."""
    h1, h2 = hidden
    layers, offset = [], 0
    for n_in, n_out in ((_FEATURES, h1), (h1, h2), (h2, n_d)):
        size = 2 * (n_in + 1) * n_out
        layers.append(theta[offset:offset + size].reshape(2, n_in + 1, n_out))
        offset += size
    return layers


def _ref_forward(layers, X1, h1=None, h2=None, out=None):
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


def _ref_nll(data, grid, layers, shift, scale, nu):
    """Total float64 NLL of (Q, T, D) data, as nll_loss_array computes it."""
    mu_net, s_raw = _ref_forward(layers, _ref_features(grid))[2]
    mu = mu_net * scale + shift
    var = _ref_softplus(s_raw) * scale**2 + _VAR_FLOOR
    r2 = (data - mu[None]) ** 2
    if math.isinf(nu):
        lp = -0.5 * (math.log(2.0 * math.pi) + np.log(var[None])) - r2 / (2.0 * var[None])
    else:
        norm = math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0) - 0.5 * math.log(nu * math.pi)
        lp = norm - 0.5 * np.log(var[None]) - ((nu + 1.0) / 2.0) * np.log1p(r2 / (nu * var[None]))
    return -float(np.sum(lp))


def reference_fit(data, grid, nu, hidden=(64, 64), steps=4000, learning_rate=1e-2, seed=0):
    """The training loop with its allocations and every loss log.

    The warmup and the learning-rate decay run over the first
    ``h = min(steps, 600)`` steps. After step h the loss is checked every
    100 steps and at ``steps``, and the loop stops at the first check
    whose loss fell by less than ``2.5e-3 * data.size`` since the check
    before. Returns the trained float64 parameter vector (``_flat_params``
    layout) and the loss curve at every point of the log schedule: every
    ``max(1, h // 200)`` steps and step h, then every check up to the
    stop, the curve's last step.
    """
    data = np.asarray(data, dtype=float)
    grid = np.asarray(grid, dtype=float)
    n_q, n_t, n_d = data.shape
    h1, h2 = hidden
    rng = np.random.default_rng(seed)
    flat_raw = data.reshape(n_q * n_t, n_d)
    shift = np.median(flat_raw, axis=0)
    scale = np.maximum(np.std(flat_raw, axis=0), 1e-3)
    data_std = (data - shift) / scale
    f32 = np.float32
    floor_std = (_VAR_FLOOR / scale**2).astype(f32)
    nu = float(nu)

    # Initialisation, in float64: the draws in the package's order.
    size = 2 * sum((n_in + 1) * n_out
                   for n_in, n_out in ((_FEATURES, h1), (h1, h2), (h2, n_d)))
    theta = np.zeros(size)
    L1, L2, L3 = _ref_layers(hidden, n_d, theta)
    for i in range(2):  # mu head, then s head
        L1[i, :_FEATURES] = rng.normal(0.0, 1.0 / math.sqrt(_FEATURES), (_FEATURES, h1))
        L2[i, :h1] = rng.normal(0.0, 1.0 / math.sqrt(h1), (h1, h2))
    flat = data_std.reshape(-1, n_d)
    med = np.median(flat, axis=0)
    L3[0, h2] = med
    if math.isinf(nu):
        spread = np.var(flat, axis=0)
    else:
        spread = (1.4826 * np.median(np.abs(flat - med), axis=0)) ** 2
    y = np.clip(spread, 1e-2, 25.0) + _VAR_FLOOR
    L3[1, h2] = y + np.log1p(-np.exp(-y))

    theta_train = theta.astype(f32)
    layers = _ref_layers(hidden, n_d, theta_train)
    grad = np.zeros_like(theta_train)
    grads = _ref_layers(hidden, n_d, grad)
    features = _ref_features(grid).astype(f32)
    features_t = np.ascontiguousarray(features.T)
    data_f32 = data_std.astype(f32)
    eval_layers = _ref_layers(hidden, n_d, theta)

    m = np.zeros_like(theta_train)
    v = np.zeros_like(theta_train)
    buf = np.empty_like(theta_train)
    horizon = min(steps, 600)
    log_every = max(1, horizon // 200)
    curve = []
    w = 1.0 / (n_q * n_t)
    h1_buf, h2_buf, out, dout = (np.empty((2, n_t, n), dtype=f32) for n in (h1, h2, n_d, n_d))
    warm_start, warm_end, warm_frac = 0.09, 1e-5, 0.7
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    for step in range(1, steps + 1):
        progress = min(1.0, step / (warm_frac * horizon))
        warm = warm_start * (warm_end / warm_start) ** progress
        floor = np.maximum(floor_std, warm)

        # Forward, t-likelihood partials on the whole bundle, sums over
        # samples, softplus factor.
        _ref_forward(layers, features, h1_buf, h2_buf, out)
        soft = _ref_softplus(out[1])
        var = soft + floor
        r = data_f32 - out[0]
        if math.isinf(nu):
            dmu = (-w) * r / var
            dvar = (0.5 * w) / var - (0.5 * w) * r * r / (var * var)
        else:
            denom = nu * var + r * r
            dmu = (-(nu + 1.0) * w) * r / denom
            dvar = (0.5 * w) / var - ((nu + 1.0) / 2.0 * w) * r * r / (var * denom)
        dmu.sum(axis=0, out=dout[0])
        dvar.sum(axis=0, out=dout[1])
        dout[1] *= np.exp(out[1] - soft)

        # Backward into the gradient's layer views.
        (W1, W2, W3), (G1, G2, G3) = layers, grads
        ones = features_t[-1:]
        np.matmul(h2_buf.transpose(0, 2, 1), dout, out=G3[:, :h2])
        np.matmul(ones, dout, out=G3[:, h2:])
        dh2 = dout @ W3[:, :h2].transpose(0, 2, 1)
        dh2 *= 1.0 - h2_buf * h2_buf
        np.matmul(h1_buf.transpose(0, 2, 1), dh2, out=G2[:, :h1])
        np.matmul(ones, dh2, out=G2[:, h1:])
        dh1 = dh2 @ W2[:, :h1].transpose(0, 2, 1)
        dh1 *= 1.0 - h1_buf * h1_buf
        np.matmul(features_t, dh1, out=G1)
        if not np.isfinite(dout).all():
            raise FloatingPointError(f"gradient became non-finite at step {step}")

        # Adam on moments kept without their (1 - beta) factors.
        if step <= horizon:
            lr = learning_rate * (0.01 + 0.99 * 0.5 * (1.0 + math.cos(math.pi * step / horizon)))
        else:
            lr = learning_rate * 0.01
        m *= beta1
        m += grad
        v *= beta2
        np.multiply(grad, grad, out=buf)
        v += buf
        v_scale = math.sqrt((1.0 - beta2) / (1.0 - beta2 ** step))
        np.sqrt(v, out=buf)
        buf += eps / v_scale
        np.divide(m, buf, out=buf)
        buf *= lr * (1.0 - beta1) / (1.0 - beta1 ** step) / v_scale
        theta_train -= buf

        if step <= horizon:
            logs = step % log_every == 0 or step == horizon
        else:
            logs = (step - horizon) % 100 == 0 or step == steps
        if logs:
            theta[...] = theta_train
            curve.append((step, _ref_nll(data, grid, eval_layers, shift, scale, nu)))
            if step > horizon and curve[-2][1] - curve[-1][1] < 2.5e-3 * data.size:
                break

    return theta, curve


# ------------------------------------------------------------- text tokens
#
# The prompt encoder and the untrusted-output decoder written the plain
# way: one str.join per row, and a Python-level split of the action block.

_MM_PER_M = 1000.0
_MAX_COORDINATE_MM = 10_000.0
_MAX_ACTION_LINES = 10_000
_ACTION_LINE = re.compile(r"\s*(?:[+-]?[0-9]+\s+){9}[+-]?[0-9]+\s*")


def _ref_mm(arr):
    return np.sign(arr) * np.floor(np.abs(arr) * _MM_PER_M + 0.5)


def _ref_lines(values) -> list:
    return [" ".join(map(str, row)) for row in values.astype(np.int64).tolist()]


def reference_encode_context(context, preamble: str) -> str:
    """The prompt text of a PolicyContext whose coordinates are in range."""
    parts = [preamble, ""]
    for i, (keypoints, trajectory) in enumerate(context.demonstrations, start=1):
        data = trajectory.to_array()
        parts += [f"DEMONSTRATION {i}", "KEYPOINTS:", *_ref_lines(_ref_mm(keypoints.to_array())),
                  "ACTIONS:", *_ref_lines(np.column_stack([_ref_mm(data[:, :9]), data[:, 9]])),
                  ""]
    parts += ["QUERY:", *_ref_lines(_ref_mm(context.query_keypoints.to_array())), "ACTIONS:"]
    return "\n".join(parts) + "\n"


def reference_decode(text: str) -> Trajectory:
    """The first run of >= 2 lines of exactly 10 ASCII integers, in meters;
    MalformedResponseError when there is none, it runs past 10,000 lines,
    a coordinate exceeds 10,000 mm or a gripper token is not 0 or 1."""
    block = []
    for line in text.splitlines():
        if _ACTION_LINE.fullmatch(line):
            block.append(line)
            if len(block) > _MAX_ACTION_LINES:
                raise MalformedResponseError("action block too long")
        elif len(block) >= 2:
            break
        else:
            block = []
    if len(block) < 2:
        raise MalformedResponseError("no action block found")
    values = np.array(" ".join(block).split(), dtype=float).reshape(len(block), 10)
    if np.abs(values[:, :9]).max() > _MAX_COORDINATE_MM:
        raise MalformedResponseError("action coordinate out of range")
    g = values[:, 9]
    if not ((g == 0) | (g == 1)).all():
        raise MalformedResponseError("gripper token must be 0 or 1")
    data = values + 0.0  # "-0" names the integer 0
    data[:, :9] /= _MM_PER_M
    return Trajectory(data)
