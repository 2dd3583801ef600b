"""The workloads: episode inputs, untraced runs, traced replays, checks and
the per-layer values a traced episode yields.

Episodes are built only from the package's public calls. A fit episode is
one ``run_rip`` call (preceded, for the downsample-bench kinds, by thinning
the demonstration); a remote episode is the non-fit half of a remote run:
``sample_with_client`` against an in-process stub, then ``align_bundle``
to the longest decoded sample. The traced replay makes the same calls one
by one with a span around each, so its output must equal the untraced
output byte for byte.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace

import numpy as np

import rip.core
import rip.estimator
import rip.policy
from rip import (
    FitConfig,
    PolicyConfig,
    RemoteConfig,
    SyntheticOracleConfig,
    align_bundle,
    decode_trajectory,
    downsample,
    make_consensus_task,
    run_rip,
    sample_trajectories,
    uniform_downsample,
)
from rip.errors import PipelineError
from rip.estimator import (
    FEATURE_DIM,
    extract_mean,
    fit_with_trace,
    loss_gradient_array,
)
from rip.policy import RemotePolicyClient, sample_with_client
from rip.tokens import PolicyContext

import judge
from stub import PolicyStub, action_text, plan_responses, quantize_mm

# The sweep bench's oracle: pick task, 5 mm noise, p = 0.2 at 0.2 m.
SWEEP_ORACLE = SyntheticOracleConfig(task_shape="pick", noise_scale=0.005,
                                     hallucination_prob=0.2, hallucination_offset=0.2)
# The downsample bench's oracle: follows the (thinned) context demonstration.
FOLLOW_ORACLE = SyntheticOracleConfig(task_shape="pick", noise_scale=0.003,
                                      hallucination_prob=0.1, hallucination_offset=0.2,
                                      length_jitter=(0, 0), follow_context_demo=True)
DEMO_LENGTHS = (260, 340)
THIN_LEN = 30
EVENT_TOL_M = 0.02
THINNERS = {"g_based": downsample, "uniform": uniform_downsample}

REMOTE_Q = 10
# The remote workload's served samples: the swoop demonstration at full
# rate with the oracle's length jitter, 3 mm noise and p = 0.1 at 0.2 m.
REMOTE_JITTER = 3
REMOTE_NOISE_M = 0.003
REMOTE_HALLUCINATION = (0.1, 0.2)

# Estimator probe on the remote bundle (the remote workload has no fit).
PROBE_FIT_STEPS = 400
PROBE_EPISODES = 2


def episode_seed(seed: int, workload_id: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, workload_id, 0, index]).generate_state(1)[0])


def warmup_seed(seed: int, workload_id: int) -> int:
    return int(np.random.SeedSequence([seed, workload_id, 1]).generate_state(1)[0])


def swoop_task(seed: int):
    """A 260-340-step swoop pick demonstration and its consensus."""
    return make_consensus_task(seed, "pick", n_demos=1, length_range=DEMO_LENGTHS,
                               pick_profile="swoop", demo_drift=0.0, demo_wobble=0.001)


def thin_context(context: PolicyContext, thin: str, tracer=None) -> PolicyContext:
    keypoints, demo = context.demonstrations[0]
    fn = THINNERS[thin]
    if tracer is not None:
        fn = tracer.wrap(f"downsample.{fn.__name__}", fn)
    return PolicyContext(((keypoints, fn(demo, THIN_LEN)),), context.query_keypoints)


def _traced_targets():
    """Calls the package makes into its own modules, spanned in a replay."""
    def resample_counts(args):
        return {"steps": args[1] if len(args[0]) != args[1] else 0}

    return [
        (rip.policy, "resample_trajectory", "core.resample_trajectory", resample_counts),
        (rip.core, "resample_trajectory", "core.resample_trajectory", resample_counts),
        (rip.policy, "encode_context", "tokens.encode_context", None),
        (rip.policy, "decode_trajectory", "tokens.decode_trajectory",
         lambda args: {"bytes": len(args[0].encode())}),
        (rip.estimator, "nll_loss_array", "estimator.nll_loss_array", None),
    ]


def _align(decoded, tracer):
    target = max(len(tr) for tr in decoded)
    return tracer.wrap("core.align_bundle", align_bundle,
                       lambda args: {"actions": len(args[0]) * args[1]})(decoded, target)


def _fit(bundle, config: FitConfig, tracer):
    with tracer.span("estimator.fit_with_trace") as record:
        record.update(steps=config.steps, hidden=list(config.hidden),
                      rows=min(config.batch_size, bundle.query_count * bundle.length))
        estimator, _trace = fit_with_trace(bundle, config)
    return estimator


def _flops_per_step(rows: int, hidden) -> int:
    """Matmul flops of one Adam step: forward and backward of both heads
    on ``rows`` batch rows. Computed from the layer sizes, not measured."""
    h1, h2 = hidden
    per_head = 2 * rows * (2 * FEATURE_DIM * h1 + 3 * h1 * h2 + 3 * h2 * 10)
    return 2 * per_head


# ---------------------------------------------------------------- remote


def served_samples(demo: np.ndarray, rng: np.random.Generator, q: int) -> list:
    """Q integer-millimetre samples around a full-rate demonstration."""
    prob, offset = REMOTE_HALLUCINATION
    out = []
    for _ in range(q):
        n = len(demo) + int(rng.integers(-REMOTE_JITTER, REMOTE_JITTER + 1))
        sample = judge.resample(demo, n).copy()
        if rng.random() < prob:
            direction = rng.normal(0.0, 1.0, 3)
            sample[:, :9] += np.tile(offset * direction / np.linalg.norm(direction), 3)
        sample[:, :9] += rng.normal(0.0, REMOTE_NOISE_M, (n, 9))
        out.append(quantize_mm(sample))
    return out


def served_metres(ints: np.ndarray) -> np.ndarray:
    """What decoding a served sample must give: millimetres to metres,
    gripper flag unchanged."""
    out = ints / 1000.0
    out[:, 9] = ints[:, 9]
    return out


@dataclass
class RemoteInputs:
    seed: int
    context: PolicyContext
    consensus: np.ndarray
    served: list
    responses: list
    faults: int
    policy: PolicyConfig


def remote_inputs(seed: int, context=None, served=None) -> RemoteInputs:
    """A remote episode; by default a swoop demonstration served at full
    rate, else the given context and integer samples."""
    rng = np.random.default_rng([seed, 7])
    consensus = None
    if context is None:
        context, consensus_tr = swoop_task(seed)
        consensus = consensus_tr.to_array()
        served = served_samples(context.demonstrations[0][1].to_array(), rng, REMOTE_Q)
    responses, faults = plan_responses(served, rng)
    policy = PolicyConfig(backend="remote", query_count=len(served),
                          remote=RemoteConfig(endpoint="stub://policy"))
    return RemoteInputs(seed, context, consensus, served, responses, faults, policy)


def run_remote(inp: RemoteInputs, stub: PolicyStub):
    client = RemotePolicyClient(inp.policy.remote, post_fn=stub)
    samples = sample_with_client(inp.context, inp.policy, client)
    decoded = [s.trajectory for s in samples if s.ok]
    bundle = align_bundle(decoded, max(len(tr) for tr in decoded))
    return samples, bundle


def _sample_remote(inp: RemoteInputs, tracer):
    stub = PolicyStub(list(inp.responses), tracer=tracer)
    client = RemotePolicyClient(inp.policy.remote, post_fn=stub)
    with tracer.span("policy.sample_with_client") as record:
        samples = sample_with_client(inp.context, inp.policy, client)
    record.update(calls=stub.calls, service_s=stub.service_s, q=len(samples))
    return samples, stub


def replay_remote(inp: RemoteInputs, tracer):
    with tracer.patched(_traced_targets()):
        with tracer.span("pipeline.sample"):
            samples, stub = _sample_remote(inp, tracer)
            decoded = [s.trajectory for s in samples if s.ok]
        with tracer.span("pipeline.align"):
            bundle = _align(decoded, tracer)
        # No fit and no extraction in this half of the episode: the two
        # stages are timed empty so every workload reports all four.
        with tracer.span("pipeline.fit"):
            pass
        with tracer.span("pipeline.extract"):
            pass
    return samples, bundle, stub


def _sorted_bytes(arrays) -> list:
    return sorted(np.ascontiguousarray(a).tobytes() for a in arrays)


def check_remote(inp: RemoteInputs, samples, bundle, stub) -> list[str]:
    """The decoded bundle is the served multiset, aligned as documented."""
    problems = []
    if any(not s.ok for s in samples):
        problems.append(f"slots not ok: {[s.status for s in samples]}")
        return problems
    decoded = [s.trajectory.to_array() for s in samples]
    if _sorted_bytes(decoded) != _sorted_bytes(served_metres(ints) for ints in inp.served):
        problems.append("decoded samples differ from the served multiset")
    expected_calls = len(inp.served) + inp.faults
    if stub.calls != expected_calls:
        problems.append(f"{stub.calls} policy calls, expected {expected_calls}")
    target = max(len(ints) for ints in inp.served)
    aligned = bundle.to_array()
    if aligned.shape != (len(decoded), target, 10):
        problems.append(f"aligned bundle shape {aligned.shape}")
    else:
        for got, arr in zip(aligned, decoded):
            if not np.allclose(got, judge.resample(arr, target), rtol=0.0, atol=1e-9):
                problems.append("aligned sample differs from its resampled decode")
                break
    return problems


# ---------------------------------------------------------------- fit


@dataclass(frozen=True)
class Kind:
    name: str
    q: int
    nu: float
    steps: int
    thin: str | None = None


@dataclass
class FitInputs:
    kind: Kind
    seed: int
    context: PolicyContext
    consensus: np.ndarray
    policy: PolicyConfig
    fit: FitConfig
    event_tol: float | None


def fit_inputs(kind: Kind, seed: int) -> FitInputs:
    if kind.thin is None:
        context, consensus = make_consensus_task(seed, "pick")
        oracle, event_tol = replace(SWEEP_ORACLE, seed=seed), None
    else:
        context, consensus = swoop_task(seed)
        oracle, event_tol = replace(FOLLOW_ORACLE, seed=seed), EVENT_TOL_M
    policy = PolicyConfig(backend="synthetic", query_count=kind.q, synthetic=oracle)
    fit = FitConfig(nu=kind.nu, steps=kind.steps, seed=seed)
    return FitInputs(kind, seed, context, consensus.to_array(), policy, fit, event_tol)


def run_fit(inp: FitInputs):
    context = inp.context
    if inp.kind.thin is not None:
        context = thin_context(context, inp.kind.thin)
    return run_rip(context, inp.policy, inp.fit)


def replay_fit(inp: FitInputs, tracer):
    """``run_rip`` taken apart into its public calls, one span each."""
    context = inp.context
    if inp.kind.thin is not None:
        context = thin_context(context, inp.kind.thin, tracer)
    with tracer.patched(_traced_targets()):
        with tracer.span("pipeline.sample"):
            samples = tracer.wrap("policy.sample_trajectories", sample_trajectories)(
                context, inp.policy)
            decoded = [s.trajectory for s in samples if s.ok]
        if not decoded:
            raise PipelineError("no sample decoded into a trajectory; nothing to aggregate")
        with tracer.span("pipeline.align"):
            bundle = _align(decoded, tracer)
        with tracer.span("pipeline.fit"):
            estimator = _fit(bundle, inp.fit, tracer)
        with tracer.span("pipeline.extract"):
            trajectory = tracer.wrap("estimator.extract_mean", extract_mean)(
                estimator, bundle.grid())
    return trajectory, samples, bundle, estimator


def check_fit(trajectory, bundle_length: int) -> list[str]:
    arr = trajectory.to_array()
    problems = []
    if not np.all(np.isfinite(arr)):
        problems.append("non-finite output")
    if not np.all(np.isin(arr[:, 9], (0.0, 1.0))):
        problems.append("gripper outside {0, 1}")
    if len(arr) != bundle_length:
        problems.append(f"output length {len(arr)} != bundle length {bundle_length}")
    return problems


# ---------------------------------------------------------------- workloads


class Workload:
    """One named workload. ``episode(i)`` builds the inputs of episode i
    from the workload seed; ``start`` returns the call that is timed."""

    id: int
    tail_pct: int
    focus: tuple

    def __init__(self, seed: int):
        self.seed = seed

    def episode(self, index: int):
        return self.inputs(episode_seed(self.seed, self.id, index), index)

    def warmup(self):
        return self.inputs(warmup_seed(self.seed, self.id), 0)


class FitWorkload(Workload):
    focus = ("estimator",)
    tail_pct = 50
    kinds: tuple = ()

    def inputs(self, seed: int, index: int) -> FitInputs:
        return fit_inputs(self.kinds[index % len(self.kinds)], seed)

    def start(self, inp: FitInputs):
        return lambda: run_fit(inp)

    def check(self, inp: FitInputs, out):
        trajectory, report = out
        arr = trajectory.to_array()
        problems = check_fit(trajectory, report.bundle_length)
        success = judge.task_success(arr, inp.consensus, inp.event_tol)
        return problems, [success], [judge.rmse_mm(arr, inp.consensus)]

    def fingerprint(self, out) -> bytes:
        return out[0].to_array().tobytes()

    def replay(self, inp: FitInputs, tracer):
        return replay_fit(inp, tracer)

    def same(self, out, replayed) -> bool:
        return self.fingerprint(out) == replayed[0].to_array().tobytes()

    def probe(self, index: int, inp: FitInputs, replayed, tracer) -> None:
        """Layers the episode does not call, timed on the episode's data."""
        _trajectory, samples, bundle, estimator = replayed
        data, grid = bundle.to_array(), bundle.grid()
        tracer.wrap("estimator.loss_gradient_array", loss_gradient_array)(data, grid, estimator)
        context = inp.context
        if inp.kind.thin is not None:
            context = thin_context(context, inp.kind.thin)
        served = [quantize_mm(s.trajectory.to_array()) for s in samples if s.ok]
        probe_remote(remote_inputs(inp.seed, context, served), tracer)
        if inp.kind.thin is None:
            probe_downsample(swoop_task(inp.seed)[0], tracer)


class RemoteWorkload(Workload):
    id = 3
    focus = ("core", "tokens", "policy")
    tail_pct = 90

    def inputs(self, seed: int, index: int) -> RemoteInputs:
        return remote_inputs(seed)

    def start(self, inp: RemoteInputs):
        stub = PolicyStub(list(inp.responses))
        return lambda: (*run_remote(inp, stub), stub)

    def check(self, inp: RemoteInputs, out):
        samples, bundle, stub = out
        problems = check_remote(inp, samples, bundle, stub)
        arrs = [s.trajectory.to_array() for s in samples if s.ok]
        successes = [judge.task_success(a, inp.consensus) for a in arrs]
        return problems, successes, [judge.rmse_mm(a, inp.consensus) for a in arrs]

    def fingerprint(self, out) -> bytes:
        samples, bundle, _ = out
        return b"".join(_sorted_bytes(s.trajectory.to_array() for s in samples)
                        + _sorted_bytes(bundle.to_array()))

    def replay(self, inp: RemoteInputs, tracer):
        return replay_remote(inp, tracer)

    def same(self, out, replayed) -> bool:
        return self.fingerprint(out) == self.fingerprint(replayed)

    def probe(self, index: int, inp: RemoteInputs, replayed, tracer) -> None:
        _samples, bundle, _stub = replayed
        decode_replay(inp.served, tracer)
        if index >= PROBE_EPISODES:
            return
        oracle = replace(FOLLOW_ORACLE, seed=inp.seed)
        synthetic = PolicyConfig(backend="synthetic", query_count=REMOTE_Q, synthetic=oracle)
        tracer.wrap("policy.sample_trajectories", sample_trajectories)(inp.context, synthetic)
        fit_cfg = FitConfig(nu=1.5, steps=PROBE_FIT_STEPS, seed=inp.seed)
        with tracer.patched(_traced_targets()):
            estimator = _fit(bundle, fit_cfg, tracer)
        tracer.wrap("estimator.loss_gradient_array", loss_gradient_array)(
            bundle.to_array(), bundle.grid(), estimator)
        tracer.wrap("estimator.extract_mean", extract_mean)(estimator, bundle.grid())
        probe_downsample(inp.context, tracer)


class PickQ5(FitWorkload):
    id = 1
    kinds = (Kind("q5-nu1.5", 5, 1.5, 4000),)


class SweepMix(FitWorkload):
    id = 2
    kinds = (
        Kind("q2-nu1.5", 2, 1.5, 3000),
        Kind("q2-nuinf", 2, math.inf, 3000),
        Kind("q10-nu1.5", 10, 1.5, 3000),
        Kind("q10-nuinf", 10, math.inf, 3000),
        Kind("ds-g_based", 5, 1.5, 3000, "g_based"),
        Kind("ds-uniform", 5, 1.5, 3000, "uniform"),
    )


WORKLOADS = {"pick-q5": PickQ5, "sweep-mix": SweepMix, "remote-fullrate": RemoteWorkload}


# ---------------------------------------------------------------- probes


def probe_remote(inp: RemoteInputs, tracer) -> None:
    with tracer.patched(_traced_targets()):
        _sample_remote(inp, tracer)
    decode_replay(inp.served, tracer)


def probe_downsample(context: PolicyContext, tracer) -> None:
    demo = context.demonstrations[0][1]
    for fn in THINNERS.values():
        tracer.wrap(f"downsample.{fn.__name__}", fn)(demo, THIN_LEN)


def decode_replay(served, tracer) -> None:
    """Decode the served texts again, serially, outside the client's pool."""
    texts = [action_text(ints) for ints in served]
    with tracer.span("tokens.decode_replay") as record:
        for text in texts:
            decode_trajectory(text)
    record["lines"] = sum(len(ints) for ints in served)


# ---------------------------------------------------------------- per layer


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_values(spans: list[dict]) -> dict:
    """Per-layer values of one traced episode and its probes."""
    by: dict[str, list] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)
    one = lambda name: _dur(by[name][0]) if name in by else None  # noqa: E731
    out = {}
    for stage in ("sample", "align", "fit", "extract"):
        if f"pipeline.{stage}" in by:
            out[f"pipeline.{stage}_s"] = one(f"pipeline.{stage}")
    if "estimator.fit_with_trace" in by:
        fit = by["estimator.fit_with_trace"][0]
        out["estimator.ms_per_step"] = 1e3 * _dur(fit) / fit["steps"]
        flops = _flops_per_step(fit["rows"], fit["hidden"])
        out["estimator.flops_per_step"] = flops
        out["estimator.gflops"] = flops / (out["estimator.ms_per_step"] * 1e-3) / 1e9
    nll = [_dur(s) for s in by.get("estimator.nll_loss_array", [])]
    if nll:
        out["estimator.nll_eval_ms"] = 1e3 * statistics.median(nll)
        out["estimator.nll_evals"] = len(nll)
    for name, key in (("estimator.loss_gradient_array", "estimator.grad_eval_ms"),
                      ("estimator.extract_mean", "estimator.extract_ms"),
                      ("policy.sample_trajectories", "policy.synthetic_ms"),
                      ("tokens.encode_context", "tokens.encode_ms"),
                      ("core.align_bundle", "core.align_ms"),
                      ("downsample.downsample", "downsample.g_based_ms"),
                      ("downsample.uniform_downsample", "downsample.uniform_ms")):
        if name in by:
            out[key] = 1e3 * one(name)
    if "policy.sample_with_client" in by:
        remote = by["policy.sample_with_client"][0]
        out["policy.remote_ms"] = 1e3 * _dur(remote)
        out["policy.calls"] = remote["calls"]
        out["policy.overlap"] = remote["service_s"] / _dur(remote)
        out["policy.slot_ok_ratio"] = remote["q"] / remote["calls"]
    if "tokens.decode_trajectory" in by:
        out["tokens.bytes_decoded"] = sum(s["bytes"] for s in by["tokens.decode_trajectory"])
    if "tokens.decode_replay" in by:
        replay = by["tokens.decode_replay"][0]
        out["tokens.decode_ms_per_kline"] = 1e3 * _dur(replay) / (replay["lines"] / 1000.0)
    if "core.align_bundle" in by:
        out["core.actions_built"] = by["core.align_bundle"][0]["actions"]
    resampled = [s for s in by.get("core.resample_trajectory", []) if s["steps"]]
    if resampled:
        out["core.resample_us_per_step"] = (1e6 * sum(_dur(s) for s in resampled)
                                            / sum(s["steps"] for s in resampled))
    return out
