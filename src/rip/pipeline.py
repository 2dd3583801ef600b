"""End-to-end aggregation: sample Q candidates, align, fit, extract.

``run_rip`` is the full robust path; ``run_rip_gauss`` is the ablation
that swaps the heavy-tailed likelihood for a Gaussian (everything else
identical); ``single_sample`` is the no-aggregation baseline of one raw
policy query. Each aggregating run produces a RunReport so benchmark runs
are auditable and replayable.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace

from .core import Trajectory, align_bundle
from .errors import PipelineError
from .estimator import FitConfig, extract_mean, fit_with_trace
from .policy import PolicyConfig, sample_trajectories
from .tokens import PolicyContext


def _jsonable(value):
    """Make config echoes JSON-clean: inf -> 'inf', tuples -> lists."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


@dataclass
class RunReport:
    """What happened during one aggregation run."""

    method: str
    query_count: int
    sample_status: list
    decoded_count: int
    bundle_length: int
    final_loss: float
    loss_curve_tail: list
    timings: dict
    config_echo: dict = field(default_factory=dict)

    def status_counts(self) -> dict:
        counts: dict[str, int] = {}
        for s in self.sample_status:
            counts[s] = counts.get(s, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return _jsonable(asdict(self))


def _aggregate(context: PolicyContext, policy: PolicyConfig, fit_cfg: FitConfig,
               method: str) -> tuple[Trajectory, RunReport]:
    t0 = time.perf_counter()
    samples = sample_trajectories(context, policy)
    t_sample = time.perf_counter()

    decoded = [s.trajectory for s in samples if s.ok]
    if not decoded:
        raise PipelineError("no sample decoded into a trajectory; nothing to aggregate")

    # Common length: the longest decoded sample, so no sample is thinned.
    target_len = max(len(tr) for tr in decoded)
    bundle = align_bundle(decoded, target_len)
    t_align = time.perf_counter()

    estimator, trace = fit_with_trace(bundle, fit_cfg)
    t_fit = time.perf_counter()

    trajectory = extract_mean(estimator, bundle.grid())
    t_extract = time.perf_counter()

    report = RunReport(
        method=method,
        query_count=policy.query_count,
        sample_status=[s.status for s in samples],
        decoded_count=len(decoded),
        bundle_length=bundle.length,
        final_loss=trace.final_loss,
        loss_curve_tail=trace.loss_curve[-20:],
        timings={
            "sample_s": t_sample - t0,
            "align_s": t_align - t_sample,
            "fit_s": t_fit - t_align,
            "extract_s": t_extract - t_fit,
            "total_s": t_extract - t0,
        },
        config_echo={"policy": asdict(policy), "fit": asdict(fit_cfg)},
    )
    return trajectory, report


def run_rip(context: PolicyContext, policy: PolicyConfig,
            fit_cfg: FitConfig) -> tuple[Trajectory, RunReport]:
    """Robust aggregation: Q samples, t-likelihood fit, mean extraction."""
    return _aggregate(context, policy, fit_cfg, method="rip")


def run_rip_gauss(context: PolicyContext, policy: PolicyConfig,
                  fit_cfg: FitConfig) -> tuple[Trajectory, RunReport]:
    """Gaussian ablation: identical pipeline with the tails turned off."""
    return _aggregate(context, policy, fit_cfg.gaussian(), method="rip_gauss")


def single_sample(context: PolicyContext, policy: PolicyConfig) -> Trajectory:
    """One policy query, decoded and returned as-is (no aggregation)."""
    one = replace(policy, query_count=1)
    samples = sample_trajectories(context, one)
    if not samples[0].ok:
        raise PipelineError(f"single sample failed to decode: {samples[0].detail}")
    return samples[0].trajectory
