#!/usr/bin/env python3
"""Benchmark of the ``rip`` aggregation pipeline.

    python3 perfbench/run.py --workload pick-q5 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root; the package is imported from ``src``.
Workloads: ``pick-q5``, ``sweep-mix``, ``remote-fullrate`` (see
``perfbench/layers.json`` for what each stresses and which layer metric
should move which end-to-end metric).

``--trace 0`` sets up (import, inputs, one warm-up episode), runs episodes
serially for ``--seconds``, repeats the set-up halfway and at the end, and
reports the end-to-end metrics; failed_ratio, success_rate and rmse_mm_p50 are printed by name
too. ``--trace 1`` alternates an untraced episode with a traced replay of
the same episode, checks that the two outputs are byte-identical, prints
the self time of each module and reports the per-layer metrics; its spans
are written to ``.perfbench/trace-<workload>-<seed>.json``.

Outputs are checked in the same command. The last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 1 when a check fails and 2 when there is no package to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

T_START = time.perf_counter()  # set-up is timed from here

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "episode_s_p50": "s",
    "episode_s_tail": "s",
    "episodes_per_s": "1/s",
    "completed_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# success_rate and rmse_mm_p50 are reported with the layers, without a
# bound: over the 11-18 fits of a run they are binomial and bimodal, and
# their run-to-run spread on sweep-mix exceeds any allowed bound.
PER_LAYER = {
    "success_rate": "ratio",
    "rmse_mm_p50": "mm",
    "pipeline.sample_s": "s",
    "pipeline.align_s": "s",
    "pipeline.fit_s": "s",
    "pipeline.extract_s": "s",
    "estimator.ms_per_step": "ms",
    "estimator.grad_eval_ms": "ms",
    "estimator.nll_eval_ms": "ms",
    "estimator.nll_evals": "count",
    "estimator.flops_per_step": "flop",
    "estimator.gflops": "GFLOP/s",
    "estimator.extract_ms": "ms",
    "policy.synthetic_ms": "ms",
    "policy.remote_ms": "ms",
    "policy.calls": "count",
    "policy.overlap": "ratio",
    "policy.slot_ok_ratio": "ratio",
    "tokens.encode_ms": "ms",
    "tokens.decode_ms_per_kline": "ms",
    "tokens.bytes_decoded": "count",
    "core.align_ms": "ms",
    "core.resample_us_per_step": "us",
    "core.actions_built": "count",
    "downsample.g_based_ms": "ms",
    "downsample.uniform_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

WORKLOAD_NAMES = ("pick-q5", "sweep-mix", "remote-fullrate")
MODULES = ("estimator", "policy", "tokens", "core", "downsample", "pipeline", "bench")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def percentile(values, pct: int) -> float:
    """Linearly interpolated percentile; a failed episode enters as inf."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Result:
    """What one run measured and found."""

    def __init__(self):
        self.values: dict = {}
        self.notes: dict = {}
        self.problems: list = []
        self.errors: Counter = Counter()
        self.attempted = 0
        self.successes: list = []
        self.rmses: list = []
        self.extra: dict = {}
        self.shares: dict = {}

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    def judge(self, wl, index: int, inp, out) -> None:
        found, ok, rm = wl.check(inp, out)
        self.problems.extend(f"episode {index}: {p}" for p in found)
        self.successes.extend(ok)
        self.rmses.extend(rm)

    def accuracy(self) -> dict:
        self.notes["success_rate"] = f"{sum(self.successes)} of {len(self.successes)} judged"
        return {"success_rate": sum(self.successes) / len(self.successes),
                "rmse_mm_p50": statistics.median(self.rmses)}


def attempt(go, errors: Counter):
    """Run one episode; any exception, not only a RipError, is counted by
    type and returns (None, inf) so the run goes on."""
    t0 = time.perf_counter()
    try:
        out = go()
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        errors[type(exc).__name__] += 1
        return None, math.inf
    return out, time.perf_counter() - t0


def run_untraced(wl, seconds: float) -> Result:
    res = Result()
    import_s = time.perf_counter() - T_START
    setups, prints = [], []

    def set_up() -> float:
        t0 = time.perf_counter()
        out = wl.start(wl.warmup())()
        setups.append(time.perf_counter() - t0)
        prints.append(wl.fingerprint(out))
        return setups[-1]

    # Set up before the timed episodes, once halfway (not counted against
    # --seconds) and once after them: the median samples the machine across
    # the run, and the warm-up output is re-checked after episodes have run.
    set_up()
    times = []
    loop_start = time.perf_counter()
    halfway = False
    while time.perf_counter() - loop_start < seconds:
        if not halfway and time.perf_counter() - loop_start >= seconds / 2:
            loop_start += set_up()
            halfway = True
        index = len(times)
        inp = wl.episode(index)
        out, elapsed = attempt(wl.start(inp), res.errors)
        times.append(elapsed)
        if out is not None:
            res.judge(wl, index, inp, out)
    set_up()
    if len(set(prints)) != 1:
        res.problems.append("warm-up episode is not byte-identical across re-runs")

    res.attempted = len(times)
    done = [t for t in times if math.isfinite(t)]
    if not done:
        raise RuntimeError(f"no episode completed: {dict(res.errors)}")
    tail = percentile(times, wl.tail_pct)
    res.values = {
        "setup_s": import_s + statistics.median(setups),
        "episode_s_p50": statistics.median(done),
        "episode_s_tail": tail,
        "episodes_per_s": len(done) / sum(done),
        "completed_ratio": len(done) / len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    res.notes.update({
        "setup_s": f"median of {len(setups)} set-ups",
        "episode_s_p50": f"{len(done)} episodes",
        "episode_s_tail": f"p{wl.tail_pct}, {sum(t > tail for t in times)} episodes beyond",
    })
    # Printed by name and unit but left out of the result line: failed_ratio
    # is carried there as completed_ratio and as ``failed``; for the two
    # accuracy metrics see PER_LAYER.
    res.extra = {"failed_ratio": (res.failed / len(times), "ratio")}
    res.extra.update((name, (value, PER_LAYER[name])) for name, value in res.accuracy().items())
    return res


def run_traced(wl, seconds: float, tracer) -> Result:
    from episodes import layer_values

    res = Result()
    wl.start(wl.warmup())()
    plain, traced, per_episode = [], [], []
    self_s: dict = defaultdict(float)
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < seconds:
        index = res.attempted
        res.attempted += 1
        inp = wl.episode(index)
        out, elapsed = attempt(wl.start(inp), res.errors)
        if out is None:
            continue
        try:
            tracer.episode = f"e{index}"
            with tracer.span("bench.episode") as root:
                replayed = wl.replay(inp, tracer)
            tracer.episode = f"p{index}"
            with tracer.span("bench.probe"):
                wl.probe(index, inp, replayed, tracer)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            res.errors[type(exc).__name__] += 1
            continue
        res.judge(wl, index, inp, out)
        plain.append(elapsed)
        traced.append(root["end"] - root["start"])
        if not wl.same(out, replayed):
            res.problems.append(f"episode {index}: traced replay differs from the untraced run")
        for module, share in tracer.self_time(root).items():
            self_s[module] += share
        per_episode.append(layer_values(tracer.episode_spans(f"e{index}")
                                        + tracer.episode_spans(f"p{index}")))

    if not traced:
        raise RuntimeError(f"no episode completed: {dict(res.errors)}")
    for name in PER_LAYER:
        got = [ep[name] for ep in per_episode if name in ep]
        if got:
            res.values[name] = statistics.median(got)
    res.values.update(res.accuracy())
    res.values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    missing = [name for name in PER_LAYER if name not in res.values]
    if missing:
        res.problems.append(f"per-layer metrics not measured: {missing}")
    res.notes["estimator.flops_per_step"] = "computed from layer sizes, matmuls only"

    total = sum(self_s.values())
    res.shares = {m: self_s.get(m, 0.0) / total for m in MODULES}
    focus = sum(res.shares[m] for m in wl.focus)
    print("self time per module (share of traced episode time):")
    for m in MODULES:
        print(f"  {m:<12} {res.shares[m]:8.4f}")
    print(f"  focus {'+'.join(wl.focus)}: {focus:.4f} "
          f"({'at least' if focus >= 0.9 else 'BELOW'} 0.9)")
    return res


def run_all(args) -> int:
    """Each workload in its own process, one after another, so each set-up
    is timed from a fresh start. Non-zero if any of them is."""
    failed = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if subprocess.run(cmd, check=False).returncode != 0:
            failed.append(name)
    print(f"all workloads: {'failed: ' + ', '.join(failed) if failed else 'checks passed'}")
    return 1 if failed else 0


def one_core() -> int | None:
    """Serial work on one core: one BLAS thread (set before numpy loads)
    and the process pinned to one CPU, so the client's worker threads do
    not hand the interpreter lock across CPUs. Returns the CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cpu = one_core()
    src = ROOT / "src"
    if not (src / "rip" / "__init__.py").is_file():
        print(f"perfbench: no rip package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import rip
    except ImportError as exc:
        print(f"perfbench: cannot import rip from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(rip.__file__).resolve().parent != (src / "rip").resolve():
        print(f"perfbench: imported rip from {rip.__file__}, not from {src}", file=sys.stderr)
        return 2
    import episodes
    import provenance

    prov = provenance.collect(ROOT)
    prov.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                pinned_cpu=cpu)
    print(json.dumps({"provenance": prov}, sort_keys=True))
    wl = episodes.WORKLOADS[args.workload](args.seed)

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        res = run_traced(wl, args.seconds, tracer)
        units = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(path, {"provenance": prov, "self_share": res.shares, "values": res.values})
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        res = run_untraced(wl, args.seconds)
        units = END_TO_END

    metrics = {name: {"value": res.values[name], "unit": unit}
               for name, unit in units.items() if name in res.values}
    print(f"{args.workload} seed {args.seed}: {res.attempted} episodes attempted, "
          f"{res.failed} failed" + (f" {dict(res.errors)}" if res.errors else ""))
    for name, m in metrics.items():
        line = f"  {name:<28} {m['value']:>14.6g} {m['unit']:<8} {res.notes.get(name, '')}"
        print(line.rstrip())
    for name, (value, unit) in res.extra.items():
        line = f"  {name:<28} {value:>14.6g} {unit:<8} {res.notes.get(name, '')}"
        print(line.rstrip())
    for problem in res.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    correct = not res.problems
    print(json.dumps({"correct": correct, "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
