"""Benchmark CLI: aggregation runs, design sweeps, and verification.

Subcommands:
    aggregate         run rip / rip_gauss / single_sample on a context
    sweep             success-rate grid over query count and tail weight
    downsample-bench  mask-based vs uniform demonstration thinning
    gradcheck         finite-difference audit of the analytic gradient
    preprocess        downsample a trajectory or demonstration file

Exit codes: 0 success, 1 usage error, 2 runtime error, 3 threshold breach.
Every command is deterministic under --seed when the backend is synthetic.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import bench, jsonio
from .errors import RipError
from .estimator import FitConfig, gradient_check
from .pipeline import run_rip, run_rip_gauss, single_sample
from .policy import (
    PolicyConfig,
    RemoteConfig,
    SyntheticOracleConfig,
    TASK_SHAPES,
    make_consensus_task,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_THRESHOLD = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI contract wants 1.
    def error(self, message):
        raise _UsageError(message)


def _parse_nu(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    value = float(text)
    if value <= 0:
        raise _UsageError(f"nu must be positive or 'inf', got {text}")
    return value


def _add_fit_flags(p):
    p.add_argument("--nu", type=str, default="1.5", help="degrees of freedom, or 'inf'")
    p.add_argument("--fit-steps", type=int, default=4000)
    p.add_argument("--fit-lr", type=float, default=1e-2)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--hidden", type=int, nargs=2, default=[64, 64], metavar=("H1", "H2"))


def _add_oracle_flags(p):
    p.add_argument("--task-shape", choices=TASK_SHAPES, default="pick")
    p.add_argument("--noise-scale", type=float, default=0.005,
                   help="per-step position noise of good samples (m)")
    p.add_argument("--hallucination-prob", type=float, default=0.2)
    p.add_argument("--hallucination-offset", type=float, default=0.2,
                   help="displacement magnitude of a hallucinated sample (m)")
    p.add_argument("--hallucination-mode", choices=("offset", "random-walk"),
                   default="offset")


def _fit_config(args, seed) -> FitConfig:
    return FitConfig(
        hidden=tuple(args.hidden),
        nu=_parse_nu(args.nu),
        batch_size=args.batch_size,
        steps=args.fit_steps,
        learning_rate=args.fit_lr,
        seed=seed,
    )


def _oracle_config(args, seed) -> SyntheticOracleConfig:
    return SyntheticOracleConfig(
        seed=seed,
        task_shape=args.task_shape,
        noise_scale=args.noise_scale,
        hallucination_prob=args.hallucination_prob,
        hallucination_offset=args.hallucination_offset,
        hallucination_mode=args.hallucination_mode,
    )


def _policy_config(args, oracle) -> PolicyConfig:
    remote = None
    if args.backend == "remote":
        if not args.endpoint:
            raise _UsageError("--endpoint is required with --backend remote")
        remote = RemoteConfig(
            endpoint=args.endpoint,
            model=args.model,
            temperature=args.temperature,
            timeout_s=args.timeout,
            max_retries=args.max_retries,
        )
    preamble = None
    if args.preamble_file:
        preamble = Path(args.preamble_file).read_text(encoding="utf-8")
    return PolicyConfig(
        backend=args.backend,
        query_count=args.q,
        synthetic=oracle,
        remote=remote,
        preamble=preamble,
        log_queries_path=args.log_queries,
    )


def cmd_aggregate(args) -> int:
    if args.q < 1:
        raise _UsageError(f"--q must be >= 1, got {args.q}")
    seed = args.seed
    oracle = _oracle_config(args, seed)
    policy = _policy_config(args, oracle)
    fit_cfg = _fit_config(args, seed)

    if args.context:
        context = jsonio.load_context(args.context)
        consensus = None
    else:
        context, consensus = make_consensus_task(seed, args.task_shape)

    if args.method == "rip":
        trajectory, report = run_rip(context, policy, fit_cfg)
    elif args.method == "rip_gauss":
        trajectory, report = run_rip_gauss(context, policy, fit_cfg)
    else:
        trajectory = single_sample(context, policy)
        report = None

    out = Path(args.out)
    jsonio.save_trajectory(trajectory, out)
    print(f"wrote {out}")
    if report is not None and args.report:
        payload = report.to_dict()
        payload["output_trajectory_path"] = str(out)
        if consensus is not None:
            payload["consensus_rmse"] = bench.trajectory_rmse(trajectory, consensus)
        jsonio.save_json(payload, args.report)
        print(f"wrote {args.report}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if not args.q_grid or not args.nu_grid:
        raise _UsageError("sweep needs a non-empty --q-grid and --nu-grid")
    if any(q < 1 for q in args.q_grid):
        raise _UsageError("every Q in --q-grid must be >= 1")
    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")
    settings = bench.SweepSettings(
        q_values=tuple(args.q_grid),
        nu_values=tuple(_parse_nu(n) for n in args.nu_grid),
        trials=args.trials,
        master_seed=args.seed,
        oracle=_oracle_config(args, args.seed),
        fit=FitConfig(
            hidden=tuple(args.hidden),
            batch_size=args.batch_size,
            steps=args.fit_steps,
            learning_rate=args.fit_lr,
            seed=args.seed,
        ),
    )
    results = bench.run_sweep(settings, workers=args.workers)
    bench.write_sweep_csv(args.out, results, append=args.append)
    print(f"wrote {args.out}")
    for r in results:
        print(f"  q={r.q} nu={bench._fmt_nu(r.nu)}: success {r.success_rate:.2%}, "
              f"rmse {r.rmse_mean * 1000:.1f} mm over {r.n_trials} trials")
    if args.plot_data:
        _write_plot_data(Path(args.plot_data), results)
    return EXIT_OK


def _write_plot_data(directory: Path, results) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    by_q = directory / "success_vs_q.csv"
    by_nu = directory / "success_vs_nu.csv"
    with open(by_q, "w", encoding="utf-8") as fh:
        fh.write("q,nu,success_rate\n")
        for r in sorted(results, key=lambda r: (r.nu, r.q)):
            fh.write(f"{r.q},{bench._fmt_nu(r.nu)},{r.success_rate:.4f}\n")
    with open(by_nu, "w", encoding="utf-8") as fh:
        fh.write("nu,q,success_rate\n")
        for r in sorted(results, key=lambda r: (r.q, r.nu)):
            fh.write(f"{bench._fmt_nu(r.nu)},{r.q},{r.success_rate:.4f}\n")
    print(f"wrote {by_q} and {by_nu}")


def cmd_downsample_bench(args) -> int:
    if args.seeds < 1:
        raise _UsageError("--seeds must be >= 1")
    settings = bench.DownsampleBenchSettings(
        n_seeds=args.seeds,
        master_seed=args.seed,
        target_len=args.target_len,
        query_count=args.q,
        oracle=replace(
            bench.DownsampleBenchSettings().oracle,
            noise_scale=args.noise_scale,
            hallucination_prob=args.hallucination_prob,
            hallucination_offset=args.hallucination_offset,
        ),
        fit=FitConfig(steps=args.fit_steps, learning_rate=args.fit_lr, seed=args.seed),
    )
    rows = bench.run_downsample_bench(settings, workers=args.workers)
    bench.write_downsample_csv(args.out, rows, append=args.append)
    rates = bench.downsample_success_rates(rows)
    print(f"wrote {args.out}")
    for method, rate in rates.items():
        print(f"  {method}: success {rate:.2%} over {args.seeds} seeds")
    if args.plot_data:
        directory = Path(args.plot_data)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "success_vs_method.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("method,success_rate\n")
            for method in bench.DOWNSAMPLE_METHODS:
                fh.write(f"{method},{rates[method]:.4f}\n")
        print(f"wrote {path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    nus = (_parse_nu(args.nu),) if args.nu else (1.25, 1.5, 3.0, math.inf)
    worst = gradient_check(seed=args.seed, n_configs=args.configs, nus=nus)
    print(f"max relative gradient error over {args.configs} configs: {worst:.3e}")
    if worst > args.tolerance:
        print(f"FAIL: exceeds tolerance {args.tolerance:g}", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_preprocess(args) -> int:
    payload = jsonio.load_json(args.input)
    trajectory = jsonio.trajectory_from_dict(payload)
    from .downsample import downsample, uniform_downsample

    thin = downsample if args.mode == "g-based" else uniform_downsample
    result = thin(trajectory, args.target_len)
    out_payload = jsonio.trajectory_to_dict(result)
    if "keypoints" in payload:
        out_payload["keypoints"] = payload["keypoints"]
    jsonio.save_json(out_payload, args.out)
    print(f"wrote {args.out} ({len(trajectory)} -> {len(result)} steps)")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="rip-bench", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aggregate", help="run one aggregation and write the trajectory")
    p.add_argument("--method", choices=("rip", "rip_gauss", "single_sample"), default="rip")
    p.add_argument("--backend", choices=("synthetic", "remote"), default="synthetic")
    p.add_argument("--q", type=int, default=5, help="number of policy queries")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--context", help="context JSON path (default: generate a synthetic task)")
    p.add_argument("--out", default="trajectory.json")
    p.add_argument("--report", default="report.json")
    p.add_argument("--endpoint", help="remote completion endpoint URL")
    p.add_argument("--model", default="instant-policy")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--max-retries", type=int, default=2)
    p.add_argument("--preamble-file", help="override the built-in prompt preamble")
    p.add_argument("--log-queries", help="JSONL audit log for remote queries")
    _add_fit_flags(p)
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("sweep", help="success-rate grid over Q and nu")
    p.add_argument("--q-grid", type=int, nargs="+", default=[2, 3, 5, 10])
    p.add_argument("--nu-grid", type=str, nargs="+", default=["1.5"])
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--append", action="store_true", help="append rows, keep existing header")
    p.add_argument("--plot-data", help="directory for per-figure data files")
    p.add_argument("--fit-steps", type=int, default=3000)
    p.add_argument("--fit-lr", type=float, default=1e-2)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--hidden", type=int, nargs=2, default=[64, 64], metavar=("H1", "H2"))
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("downsample-bench",
                       help="mask-based vs uniform demonstration thinning")
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--q", type=int, default=5)
    p.add_argument("--target-len", type=int, default=30)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="downsample_bench.csv")
    p.add_argument("--append", action="store_true")
    p.add_argument("--plot-data", help="directory for per-figure data files")
    p.add_argument("--noise-scale", type=float, default=0.003)
    p.add_argument("--hallucination-prob", type=float, default=0.1)
    p.add_argument("--hallucination-offset", type=float, default=0.2)
    p.add_argument("--fit-steps", type=int, default=3000)
    p.add_argument("--fit-lr", type=float, default=1e-2)
    p.set_defaults(func=cmd_downsample_bench)

    p = sub.add_parser("gradcheck", help="finite-difference audit of the gradient")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--configs", type=int, default=20)
    p.add_argument("--nu", type=str, default="", help="restrict to one nu (or 'inf')")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("preprocess", help="downsample a trajectory JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target-len", type=int, default=30)
    p.add_argument("--mode", choices=("g-based", "uniform"), default="g-based")
    p.set_defaults(func=cmd_preprocess)

    return parser


def _apply_config_file(argv, parser):
    """--config FILE supplies defaults; explicit flags still win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise _UsageError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    try:
        values = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(values, dict):
        raise _UsageError(f"config file {path} must hold a JSON object")
    extra = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if flag in rest:
            continue  # explicit flag overrides the file
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        elif isinstance(value, list):
            extra.append(flag)
            extra.extend(str(v) for v in value)
        else:
            extra.extend([flag, str(value)])
    # Insert config-derived flags right after the subcommand.
    if rest and not rest[0].startswith("-"):
        return [rest[0]] + extra + rest[1:]
    return extra + rest


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv, parser)
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
