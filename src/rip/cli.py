"""Benchmark CLI: aggregation runs, design sweeps, and verification.

Subcommands:
    aggregate         run rip (nu = inf: rip_gauss) or single_sample on a context
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
from .pipeline import run_rip, single_sample
from .policy import (
    PolicyConfig,
    RemoteConfig,
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


def _checked(kind, ok, rule: str):
    """A ``type=`` parser: ``kind(text)``, which must pass ``ok``. Text that
    does not parse gets the ``rule`` message too; on a bare ValueError,
    argparse would print the parser's private name."""
    def parse(text: str):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
    return parse


# float() also reads 'inf' and 'infinity'; nan fails every comparison, so
# it is no nu and no tolerance (no error could exceed it).
_parse_nu = _checked(float, lambda v: v > 0, "nu must be a positive number or 'inf'")
_parse_count = _checked(int, lambda v: v >= 1, "must be an integer >= 1")
_parse_seed = _checked(int, lambda v: v >= 0, "seed must be an integer >= 0")
_parse_target_len = _checked(int, lambda v: v >= 2, "target length must be an integer >= 2")
_parse_tolerance = _checked(float, lambda v: 0 < v < math.inf,
                            "tolerance must be a finite positive number")


# Flags that set a config field, as flag: (field, add_argument keywords).
# They have no default of their own: a command starts from the library's
# config and replaces the fields whose flags were given.
_FIT_FLAGS = {
    "--nu": ("nu", dict(type=_parse_nu, help="degrees of freedom, or 'inf'")),
    "--fit-steps": ("steps", dict(type=int)),
    "--fit-lr": ("learning_rate", dict(type=float)),
    "--hidden": ("hidden", dict(type=int, nargs=2, metavar=("H1", "H2"))),
}
_ORACLE_FLAGS = {
    "--task-shape": ("task_shape", dict(choices=TASK_SHAPES)),
    "--noise-scale": ("noise_scale", dict(
        type=float, help="per-step position noise of good samples (m)")),
    "--hallucination-prob": ("hallucination_prob", dict(type=float)),
    "--hallucination-offset": ("hallucination_offset", dict(
        type=float, help="displacement magnitude of a hallucinated sample (m)")),
    "--hallucination-mode": ("hallucination_mode", dict(choices=("offset", "random-walk"))),
}
_POLICY_FLAGS = {
    "--backend": ("backend", dict(choices=("synthetic", "remote"))),
    "--q": ("query_count", dict(type=int, help="number of policy queries")),
}
_REMOTE_FLAGS = {
    "--model": ("model", {}),
    "--temperature": ("temperature", dict(type=float)),
    "--timeout": ("timeout_s", dict(type=float)),
    "--max-retries": ("max_retries", dict(type=int)),
}
_SWEEP_FLAGS = {
    "--q-grid": ("q_values", dict(type=int, nargs="+")),
    "--nu-grid": ("nu_values", dict(type=_parse_nu, nargs="+")),
    "--trials": ("trials", dict(type=int)),
    "--seed": ("master_seed", dict(type=int)),
}
_DOWNSAMPLE_FLAGS = {
    "--seeds": ("n_seeds", dict(type=int)),
    "--seed": ("master_seed", dict(type=int, help="master seed")),
    "--q": ("query_count", dict(type=int)),
    "--target-len": ("target_len", dict(type=int)),
}


def _add_flags(parser, table, *flags):
    """Add the named flags of ``table``, or all of them, with no default."""
    for flag in flags or table:
        parser.add_argument(flag, default=argparse.SUPPRESS, **table[flag][1])


def _given(args, flags) -> list:
    """The flags among ``flags`` that were given, in order."""
    given = vars(args)
    return [flag for flag in flags if given.get(flag[2:].replace("-", "_")) is not None]


def _config(base, args, table, **fixed):
    """``base`` with the fields of the ``table`` flags given in ``args``,
    then ``fixed``. A value the config rejects is a usage error."""
    given = vars(args)
    changes = {}
    for flag, (field, _) in table.items():
        value = given.get(flag[2:].replace("-", "_"))
        if value is not None:
            changes[field] = tuple(value) if isinstance(value, list) else value
    try:
        return replace(base, **changes, **fixed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _bench_settings(base, args, table):
    """Sweep or downsample-bench settings, with their oracle and fit configs."""
    return _config(base, args, table,
                   oracle=_config(base.oracle, args, _ORACLE_FLAGS),
                   fit=_config(base.fit, args, _FIT_FLAGS))


def _policy_config(args, oracle) -> PolicyConfig:
    remote = None
    if vars(args).get("backend") == "remote":
        if not args.endpoint:
            raise _UsageError("--endpoint is required with --backend remote")
        remote = _config(RemoteConfig(args.endpoint), args, _REMOTE_FLAGS)
    else:
        ignored = _given(args, ("--endpoint", *_REMOTE_FLAGS))
        if ignored:
            raise _UsageError(f"{', '.join(ignored)} need --backend remote")
    preamble = None
    if args.preamble_file:
        preamble = Path(args.preamble_file).read_text(encoding="utf-8")
    return _config(PolicyConfig(), args, _POLICY_FLAGS, synthetic=oracle, remote=remote,
                   preamble=preamble, log_queries_path=args.log_queries)


def cmd_aggregate(args) -> int:
    seed = args.seed
    if args.method == "single_sample":
        # One raw query, no fit: a query count or a fit setting would do nothing.
        ignored = _given(args, (*_FIT_FLAGS, "--q"))
        if ignored:
            raise _UsageError(f"--method single_sample takes no {', '.join(ignored)}")
    # One aggregation on the sweep's task, by default.
    oracle = _config(bench.SweepSettings().oracle, args, _ORACLE_FLAGS, seed=seed)
    policy = _policy_config(args, oracle)
    fit_cfg = _config(FitConfig(), args, _FIT_FLAGS, seed=seed)

    if args.context:
        context = jsonio.load_context(args.context)
        consensus = None
    else:
        context, consensus = make_consensus_task(seed, oracle.task_shape)

    if args.method == "rip":
        trajectory, report = run_rip(context, policy, fit_cfg)
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


def _write_plot_data(path: Path, header: str, rows) -> Path:
    """One plot-data file: the header, then one comma-joined line per row."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)
    return path


def cmd_sweep(args) -> int:
    settings = _bench_settings(bench.SweepSettings(), args, _SWEEP_FLAGS)
    results = bench.run_sweep(settings, workers=args.workers)
    bench.write_sweep_csv(args.out, results, append=args.append)
    print(f"wrote {args.out}")
    for r in results:
        print(f"  q={r.q} nu={bench._fmt_nu(r.nu)}: success {r.success_rate:.2%}, "
              f"rmse {r.rmse_mean * 1000:.1f} mm over {r.n_trials} trials")
    if args.plot_data:
        plots = Path(args.plot_data)
        by_q = _write_plot_data(plots / "success_vs_q.csv", "q,nu,success_rate", (
            (r.q, bench._fmt_nu(r.nu), f"{r.success_rate:.4f}")
            for r in sorted(results, key=lambda r: (r.nu, r.q))))
        by_nu = _write_plot_data(plots / "success_vs_nu.csv", "nu,q,success_rate", (
            (bench._fmt_nu(r.nu), r.q, f"{r.success_rate:.4f}")
            for r in sorted(results, key=lambda r: (r.q, r.nu))))
        print(f"wrote {by_q} and {by_nu}")
    return EXIT_OK


def cmd_downsample_bench(args) -> int:
    settings = _bench_settings(bench.DownsampleBenchSettings(), args, _DOWNSAMPLE_FLAGS)
    rows = bench.run_downsample_bench(settings, workers=args.workers)
    bench.write_downsample_csv(args.out, rows, append=args.append)
    rates = bench.downsample_success_rates(rows)
    print(f"wrote {args.out}")
    for method, rate in rates.items():
        print(f"  {method}: success {rate:.2%} over {settings.n_seeds} seeds")
    if args.plot_data:
        path = _write_plot_data(Path(args.plot_data) / "success_vs_method.csv",
                                "method,success_rate",
                                ((m, f"{rates[m]:.4f}") for m in bench.DOWNSAMPLE_METHODS))
        print(f"wrote {path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    nus = (args.nu,) if args.nu else (1.25, 1.5, 3.0, math.inf)
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
    jsonio.save_json(jsonio.with_actions(payload, result), args.out)
    print(f"wrote {args.out} ({len(trajectory)} -> {len(result)} steps)")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="rip-bench", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aggregate", help="run one aggregation and write the trajectory")
    p.add_argument("--method", choices=("rip", "single_sample"), default="rip")
    _add_flags(p, _POLICY_FLAGS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--context", help="context JSON path (default: generate a synthetic task)")
    p.add_argument("--out", default="trajectory.json")
    p.add_argument("--report", default="report.json")
    p.add_argument("--endpoint", help="remote completion endpoint URL")
    _add_flags(p, _REMOTE_FLAGS)
    p.add_argument("--preamble-file", help="override the built-in prompt preamble")
    p.add_argument("--log-queries", help="JSONL audit log for remote queries")
    _add_flags(p, _FIT_FLAGS)
    _add_flags(p, _ORACLE_FLAGS)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("sweep", help="success-rate grid over Q and nu")
    _add_flags(p, _SWEEP_FLAGS)
    p.add_argument("--workers", type=_parse_count, default=1)
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--append", action="store_true", help="append rows, keep existing header")
    p.add_argument("--plot-data", help="directory for per-figure data files")
    _add_flags(p, _FIT_FLAGS, "--fit-steps", "--fit-lr", "--hidden")
    _add_flags(p, _ORACLE_FLAGS)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("downsample-bench",
                       help="mask-based vs uniform demonstration thinning")
    _add_flags(p, _DOWNSAMPLE_FLAGS)
    p.add_argument("--workers", type=_parse_count, default=1)
    p.add_argument("--out", default="downsample_bench.csv")
    p.add_argument("--append", action="store_true")
    p.add_argument("--plot-data", help="directory for per-figure data files")
    _add_flags(p, _ORACLE_FLAGS, "--noise-scale", "--hallucination-prob", "--hallucination-offset")
    _add_flags(p, _FIT_FLAGS, "--fit-steps", "--fit-lr")
    p.set_defaults(func=cmd_downsample_bench)

    p = sub.add_parser("gradcheck", help="finite-difference audit of the gradient")
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--configs", type=_parse_count, default=20)
    p.add_argument("--nu", type=_parse_nu, help="restrict to one nu (or 'inf')")
    p.add_argument("--tolerance", type=_parse_tolerance, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("preprocess", help="downsample a trajectory JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target-len", type=_parse_target_len, default=30)
    p.add_argument("--mode", choices=("g-based", "uniform"), default="g-based")
    p.set_defaults(func=cmd_preprocess)

    return parser


def _apply_config_file(argv):
    """--config FILE supplies flag values. They go in before the flags given
    on the command line, and argparse keeps the last value, so those win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise _UsageError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    try:
        values = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8, not JSON
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(values, dict):
        raise _UsageError(f"config file {path} must hold a JSON object")
    extra = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
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
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RipError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
