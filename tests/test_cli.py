import argparse
import dataclasses
import json
import math
import shlex
from pathlib import Path

import pytest

from rip import bench, jsonio
from rip.cli import EXIT_OK, EXIT_RUNTIME, EXIT_THRESHOLD, EXIT_USAGE, build_parser, main
from rip.estimator import ANNEAL_STEPS, FitConfig
from rip.policy import PolicyConfig, RemoteConfig, SyntheticOracleConfig


def run(argv):
    return main(argv)


# Nesting deeper than the json parser's recursion limit.
DEEP_JSON = b"[" * 100_000


class TestAggregate:
    def test_deterministic_output(self, tmp_path):
        args = ["aggregate", "--method", "rip", "--backend", "synthetic",
                "--seed", "7", "--q", "5", "--nu", "1.5",
                "--fit-steps", "600", "--noise-scale", "0.003"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--out", str(a), "--report", str(tmp_path / "ra.json")]) == EXIT_OK
        assert run(args + ["--out", str(b), "--report", str(tmp_path / "rb.json")]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_zero_queries_is_usage_error(self, tmp_path):
        assert run(["aggregate", "--q", "0", "--out", str(tmp_path / "t.json")]) == EXIT_USAGE

    def test_rip_gauss_is_no_method(self, tmp_path):
        # The Gaussian ablation is --nu inf, not a method of its own.
        assert run(["aggregate", "--method", "rip_gauss",
                    "--out", str(tmp_path / "t.json")]) == EXIT_USAGE

    def test_infinite_nu_reports_rip_gauss(self, tmp_path):
        report = tmp_path / "r.json"
        assert run(["aggregate", "--method", "rip", "--nu", "inf", "--backend", "synthetic",
                    "--seed", "3", "--q", "4", "--fit-steps", "600", "--noise-scale", "0.003",
                    "--out", str(tmp_path / "t.json"), "--report", str(report)]) == EXIT_OK
        assert json.loads(report.read_text())["method"] == "rip_gauss"

    def test_single_sample_method(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["aggregate", "--method", "single_sample", "--seed", "1",
                    "--out", str(out)]) == EXIT_OK
        assert len(jsonio.load_trajectory(out)) >= 2

    def test_context_file_input(self, tmp_path):
        from rip.policy import make_consensus_task

        ctx, _ = make_consensus_task(5, "reach")
        ctx_path = tmp_path / "ctx.json"
        jsonio.save_context(ctx, ctx_path)
        out = tmp_path / "t.json"
        assert run(["aggregate", "--context", str(ctx_path), "--task-shape", "reach",
                    "--seed", "5", "--fit-steps", "500", "--out", str(out),
                    "--report", str(tmp_path / "r.json")]) == EXIT_OK

    def test_remote_requires_endpoint(self, tmp_path):
        assert run(["aggregate", "--backend", "remote",
                    "--out", str(tmp_path / "t.json")]) == EXIT_USAGE

    # Flags only the remote backend reads are usage errors on the synthetic
    # backend, named or by default, and the command writes nothing.
    @pytest.mark.parametrize("flag, value", [
        ("--endpoint", "http://127.0.0.1:9/v1"), ("--model", "m2"), ("--temperature", "0.5"),
        ("--timeout", "7.5"), ("--max-retries", "4"), ("--preamble-file", "preamble.txt"),
        ("--log-queries", "queries.jsonl"),
    ])
    @pytest.mark.parametrize("backend", [[], ["--backend", "synthetic"]],
                             ids=["default-backend", "synthetic"])
    def test_remote_only_flags_refused_on_synthetic(self, tmp_path, flag, value, backend):
        (tmp_path / "preamble.txt").write_text("PREAMBLE", encoding="utf-8")
        if flag in ("--preamble-file", "--log-queries"):
            value = str(tmp_path / value)
        out = tmp_path / "t.json"
        assert run(["aggregate", "--q", "2", "--fit-steps", "50", "--out", str(out),
                    "--report", str(tmp_path / "r.json"), flag, value, *backend]) == EXIT_USAGE
        assert sorted(p.name for p in tmp_path.iterdir()) == ["preamble.txt"]

    # The remote policy makes its own samples, so the synthetic oracle's
    # settings are usage errors with --backend remote, refused before any
    # query is posted. --task-shape stays: it shapes the generated context.
    @pytest.mark.parametrize("flag, value", [
        ("--noise-scale", "0.01"), ("--hallucination-prob", "0.4"),
        ("--hallucination-offset", "0.3"), ("--hallucination-mode", "random-walk"),
    ])
    def test_synthetic_only_flags_refused_on_remote(self, tmp_path, monkeypatch, flag, value):
        posts = []

        def post(*args):
            posts.append(args)
            raise OSError("no endpoint in tests")

        monkeypatch.setattr("rip.policy._default_post", post)
        assert run(["aggregate", "--backend", "remote", "--endpoint", "http://127.0.0.1:9/v1",
                    "--q", "2", "--out", str(tmp_path / "t.json"),
                    "--report", str(tmp_path / "r.json"), flag, value]) == EXIT_USAGE
        assert posts == [] and list(tmp_path.iterdir()) == []

    def test_report_refused_with_single_sample(self, tmp_path, capsys):
        # single_sample writes no report, so a report path is a usage error.
        assert run(["aggregate", "--method", "single_sample", "--seed", "1",
                    "--out", str(tmp_path / "t.json"),
                    "--report", str(tmp_path / "r.json")]) == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []
        assert "takes no --report" in capsys.readouterr().err

    def test_report_written_by_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["aggregate", "--q", "2", "--fit-steps", "50", "--out", "t.json"]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "t.json"]

    # single_sample asks once and fits nothing, so a query count or a fit
    # setting is a usage error, and the command writes nothing.
    @pytest.mark.parametrize("flag", [
        ["--nu", "3"], ["--fit-steps", "50"], ["--fit-lr", "0.1"], ["--hidden", "8", "8"],
        ["--q", "3"],
    ], ids=lambda flag: flag[0])
    def test_fit_flags_refused_with_single_sample(self, tmp_path, flag, capsys):
        out = tmp_path / "t.json"
        assert run(["aggregate", "--method", "single_sample", "--seed", "1",
                    "--out", str(out), *flag]) == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []
        assert f"takes no {flag[0]}" in capsys.readouterr().err

    def test_deeply_nested_context_is_runtime_error(self, tmp_path):
        ctx = tmp_path / "ctx.json"
        ctx.write_bytes(DEEP_JSON)
        assert run(["aggregate", "--context", str(ctx),
                    "--out", str(tmp_path / "t.json")]) == EXIT_RUNTIME


class TestSweep:
    def test_smoke(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--q-grid", "2", "--nu-grid", "1.5", "--trials", "2",
                    "--fit-steps", "300", "--task-shape", "reach",
                    "--hallucination-prob", "0", "--seed", "0", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().startswith("q,nu,success_rate")

    def test_bad_q_grid(self, tmp_path):
        assert run(["sweep", "--q-grid", "0", "--out", str(tmp_path / "s.csv")]) == EXIT_USAGE

    def test_missing_grid_value_is_usage_error(self, tmp_path):
        assert run(["sweep", "--q-grid", "--out", str(tmp_path / "s.csv")]) == EXIT_USAGE

    def test_plot_data_files(self, tmp_path):
        out = tmp_path / "sweep.csv"
        plots = tmp_path / "plots"
        code = run(["sweep", "--q-grid", "2", "--nu-grid", "1.5", "inf",
                    "--trials", "1", "--fit-steps", "300", "--task-shape", "reach",
                    "--hallucination-prob", "0", "--out", str(out),
                    "--plot-data", str(plots)])
        assert code == EXIT_OK
        assert (plots / "success_vs_q.csv").exists()
        assert (plots / "success_vs_nu.csv").exists()


class TestDownsampleBench:
    def test_smoke(self, tmp_path):
        out = tmp_path / "ds.csv"
        code = run(["downsample-bench", "--seeds", "2", "--fit-steps", "300",
                    "--hallucination-prob", "0", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().startswith("method,seed,success")

    def test_plot_data_file(self, tmp_path):
        plots = tmp_path / "plots"
        code = run(["downsample-bench", "--seeds", "1", "--fit-steps", "50",
                    "--hallucination-prob", "0", "--out", str(tmp_path / "ds.csv"),
                    "--plot-data", str(plots)])
        assert code == EXIT_OK
        lines = (plots / "success_vs_method.csv").read_text().splitlines()
        assert lines[0] == "method,success_rate"
        assert [line.split(",")[0] for line in lines[1:]] == list(bench.DOWNSAMPLE_METHODS)


class TestGradcheck:
    def test_passes_at_default_tolerance(self):
        assert run(["gradcheck", "--configs", "4"]) == EXIT_OK

    def test_gaussian_only_mode(self):
        assert run(["gradcheck", "--configs", "3", "--nu", "inf"]) == EXIT_OK

    def test_threshold_breach_exit_code(self):
        assert run(["gradcheck", "--configs", "3", "--tolerance", "1e-12"]) == EXIT_THRESHOLD


class TestPreprocess:
    def test_downsamples_file(self, tmp_path):
        from conftest import line_trajectory

        g = [0] * 60 + [1] * 60
        tr = line_trajectory(120, g=g)
        src = tmp_path / "in.json"
        jsonio.save_trajectory(tr, src)
        out = tmp_path / "out.json"
        assert run(["preprocess", "--input", str(src), "--out", str(out),
                    "--target-len", "30"]) == EXIT_OK
        thin = jsonio.load_trajectory(out)
        assert len(thin) == 30
        assert thin.gripper_states().count(1) >= 1

    def test_uniform_mode(self, tmp_path):
        from conftest import line_trajectory

        tr = line_trajectory(100)
        src = tmp_path / "in.json"
        jsonio.save_trajectory(tr, src)
        out = tmp_path / "out.json"
        assert run(["preprocess", "--input", str(src), "--out", str(out),
                    "--mode", "uniform", "--target-len", "20"]) == EXIT_OK
        assert len(jsonio.load_trajectory(out)) == 20

    def demo_file(self, tmp_path, keypoints):
        from conftest import line_trajectory

        src = tmp_path / "in.json"
        demo = {**jsonio.trajectory_to_dict(line_trajectory(40)), "keypoints": keypoints}
        jsonio.save_json(demo, src)
        return ["preprocess", "--input", str(src), "--out", str(tmp_path / "out.json"),
                "--target-len", "20"]

    def test_demonstration_keeps_its_keypoints_as_written(self, tmp_path):
        assert run(self.demo_file(tmp_path, [[1, 0, -0.5], [0, 2, 3]])) == EXIT_OK
        out = jsonio.load_json(tmp_path / "out.json")
        assert out["keypoints"] == [[1, 0, -0.5], [0, 2, 3]]
        assert isinstance(out["keypoints"][0][0], int)
        assert len(jsonio.trajectory_from_dict(out)) == 20

    @pytest.mark.parametrize("keypoints", ["garbage", 5, [["a", "b", "c"]], [], [[1, 2]],
                                           [[float("inf"), 0, 0]], None])
    def test_bad_demonstration_keypoints_write_nothing(self, tmp_path, keypoints):
        # The written file could not be loaded as a context's demonstration.
        assert run(self.demo_file(tmp_path, keypoints)) == EXIT_RUNTIME
        assert not (tmp_path / "out.json").exists()

    def test_missing_input_is_runtime_error(self, tmp_path):
        assert run(["preprocess", "--input", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "o.json")]) == 2

    def test_deeply_nested_input_is_runtime_error(self, tmp_path):
        src = tmp_path / "in.json"
        src.write_bytes(DEEP_JSON)
        assert run(["preprocess", "--input", str(src),
                    "--out", str(tmp_path / "o.json")]) == EXIT_RUNTIME


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"configs": 3, "tolerance": 1e-3}))
        assert run(["gradcheck", "--config", str(cfg)]) == EXIT_OK

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerance": 1e-12, "configs": 3}))
        # explicit flag wins over the file's impossible tolerance
        assert run(["gradcheck", "--config", str(cfg), "--tolerance", "1e-3"]) == EXIT_OK
        # without the override the file value forces a breach
        assert run(["gradcheck", "--config", str(cfg)]) == EXIT_THRESHOLD

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        assert run(["gradcheck", "--config", str(cfg)]) == EXIT_USAGE
        assert run(["gradcheck", "--config"]) == EXIT_USAGE

    @pytest.mark.parametrize("append", [True, False])
    def test_bool_value_is_a_bare_flag(self, tmp_path, append):
        # true adds --append and false adds nothing, so a second run
        # appends its rows or rewrites the file.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"append": append, "seeds": 1, "fit_steps": 50,
                                   "hallucination_prob": 0}))
        out = tmp_path / "ds.csv"
        argv = ["downsample-bench", "--config", str(cfg), "--out", str(out)]
        assert run(argv) == EXIT_OK
        once = out.read_text().splitlines()
        assert run(argv) == EXIT_OK
        twice = out.read_text().splitlines()
        assert twice == (once + once[1:] if append else once)

    def test_config_without_a_subcommand_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"configs": 3}))
        assert run(["--config", str(cfg)]) == EXIT_USAGE

    @pytest.mark.parametrize("content", [DEEP_JSON, b'{"configs": "\xff"}'],
                             ids=["nested-too-deep", "not-utf8"])
    def test_unparsable_config_is_usage_error(self, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert run(["gradcheck", "--config", str(cfg)]) == EXIT_USAGE


def readme_commands():
    """The arguments of each ``rip-bench`` command in README's CLI block,
    with continuation lines joined and comments stripped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = (line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines())
    return [shlex.split(line)[1:] for line in lines if line.startswith("rip-bench ")]


class TestParser:
    def test_unknown_command_is_usage_error(self):
        assert run(["fly-to-the-moon"]) == EXIT_USAGE

    def test_readme_commands_parse(self):
        # Parsed, not run: the documented commands name no removed flag
        # or choice.
        commands = readme_commands()
        assert [argv[0] for argv in commands] == [
            "aggregate", "aggregate", "sweep", "downsample-bench", "gradcheck", "preprocess"]
        for argv in commands:
            build_parser().parse_args(argv)

    def test_fit_steps_help_names_the_horizon(self):
        # Every command that fits says that a cap above the annealing
        # horizon trains only the horizon's steps.
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        helps = {name: a.help for name, p in sub.choices.items()
                 for a in p._actions if "--fit-steps" in a.option_strings}
        assert set(helps) == {"aggregate", "sweep", "downsample-bench"}
        assert set(helps.values()) == {f"step cap: a fit runs min(N, {ANNEAL_STEPS}) steps"}

    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys):
        # Values refused by argparse and values refused by a config exit
        # alike, whether they come from a flag or from --config, and the
        # message never names a private parser.
        from conftest import line_trajectory

        out = ["--out", str(tmp_path / "out")]
        aggregate = ["aggregate", "--report", str(tmp_path / "report")] + out
        remote = aggregate + ["--backend", "remote", "--endpoint", "http://127.0.0.1:9/v1"]
        sweep, downsample = ["sweep"] + out, ["downsample-bench"] + out
        # Small runs, so a --workers value that slipped through ends fast.
        tiny_sweep = sweep + ["--q-grid", "1", "--trials", "1", "--fit-steps", "1"]
        tiny_downsample = downsample + ["--seeds", "1", "--fit-steps", "1"]
        src = tmp_path / "in.json"
        jsonio.save_trajectory(line_trajectory(40), src)
        preprocess = ["preprocess", "--input", str(src)] + out
        cases = [
            (aggregate, "q", "many"),
            (aggregate, "q", 0),
            (aggregate, "nu", 0),
            (aggregate, "nu", "abc"),
            (aggregate, "nu", "nan"),
            (aggregate, "fit_steps", 0),
            (aggregate, "fit_lr", "nan"),
            (aggregate, "fit_lr", "inf"),
            (aggregate, "hidden", [0, 4]),
            (aggregate, "hallucination_prob", 2),
            (aggregate, "noise_scale", "nan"),
            (aggregate, "hallucination_offset", "inf"),
            (remote, "temperature", "nan"),
            (remote, "timeout", -1),
            (sweep, "q_grid", [0]),
            (sweep, "nu_grid", ["abc"]),
            (sweep, "trials", 0),
            (sweep, "fit_lr", "inf"),
            (downsample, "q", 0),
            (downsample, "seeds", 0),
            (downsample, "noise_scale", "nan"),
            (["gradcheck"], "nu", ""),
            (["gradcheck"], "configs", 0),
            (["gradcheck"], "configs", -2),
            (["gradcheck"], "configs", "abc"),
            (["gradcheck"], "tolerance", "nan"),
            (["gradcheck"], "tolerance", "inf"),
            (["gradcheck"], "tolerance", 0),
            (["gradcheck"], "tolerance", "abc"),
            (tiny_sweep, "workers", -3),
            (tiny_sweep, "workers", 0),
            (tiny_downsample, "workers", -3),
            (tiny_downsample, "workers", "abc"),
            (aggregate, "seed", -1),
            (tiny_sweep, "seed", -1),
            (tiny_downsample, "seed", -1),
            (["gradcheck", "--configs", "1"], "seed", -1),
            (tiny_downsample, "target_len", 0),
            (tiny_downsample, "target_len", 1),
            (preprocess, "target_len", 0),
            (preprocess, "target_len", 1),
        ]
        failed = []
        for i, (argv, key, value) in enumerate(cases):
            values = value if isinstance(value, list) else [value]
            flag = ["--" + key.replace("_", "-")] + [str(v) for v in values]
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps({key: value}))
            for full in (argv + flag, argv + ["--config", str(cfg)]):
                if run(full) != EXIT_USAGE:
                    failed.append(full)
        assert failed == []
        assert "_parse" not in capsys.readouterr().err


# Each subcommand's options; no flag is added or removed silently.
OPTIONS = {
    "aggregate": {
        "--backend", "--context", "--endpoint", "--fit-lr", "--fit-steps",
        "--hallucination-mode", "--hallucination-offset", "--hallucination-prob", "--hidden",
        "--log-queries", "--max-retries", "--method", "--model", "--noise-scale", "--nu",
        "--out", "--preamble-file", "--q", "--report", "--seed", "--task-shape",
        "--temperature", "--timeout"},
    "sweep": {
        "--append", "--fit-lr", "--fit-steps", "--hallucination-mode",
        "--hallucination-offset", "--hallucination-prob", "--hidden", "--noise-scale",
        "--nu-grid", "--out", "--plot-data", "--q-grid", "--seed", "--task-shape", "--trials",
        "--workers"},
    "downsample-bench": {
        "--append", "--fit-lr", "--fit-steps", "--hallucination-offset",
        "--hallucination-prob", "--noise-scale", "--out", "--plot-data", "--q", "--seed",
        "--seeds", "--target-len", "--workers"},
    "gradcheck": {"--configs", "--nu", "--seed", "--tolerance"},
    "preprocess": {"--input", "--mode", "--out", "--target-len"},
}
# Options that choose what runs or where output goes, not a config field.
NOT_CONFIG = {"--method", "--context", "--out", "--report", "--append", "--plot-data"}


def subcommand_options():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()}


class _Captured(Exception):
    pass


def capture_calls(monkeypatch, target):
    """Replace ``target`` with a stub that records its arguments and stops
    the command before any work is done."""
    calls = []

    def stub(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Captured

    monkeypatch.setattr(target, stub)
    return calls


def flags_in(argv):
    return {a for a in argv if a.startswith("--")}


class TestFlagsReachConfigs:
    # Every flag gets a value other than its default; the configs handed
    # to the library must carry each one.
    FIT = ["--fit-steps", "123", "--fit-lr", "0.02", "--hidden", "8", "12"]
    ORACLE = ["--task-shape", "reach", "--noise-scale", "0.001", "--hallucination-prob", "0.4",
              "--hallucination-offset", "0.3", "--hallucination-mode", "random-walk"]

    def test_option_strings_unchanged(self):
        assert subcommand_options() == OPTIONS

    def test_aggregate(self, monkeypatch, tmp_path):
        # The remote backend takes the remote flags and --task-shape, the
        # synthetic backend the oracle's; together they are every flag.
        calls = capture_calls(monkeypatch, "rip.cli.run_rip")
        preamble = tmp_path / "preamble.txt"
        preamble.write_text("PREAMBLE", encoding="utf-8")
        log = str(tmp_path / "queries.jsonl")
        remote = ["aggregate", "--backend", "remote", "--endpoint", "http://127.0.0.1:9/v1",
                  "--q", "7", "--seed", "3", "--model", "m2", "--temperature", "0.5",
                  "--timeout", "7.5", "--max-retries", "4", "--preamble-file", str(preamble),
                  "--log-queries", log, "--nu", "2.5", "--task-shape", "reach"] + self.FIT
        synthetic = ["aggregate", "--backend", "synthetic", "--seed", "3"] + self.ORACLE
        assert flags_in(remote + synthetic) == OPTIONS["aggregate"] - NOT_CONFIG
        for argv in (remote, synthetic):
            with pytest.raises(_Captured):
                main(argv)
        (_context, policy, fit), _ = calls[0]
        assert fit == FitConfig(hidden=(8, 12), nu=2.5, steps=123,
                                learning_rate=0.02, seed=3)
        sweep_oracle = bench.SweepSettings().oracle
        assert policy == PolicyConfig(
            backend="remote", query_count=7,
            synthetic=dataclasses.replace(sweep_oracle, seed=3, task_shape="reach"),
            remote=RemoteConfig(endpoint="http://127.0.0.1:9/v1", model="m2",
                                temperature=0.5, timeout_s=7.5, max_retries=4),
            preamble="PREAMBLE", log_queries_path=log)
        (_context, policy, _fit), _ = calls[1]
        assert policy == PolicyConfig(
            backend="synthetic", query_count=PolicyConfig().query_count,
            synthetic=dataclasses.replace(
                sweep_oracle, seed=3, task_shape="reach", noise_scale=0.001,
                hallucination_prob=0.4, hallucination_offset=0.3,
                hallucination_mode="random-walk"))

    def test_sweep(self, monkeypatch):
        calls = capture_calls(monkeypatch, "rip.bench.run_sweep")
        argv = ["sweep", "--q-grid", "3", "7", "--nu-grid", "2.5", "inf", "--trials", "4",
                "--seed", "9", "--workers", "3"] + self.FIT + self.ORACLE
        assert flags_in(argv) == OPTIONS["sweep"] - NOT_CONFIG
        with pytest.raises(_Captured):
            main(argv)
        (settings,), kwargs = calls[0]
        assert kwargs == {"workers": 3}
        assert settings == bench.SweepSettings(
            q_values=(3, 7), nu_values=(2.5, math.inf), trials=4, master_seed=9,
            oracle=SyntheticOracleConfig(
                task_shape="reach", noise_scale=0.001, hallucination_prob=0.4,
                hallucination_offset=0.3, hallucination_mode="random-walk"),
            fit=FitConfig(hidden=(8, 12), steps=123, learning_rate=0.02))

    def test_downsample_bench(self, monkeypatch):
        calls = capture_calls(monkeypatch, "rip.bench.run_downsample_bench")
        argv = ["downsample-bench", "--seeds", "6", "--seed", "9", "--q", "7",
                "--target-len", "25", "--workers", "3", "--noise-scale", "0.001",
                "--hallucination-prob", "0.4", "--hallucination-offset", "0.3",
                "--fit-steps", "123", "--fit-lr", "0.02"]
        assert flags_in(argv) == OPTIONS["downsample-bench"] - NOT_CONFIG
        with pytest.raises(_Captured):
            main(argv)
        (settings,), kwargs = calls[0]
        assert kwargs == {"workers": 3}
        assert settings == bench.DownsampleBenchSettings(
            n_seeds=6, master_seed=9, target_len=25, query_count=7,
            oracle=SyntheticOracleConfig(
                noise_scale=0.001, hallucination_prob=0.4, hallucination_offset=0.3,
                length_jitter=(0, 0), follow_context_demo=True),
            fit=FitConfig(steps=123, learning_rate=0.02))
