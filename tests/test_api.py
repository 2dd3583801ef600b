import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import rip
from rip.bench import task_success

try:  # Python 3.11+
    from re import _constants as sre_constants, _parser as sre_parse
except ImportError:  # Python 3.10
    import sre_constants
    import sre_parse


def test_exports_are_unique_and_resolve():
    assert len(set(rip.__all__)) == len(rip.__all__)
    for name in rip.__all__:
        assert getattr(rip, name) is not None, name


def test_per_step_and_pair_types_are_gone():
    # A step is a row of a trajectory's array; a demonstration is a
    # (KeypointSet, Trajectory) pair.
    for name in ("Action", "Demonstration"):
        assert name not in rip.__all__
        assert not hasattr(rip, name)
        assert not hasattr(rip.core, name)


def test_second_names_are_gone():
    # The Gaussian ablation is run_rip with nu=inf, and a fit returns
    # its loss curve as a plain list.
    assert "run_rip_gauss" not in rip.__all__
    assert not hasattr(rip, "run_rip_gauss")
    assert not hasattr(rip.pipeline, "run_rip_gauss")
    assert not hasattr(rip.FitConfig, "gaussian")
    assert not hasattr(rip.estimator, "FitTrace")


def test_estimator_stores_each_fact_once():
    # A fitted estimator has no file format. Its variance floor is the
    # constant VAR_FLOOR, and its channel count is read off its arrays.
    fields = {f.name for f in dataclasses.fields(rip.StudentTEstimator)}
    assert not fields & {"n_channels", "var_floor"}
    assert isinstance(rip.StudentTEstimator.n_channels, property)
    for name in ("to_dict", "from_dict", "SCHEMA_VERSION"):
        assert not hasattr(rip.StudentTEstimator, name)
    # The flat vector theta is the one view of the parameters.
    assert not hasattr(rip.StudentTEstimator, "params")
    assert not hasattr(rip.estimator, "PARAM_KEYS")


def test_readme_quick_start_runs(capsys):
    # README's Python quick start, run as written: every sample decodes,
    # it prints the slot count and the final loss, and the aggregate
    # solves the task.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Quick start\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    report = names["report"]
    assert capsys.readouterr().out == f"Counter({{'ok': 5}}) {report.final_loss}\n"
    assert task_success(names["trajectory"], names["consensus"])["success"]


def test_sources_parse_under_the_oldest_supported_python():
    # pyproject.toml allows Python 3.10. The parser rejects the 3.11-only
    # grammar it knows (e.g. except*); regex syntax and library calls are
    # not covered.
    for path in sorted(Path(rip.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def _opcodes(node):
    """Every opcode in a parsed pattern, nested groups and branches included."""
    if isinstance(node, sre_parse.SubPattern):
        for op, arg in node:
            yield op
            yield from _opcodes(arg)
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _opcodes(item)


def test_patterns_avoid_311_only_regex_syntax():
    # Possessive quantifiers and atomic groups compile only from Python 3.11
    # on, and the 3.10 grammar check above cannot see inside a pattern.
    banned = {getattr(sre_constants, name, None) for name in ("POSSESSIVE_REPEAT", "ATOMIC_GROUP")}
    banned.discard(None)
    patterns = []
    for info in pkgutil.iter_modules(rip.__path__):
        module = importlib.import_module(f"rip.{info.name}")
        patterns += [v for v in vars(module).values() if isinstance(v, re.Pattern)]
    assert patterns
    for pattern in patterns:
        ops = set(_opcodes(sre_parse.parse(pattern.pattern, pattern.flags)))
        assert not ops & banned, pattern.pattern
