"""Public names resolve, each is used beyond the tests, and the package
surface the benchmark harness in ``perfbench/`` calls still exists with the
shape it uses."""

import ast
import dataclasses
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracdiff1d
from fracdiff1d import cli, verify
from fracdiff1d.grunwald import DerivativeForm, GridFunction, grunwald_weights
from fracdiff1d.operators import BoundaryCondition, SchemeSpec, build_matrix
from fracdiff1d.timestepper import (
    SolverConfig,
    TimeSeries,
    explicit_step,
    implicit_step,
    run_simulation,
    tent_profile,
)
from support import child_env

MODULES = ["fracdiff1d"] + [f"fracdiff1d.{info.name}"
                            for info in pkgutil.iter_modules(fracdiff1d.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_package_exports_its_modules_names():
    # Every name loads on first access (fracdiff1d.__getattr__), __all__ too.
    from fracdiff1d import diagnostics, errors, grunwald, operators, timestepper

    assert fracdiff1d.__all__ == (diagnostics.__all__ + errors.__all__ + grunwald.__all__
                                  + operators.__all__ + timestepper.__all__)
    assert fracdiff1d.decay_rate is diagnostics.decay_rate
    with pytest.raises(AttributeError, match="no_such_name"):
        fracdiff1d.no_such_name
    for module in (diagnostics, errors, grunwald, operators, timestepper):
        for name in module.__all__:
            assert getattr(fracdiff1d, name) is getattr(module, name), name


def test_a_star_import_binds_exactly_the_public_names():
    names = {}
    exec("from fracdiff1d import *", names)
    assert sorted(set(names) - {"__builtins__"}) == sorted(fracdiff1d.__all__)


# Run in a fresh interpreter, where nothing of the package is loaded yet.
_FRESH_IMPORT = """
import json, sys
import fracdiff1d
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("fracdiff1d."))
from fracdiff1d import verify
print(json.dumps([loaded, fracdiff1d.verify is verify,
                  fracdiff1d.diagnostics.__name__, fracdiff1d.UsageError.__module__]))
"""


def test_importing_the_package_loads_nothing_until_a_name_is_used():
    result = subprocess.run([sys.executable, "-c", _FRESH_IMPORT], env=child_env(),
                            capture_output=True, text=True, check=True)
    loaded, verify_bound, diagnostics, usage_error = json.loads(result.stdout)
    assert loaded == []
    assert verify_bound
    assert diagnostics == "fracdiff1d.diagnostics"
    assert usage_error == "fracdiff1d.errors"


def test_every_public_name_is_used_beyond_the_tests():
    # A use is a name or an attribute in the code of src/ (the package's
    # __init__.py aside), demos/ or perfbench/: a definition, an __all__
    # entry, an import or a docstring is none.
    root = Path(__file__).resolve().parents[1]
    package_init = Path(fracdiff1d.__file__).resolve()
    used = set()
    for folder in ("src", "demos", "perfbench"):
        for path in (root / folder).rglob("*.py"):
            if path.resolve() == package_init:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert sorted(set(fracdiff1d.__all__) - used) == []


def test_names_the_benchmark_harness_uses(tmp_path):
    # As perfbench/traced.py and perfbench/workloads.py call them.
    argv = ["solve", "--alpha", "1.5", "--c", "1.0", "--n", "16", "--deriv", "rl",
            "--left", "absorbing", "--right", "absorbing", "--ic", "tent",
            "--method", "implicit", "--dt", "0.001", "--t-end", "0.002",
            "--snapshots", "0.0,0.002", "--out", str(tmp_path / "run.csv")]
    config = cli.parse_args(argv).config
    assert isinstance(config, SolverConfig)
    spec = config.spec
    assert spec == SchemeSpec(DerivativeForm.RIEMANN_LIOUVILLE,
                              BoundaryCondition("absorbing"),
                              BoundaryCondition("absorbing"), 1.5, 1.0, 16)
    u = config.initial.sample(spec.n)
    assert np.array_equal(u.values, tent_profile(np.arange(17) / 16))
    matrix = build_matrix(spec)
    assert matrix.entries.shape == (17, 17)
    beta = spec.c * spec.h**-spec.alpha * config.dt
    for step in (explicit_step, implicit_step):
        assert isinstance(step(u, matrix, beta), GridFunction)
    assert len(grunwald_weights(spec.alpha, spec.n + 1).values) == spec.n + 2
    one_step = dataclasses.replace(config, t_end=config.dt,
                                   snapshot_times=(0.0, config.dt))
    series = run_simulation(one_step)
    assert isinstance(series, TimeSeries) and series.config == one_step
    cli.emit_timeseries_csv(series, tmp_path / "run.csv")
    assert (tmp_path / "run.csv.meta.json").exists()
    # Wrapped by the traced runs, so they must be module attributes.
    for module, attr in ((cli, "run_simulation"), (verify, "run_simulation"),
                         (cli, "emit_timeseries_csv"), (cli, "run_suite"),
                         (cli, "run_command")):
        assert callable(getattr(module, attr))
    assert "all" in verify.SUITE_NAMES
