"""Traced child process: calls the package's layers in-process, with spans.

`run.py --trace 1` starts this script in a fresh interpreter, with the
checkout's `src` on PYTHONPATH:

    python3 perfbench/traced.py MODE WORKLOAD OUT_DIR SPANS_JSON [IC_PATH]

MODE is one of

* `recipe`: the workload's own CLI command, through `parse_args` and
  `run_command`, with spans at the layer boundaries it crosses (imports,
  parse, `run_simulation`, CSV emit, each verify suite).  Its outputs are
  the CLI's outputs and are checked like an untraced run's.
* `layers`: repeated calls to each layer's public functions at the
  workload's scale (weights, matrix build, one implicit and one explicit
  step, K-step and 1-step runs, tracemalloc peaks), plus the layer the
  workload's own command does not reach (the verify suites for a run
  recipe, the CSV emit for `verify-all`).
* `blas1`: the `operators`/`timestepper` calls of `layers` again; the
  parent starts it with BLAS limited to one thread.

Spans are recorded around calls into the package from this file; the
package itself is not instrumented.  Spans stay in memory and are written
to SPANS_JSON when the process ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory spans (name, start, end, parent index) and counters."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append({"name": name,
                           "parent": self._stack[-1] if self._stack else None})
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index].update(start=start, end=end)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line and ".so" in line})
    except OSError:
        return {}
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads[Path(path).name] = int(getattr(lib, symbol)())
                break
    return threads


def _wrap(module, attr: str, around) -> None:
    real = getattr(module, attr)
    setattr(module, attr, lambda *args, **kwargs: around(real, *args, **kwargs))


def _trace_package(tracer: Tracer, cli, verify) -> None:
    """Put spans around the package calls the CLI and the verify suites make."""
    from workloads import count_steps

    def run_simulation(real, config):
        with tracer.span("timestepper.run_simulation"):
            series = real(config)
        tracer.count("timestepper.steps",
                     count_steps(config.dt, config.t_end, config.snapshot_times))
        return series

    def emit(real, series, path):
        with tracer.span("cli.emit"):
            real(series, path)
        tracer.counts["cli.csv_bytes"] = Path(path).stat().st_size

    def run_suite(real, name):
        # `verify all` runs every suite in order; naming each suite alone
        # gives the same results and one span per suite.
        names = [s for s in verify.SUITE_NAMES if s != "all"] if name == "all" else [name]
        results = []
        for suite in names:
            with tracer.span(f"verify.suite.{suite}"):
                results += real(suite)
        return results

    _wrap(cli, "run_simulation", run_simulation)
    _wrap(verify, "run_simulation", run_simulation)
    _wrap(cli, "emit_timeseries_csv", emit)
    _wrap(cli, "run_suite", run_suite)


def recipe(tracer: Tracer, workload, out_dir: Path, ic_path: Path | None) -> int:
    from fracdiff1d import cli, verify

    _trace_package(tracer, cli, verify)
    argv = workload.full_argv(out_dir / "full.csv", ic_path)
    with tracer.span("cli.parse"):
        command = cli.parse_args(argv)
    return cli.run_command(command)


def _repeat(tracer: Tracer, name: str, call, min_reps: int, min_seconds: float) -> None:
    start = time.perf_counter()
    reps = 0
    while reps < min_reps or time.perf_counter() - start < min_seconds:
        with tracer.span(name):
            call()
        reps += 1


def layers(tracer: Tracer, workload, out_dir: Path, ic_path: Path | None,
           operators_only: bool) -> int:
    import dataclasses
    import tracemalloc

    from fracdiff1d import cli, verify
    from fracdiff1d.grunwald import grunwald_weights
    from fracdiff1d.operators import build_matrix
    from fracdiff1d.timestepper import explicit_step, implicit_step, run_simulation

    recipe = workload.recipe
    config = cli.parse_args(recipe.solve_argv(out_dir / "layer.csv", ic_path)).config
    spec = config.spec
    tracer.counts["blas.threads"] = min(blas_threads().values(), default=0)

    if not operators_only:
        orders = (spec.alpha, spec.alpha - 1.0, spec.alpha - 2.0)
        _repeat(tracer, "grunwald.weights",
                lambda: [grunwald_weights(order, spec.n + 1) for order in orders],
                min_reps=5, min_seconds=0.2)
    _repeat(tracer, "operators.build", lambda: build_matrix(spec),
            min_reps=3, min_seconds=0.3)
    matrix = build_matrix(spec)
    u = config.initial.sample(spec.n)
    _repeat(tracer, "timestepper.implicit_step",
            lambda: implicit_step(u, matrix, recipe.beta), min_reps=3, min_seconds=0.3)
    _repeat(tracer, "timestepper.explicit_step",
            lambda: explicit_step(u, matrix, recipe.beta), min_reps=20, min_seconds=0.2)

    k = workload.step_k
    tracer.counts["timestepper.step_k"] = k
    runs = {steps: dataclasses.replace(config, t_end=steps * config.dt,
                                       snapshot_times=(0.0, steps * config.dt))
            for steps in (1, k)}
    for _ in range(3):
        for steps, run in runs.items():
            with tracer.span(f"timestepper.run_{'k' if steps == k else '1'}"):
                run_simulation(run)
    if operators_only:
        return 0

    tracemalloc.start()
    build_matrix(spec)
    tracer.counts["operators.build_peak_bytes"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tracemalloc.start()
    series = run_simulation(config)
    tracer.counts["timestepper.run_peak_bytes"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    _trace_package(tracer, cli, verify)
    if workload.kind == "verify":
        for _ in range(3):
            cli.emit_timeseries_csv(series, out_dir / "layer.csv")
    else:
        cli.run_suite("all")
    return 0


def main(argv: list[str]) -> int:
    mode, name, out_dir, spans_path = argv[:4]
    ic_path = Path(argv[4]) if len(argv) > 4 else None
    tracer = Tracer()
    if mode == "recipe":
        # Interpreter start-up is timed by the parent; these spans split
        # the imports the CLI pays for before it parses its arguments.
        with tracer.span("startup.numpy"):
            import numpy  # noqa: F401
        with tracer.span("startup.scipy_linalg"):
            import scipy.linalg  # noqa: F401
        with tracer.span("startup.fracdiff1d"):
            import fracdiff1d.cli  # noqa: F401
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if mode == "recipe":
        code = recipe(tracer, workload, Path(out_dir), ic_path)
    else:
        code = layers(tracer, workload, Path(out_dir), ic_path,
                      operators_only=(mode == "blas1"))
    tracer.write(Path(spans_path))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
