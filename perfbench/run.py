"""fracdiff1d benchmark: fixed run recipes timed end to end through the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig2-n1000 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each timed run launches `python -m fracdiff1d.cli` from the checkout's
`src` in a child process, one at a time, and checks its outputs
(check.py).  With `--trace 0` the benchmark reports, per workload, the
median wall time of the full command (`wall_s`), of the same command cut
to its fixed cost (`setup_s`) and the median peak RSS of the full command
(`peak_rss_mb`).  With `--trace 1` it reports per-layer numbers from traced
child processes (traced.py) instead.  The seed sets the order in which the
runs are interleaved and the initial data of `explicit-abs-n1000`.

Metric names and units come from BENCHMARK.json at the checkout root.
Human-readable lines (environment, each metric with its sample count,
error rate, failures) come first; the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every invocation must end within 180 s; children are killed past this.
DEADLINE_S = 170.0
BLAS1_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


@dataclass
class ChildRun:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes


def child_env(blas1: bool = False) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if blas1:
        env.update(BLAS1_ENV)
    return env


class Launcher:
    """Runs timed children one at a time through spawner.py, and keeps the
    invocation's deadline.  Create it before importing numpy: the spawner's
    memory is the floor of every child's peak RSS."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self._spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, start_new_session=True)

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def remaining(self) -> float:
        return DEADLINE_S - self.elapsed()

    def run(self, cmd: list[str], env: dict[str, str], log: Path) -> ChildRun:
        """Run one child to completion: wall time from launch until it
        exits, peak RSS from wait4, and what it printed."""
        out_path, err_path = log.with_suffix(".stdout"), log.with_suffix(".stderr")
        request = {"cmd": cmd, "env": env, "cwd": str(ROOT), "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": max(1.0, self.remaining())}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = self._spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the process spawner exited unexpectedly")
        result = json.loads(reply)
        return ChildRun(result["wall_s"], result["maxrss_kib"] / 1024.0,
                        result["returncode"], out_path.read_bytes(), err_path.read_bytes())

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._spawner.stdin.close()
        else:
            # Also stops a child the spawner is waiting on.
            os.killpg(self._spawner.pid, signal.SIGKILL)
        self._spawner.wait()
        self._spawner.stdout.close()


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return b""


class Bench:
    """One workload within one invocation: its inputs, reference and samples."""

    def __init__(self, workload, work: Path, ic_rng) -> None:
        from check import OutputChecker
        from workloads import dense_reference, initial_values, seeded_profile, write_profile

        self.workload = workload
        self.dir = work / workload.name
        self.dir.mkdir(parents=True)
        recipe = workload.recipe
        self.ic_path = None
        ic_values = None
        if recipe.ic == "file":
            self.ic_path = self.dir / "ic.txt"
            ic_values = write_profile(self.ic_path, seeded_profile(recipe.n, ic_rng))
        reference = None
        if workload.kind == "run":
            reference = dense_reference(recipe, initial_values(recipe, ic_values),
                                        {0, 1, recipe.steps})
        self.checker = OutputChecker(workload, reference)
        self.samples: dict[str, list[ChildRun]] = {"full": [], "setup": []}

    def argv(self, label: str) -> list[str]:
        out = self.dir / f"{label}.csv"
        if label == "full":
            return self.workload.full_argv(out, self.ic_path)
        return self.workload.setup_argv(out, self.ic_path)

    def record(self, label: str, run: ChildRun) -> None:
        """Check a run of command `label`, whatever process produced it."""
        if self.workload.kind == "verify":
            outputs = (run.stdout,)
        else:
            csv = self.dir / f"{label}.csv"
            outputs = (_read(csv), _read(Path(f"{csv}.meta.json")))
        self.checker.record(label, run.returncode, outputs, run.stderr)

    def clear(self, label: str) -> None:
        csv = self.dir / f"{label}.csv"
        csv.unlink(missing_ok=True)
        Path(f"{csv}.meta.json").unlink(missing_ok=True)

    def run_cli(self, label: str, launcher: Launcher) -> ChildRun:
        self.clear(label)
        run = launcher.run([sys.executable, "-m", "fracdiff1d.cli", *self.argv(label)],
                           child_env(), self.dir / label)
        self.record(label, run)
        self.samples[label].append(run)
        return run

    def run_traced(self, mode: str, launcher: Launcher) -> tuple[ChildRun, dict]:
        spans = self.dir / f"{mode}.spans.json"
        spans.unlink(missing_ok=True)
        if mode == "recipe":
            self.clear("full")
        cmd = [sys.executable, str(HERE / "traced.py"), mode, self.workload.name,
               str(self.dir), str(spans)]
        if self.ic_path is not None:
            cmd.append(str(self.ic_path))
        run = launcher.run(cmd, child_env(blas1=(mode == "blas1")), self.dir / mode)
        if mode == "recipe":
            self.record("full", run)
        else:
            self.checker.record(mode, run.returncode, None, run.stderr)
        trace = json.loads(spans.read_text()) if spans.exists() else None
        return run, trace


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{len(values)} run"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"median of {len(values)} runs, quartiles {q1:.6g}..{q3:.6g}, "
            f"range {min(values):.6g}..{max(values):.6g}")


def untraced(benches: list[Bench], seconds: float, order: random.Random,
             launcher: Launcher, units: dict[str, str]) -> dict[str, dict]:
    """Rounds of two full runs and one set-up run per workload, in seeded
    order, while the next round is expected to end less than half a round
    past `seconds` per workload."""
    budget = seconds * len(benches)
    start = launcher.elapsed()
    while True:
        runs = [(b, label) for b in benches for label in ("full", "full", "setup")]
        order.shuffle(runs)
        began = launcher.elapsed()
        for bench, label in runs:
            bench.run_cli(label, launcher)
        round_s = launcher.elapsed() - began
        spent = launcher.elapsed() - start
        if spent + round_s / 2 > budget or launcher.remaining() < 2 * round_s + 5:
            break

    metrics = {}
    for b in benches:
        walls = [r.wall_s for r in b.samples["full"]]
        setups = [r.wall_s for r in b.samples["setup"]]
        rss = [r.peak_rss_mb for r in b.samples["full"]]
        values = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
        for name, samples in values.items():
            unit = units[name]
            print(f"{b.workload.name:<20} {name:<12} {statistics.median(samples):.6g} {unit}  "
                  f"({_summary(samples)})")
        c = b.checker
        print(f"{b.workload.name:<20} {'error_rate':<12} "
              f"{c.failed / c.attempted:.6g} ratio  ({c.failed} failed of "
              f"{c.attempted} runs)")
        metrics[b.workload.name] = {k: statistics.median(v) for k, v in values.items()}
    return metrics


def _durations(trace: dict, name: str) -> list[float]:
    return [s["end"] - s["start"] for s in trace["spans"] if s["name"] == name]


def _from_recipe(workload, trace: dict) -> dict[str, float]:
    d = lambda name: sum(_durations(trace, name))  # noqa: E731
    counts = trace["counts"]
    m = {
        "startup.numpy_s": d("startup.numpy"),
        "startup.scipy_linalg_s": d("startup.scipy_linalg"),
        "startup.fracdiff1d_s": d("startup.fracdiff1d"),
        "cli.parse_s": d("cli.parse"),
        "timestepper.run_simulation_s": d("timestepper.run_simulation"),
        "timestepper.steps": counts.get("timestepper.steps", 0),
    }
    m.update(_emit_metrics(trace) if workload.kind == "run" else _verify_metrics(trace))
    return m


def _emit_metrics(trace: dict) -> dict[str, float]:
    emit = statistics.median(_durations(trace, "cli.emit"))
    size = trace["counts"].get("cli.csv_bytes", 0)
    return {"cli.emit_s": emit, "cli.csv_bytes": size,
            "cli.emit_mb_per_s": size / 2**20 / emit}


def _verify_metrics(trace: dict) -> dict[str, float]:
    spans = trace["spans"]
    suites = {i for i, s in enumerate(spans) if s["name"].startswith("verify.suite.")}
    sims = [s for s in spans
            if s["name"] == "timestepper.run_simulation" and s["parent"] in suites]
    suite_s = sum(spans[i]["end"] - spans[i]["start"] for i in suites)
    m = {f"verify.suite_s.{spans[i]['name'][len('verify.suite.'):]}":
         spans[i]["end"] - spans[i]["start"] for i in suites}
    m["verify.runs"] = len(sims)
    m["verify.sim_share"] = sum(s["end"] - s["start"] for s in sims) / suite_s
    return m


def _from_layers(workload, trace: dict, suffix: str = "") -> dict[str, float]:
    counts = trace["counts"]
    med = lambda name: statistics.median(_durations(trace, name))  # noqa: E731
    k = counts["timestepper.step_k"]
    m = {
        "operators.build_s": med("operators.build"),
        "timestepper.implicit_step_s": med("timestepper.implicit_step"),
        "timestepper.explicit_step_us": med("timestepper.explicit_step") * 1e6,
        "timestepper.step_us":
            (med("timestepper.run_k") - med("timestepper.run_1")) / (k - 1) * 1e6,
    }
    if suffix:
        return {f"{name}{suffix}": value for name, value in m.items()}
    m["grunwald.weights_s"] = med("grunwald.weights")
    m["operators.build_peak_mb"] = counts["operators.build_peak_bytes"] / 2**20
    m["timestepper.run_peak_mb"] = counts["timestepper.run_peak_bytes"] / 2**20
    # The layer this workload's own command does not reach.
    m.update(_verify_metrics(trace) if workload.kind == "run" else _emit_metrics(trace))
    return m


def traced(benches: list[Bench], seconds: float, order: random.Random,
           launcher: Launcher, units: dict[str, str]) -> dict[str, dict]:
    """Per-layer metrics: untraced and traced runs of each workload's command
    in seeded order, then the `layers` and `blas1` children."""
    interp = [launcher.run([sys.executable, "-c", "pass"], child_env(),
                           benches[0].dir / "interp").wall_s for _ in range(5)]
    metrics = {}
    for b in benches:
        start = launcher.elapsed()
        plain, recipe_runs = [], []
        while not plain or launcher.elapsed() - start < seconds / 2:
            for kind in order.sample(["plain", "recipe"], 2):
                if kind == "plain":
                    plain.append(b.run_cli("full", launcher).wall_s)
                else:
                    recipe_runs.append(b.run_traced("recipe", launcher))
        _, layer_trace = b.run_traced("layers", launcher)
        _, blas1_trace = b.run_traced("blas1", launcher)
        traces = [t for _, t in recipe_runs if t is not None]
        if not traces or layer_trace is None or blas1_trace is None:
            continue
        per_trace = [_from_recipe(b.workload, t) for t in traces]
        m = {name: statistics.median([p[name] for p in per_trace])
             for name in per_trace[0]}
        m.update(_from_layers(b.workload, layer_trace))
        m.update(_from_layers(b.workload, blas1_trace, suffix=".blas1"))
        m["startup.interp_s"] = statistics.median(interp)
        traced_wall = statistics.median([r.wall_s for r, _ in recipe_runs])
        m["trace.overhead"] = traced_wall / statistics.median(plain)
        for name, unit in units.items():
            print(f"{b.workload.name:<20} {name:<36} {m[name]:.6g} {unit}")
        print(f"{b.workload.name:<20} {'blas.threads':<36} "
              f"{layer_trace['counts']['blas.threads']:g} default, "
              f"{blas1_trace['counts']['blas.threads']:g} in the .blas1 run")
        metrics[b.workload.name] = m
    return metrics


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def environment(benches: list[Bench]) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    from traced import blas_threads

    def blas(module) -> str:
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS1_ENV},
        "cache_per_core_cpu0": _cache_sizes(),
        "dense_matrix_mib": {b.workload.name: b.workload.recipe.dense_matrix_bytes / 2**20
                             for b in benches},
    }


def main(argv: list[str] | None = None) -> int:
    # Unwind on SIGTERM too, so that the spawner and its child are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The spawner starts before anything imports numpy.
    with Launcher() as launcher:
        return _measure(launcher, argv)


def _measure(launcher: Launcher, argv: list[str] | None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fracdiff1d" / "cli.py").is_file():
        print(f"error: no fracdiff1d sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    import numpy as np

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    order = random.Random(args.seed)
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(os.path.realpath(scratch)) / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ic_rng = np.random.default_rng(args.seed)
        benches = [Bench(WORKLOADS[name], work, ic_rng) for name in names]
        print("env " + json.dumps(environment(benches), sort_keys=True))
        # Compile the package's bytecode and warm the file cache once.
        warm = launcher.run([sys.executable, "-m", "fracdiff1d.cli", "figure", "--list"],
                            child_env(), work / "warmup")
        if warm.returncode != 0:
            print(warm.stderr.decode(errors="replace"), file=sys.stderr)
            return 1
        measure = traced if args.trace else untraced
        per_workload = measure(benches, args.seconds, order, launcher, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(b.checker.attempted for b in benches)
    failed = sum(b.checker.failed for b in benches)
    for b in benches:
        for problem in b.checker.problems:
            print(f"FAILED {problem}")
    metrics = {}
    for name, values in per_workload.items():
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({f"{prefix}{k}": {"value": values[k], "unit": units[k]}
                        for k in units if k in values})
    complete = len(per_workload) == len(benches)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
