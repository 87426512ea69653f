"""Output checks for every benchmark run.

A run fails when it exits nonzero or when any check below finds a problem.
Checks of a run recipe's CSV + meta files:

* header `t,x,u`, one row per node per snapshot, every value finite;
* the meta sidecar names the recipe that was asked for;
* retained mass in the meta equals `h * sum(u)` of the written state;
* the ledger closes: `|mass + absorbed - mass_0| <= 1e-9` at every snapshot;
* RL/PS solutions stay nonnegative (to the package's own -1e-12 roundoff
  allowance);
* the first snapshot is the intended initial data, and the final one agrees
  with the dense reference to <= 1e-12 relative max-norm error;
* every repeat of the same command in one invocation writes byte-identical
  files.

A `verify` command must exit 0 and report all of its checks passed.
"""

from __future__ import annotations

import hashlib
import io
import json
import re

import numpy as np

from workloads import Recipe

LEDGER_TOL = 1e-9
MASS_TOL = 1e-12
MIN_TOL = -1e-12
REFERENCE_TOL = 1e-12


def check_run_files(recipe: Recipe, csv: bytes, meta: bytes,
                    reference: dict[int, np.ndarray]) -> list[str]:
    """Problems found in one run's CSV and meta files (empty when correct).

    `reference` maps step index to the dense-reference state; it must hold
    step 0 (the initial data) and the recipe's final step.
    """
    header, _, body = csv.partition(b"\n")
    if header != b"t,x,u":
        return [f"csv header is {header[:40]!r}, not 't,x,u'"]
    try:
        data = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
        info = json.loads(meta)
        return _check_parsed(recipe, data, info, reference)
    except (AttributeError, TypeError, ValueError) as exc:
        return [f"unparseable output: {exc}"]


def _check_parsed(recipe: Recipe, data: np.ndarray, info: dict,
                  reference: dict[int, np.ndarray]) -> list[str]:
    problems: list[str] = []
    n = recipe.n
    expected_times = [recipe.step_of(t) * recipe.dt for t in recipe.snapshots]
    if data.shape != (len(expected_times) * (n + 1), 3):
        return [f"csv holds {data.shape} values, expected "
                f"{len(expected_times)} snapshots of {n + 1} nodes"]
    if not np.all(np.isfinite(data)):
        problems.append("csv holds a non-finite value")

    want = {"n": n, "alpha": recipe.alpha, "c": recipe.c, "dt": recipe.dt,
            "t_end": recipe.t_end, "deriv": recipe.deriv, "left": recipe.left,
            "right": recipe.right, "method": recipe.method,
            "requested_snapshot_times": list(recipe.snapshots)}
    for key, value in want.items():
        if info.get(key) != value:
            problems.append(f"meta {key} is {info.get(key)!r}, expected {value!r}")
    mass = np.asarray(info.get("mass_trace", []), dtype=float)
    absorbed = np.asarray(info.get("absorbed_cumulative", []), dtype=float)
    if mass.shape != (len(expected_times),) or absorbed.shape != mass.shape:
        return problems + ["meta ledger has the wrong number of entries"]
    if not (np.all(np.isfinite(mass)) and np.all(np.isfinite(absorbed))):
        problems.append("meta ledger holds a non-finite value")

    snaps = data[:, 2].reshape(len(expected_times), n + 1)
    times = data[:, 0].reshape(len(expected_times), n + 1)
    nodes = data[:, 1].reshape(len(expected_times), n + 1)
    if not np.allclose(times, np.array(expected_times)[:, None], rtol=0, atol=1e-12):
        problems.append("csv snapshot times differ from the requested steps")
    actual = np.asarray(info.get("actual_snapshot_times", []), dtype=float)
    if actual.shape != (len(expected_times),) or not np.allclose(
            actual, expected_times, rtol=0, atol=1e-12):
        problems.append("meta actual_snapshot_times differ from the requested steps")
    if np.abs(nodes - np.arange(n + 1) / n).max() > 1e-15:
        problems.append("csv x column is not the grid j/n")

    state_mass = recipe.h * snaps.sum(axis=1)
    if np.abs(state_mass - mass).max() > MASS_TOL:
        problems.append("meta mass_trace disagrees with the written state")
    gap = float(np.abs(mass + absorbed - mass[0]).max())
    if not gap <= LEDGER_TOL:
        problems.append(f"ledger does not close: gap {gap:.3e} > {LEDGER_TOL:g}")
    if recipe.deriv in ("rl", "ps"):
        low = float(snaps.min())
        if not low >= MIN_TOL:
            problems.append(f"{recipe.deriv} solution went negative: min {low:.3e}")

    for label, row, step in (("initial", 0, 0), ("final", -1, recipe.steps)):
        ref = reference[step]
        err = float(np.abs(snaps[row] - ref).max() / np.abs(ref).max())
        if not err <= REFERENCE_TOL:
            problems.append(f"{label} snapshot differs from the dense reference: "
                            f"relative max-norm error {err:.3e}")
    return problems


_SUMMARY = re.compile(rb"^(\d+)/(\d+) checks passed$")


def check_verify_stdout(stdout: bytes, expected_checks: int) -> list[str]:
    """Problems in the printed report of a `verify` command."""
    lines = stdout.rstrip(b"\n").split(b"\n")
    match = _SUMMARY.match(lines[-1]) if lines else None
    if match is None:
        return ["verify printed no summary line"]
    passed, total = int(match[1]), int(match[2])
    fails = sum(line.startswith(b"FAIL") for line in lines)
    passes = sum(line.startswith(b"PASS") for line in lines)
    if passed != total or fails or passes != total:
        return [f"verify reports {passed}/{total} passed, {fails} FAIL lines"]
    if total != expected_checks:
        return [f"verify ran {total} checks, expected {expected_checks}"]
    return []


class OutputChecker:
    """Checks every run of one workload and counts attempts and failures.

    Identical bytes give identical verdicts, so each distinct output is
    parsed once; every repeat must match the first run of its command
    byte for byte.
    """

    def __init__(self, workload, reference: dict[int, np.ndarray] | None):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[str, str] = {}
        self._verdicts: dict[str, list[str]] = {}

    def record(self, label: str, returncode: int, outputs: tuple[bytes, ...] | None,
               stderr: bytes = b"") -> bool:
        """Check one run of command `label` ("full" or "setup"); True if it
        passed.  With `outputs` None only the exit code is checked."""
        self.attempted += 1
        if returncode != 0:
            problems = [f"exit code {returncode}: "
                        + stderr.decode(errors="replace").strip()[-300:]]
        elif outputs is None:
            problems = []
        else:
            digest = hashlib.sha256(b"\0".join(outputs)).hexdigest()
            first = self._first.setdefault(label, digest)
            if digest not in self._verdicts:
                self._verdicts[digest] = self._check(label, outputs)
            problems = list(self._verdicts[digest])
            if digest != first:
                problems.append("output differs from the first run of this command")
        if problems:
            self.failed += 1
            self.problems += [f"{self.workload.name} {label}: {p}" for p in problems]
        return not problems

    def _check(self, label: str, outputs: tuple[bytes, ...]) -> list[str]:
        wl = self.workload
        if wl.kind == "verify":
            expected = wl.checks if label == "full" else wl.setup_checks
            return check_verify_stdout(outputs[0], expected)
        recipe = wl.recipe if label == "full" else wl.recipe.cut_to_setup()
        return check_run_files(recipe, outputs[0], outputs[1], self.reference)

