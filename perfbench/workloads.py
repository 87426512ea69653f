"""The benchmark's workloads: fixed CLI run recipes and their dense references.

Each workload has a full command (what users run) and a set-up command (the
same recipe cut to its fixed cost).  Run recipes also carry the scheme
parameters the output checker and the dense reference need; the `verify-all`
workload carries the desk-scale recipe its suites run, which the traced run
uses as that workload's layer scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

_FIG_SNAPSHOTS = (0.0, 0.05, 0.1, 0.5)


def step_of(t: float, dt: float) -> int:
    """Step index of a requested time: the first step at or after it, as
    the package's README specifies for snapshots."""
    return max(0, math.ceil(t / dt - 1e-9))


def count_steps(dt: float, t_end: float, snapshots) -> int:
    """Steps a run takes: up to `t_end` or the last snapshot, if later."""
    return max(step_of(t, dt) for t in (t_end, *snapshots))


@dataclass(frozen=True)
class Recipe:
    """One run: the flags of `fracdiff1d solve`, minus `--out`."""

    n: int
    left: str
    right: str
    method: str
    dt: float
    t_end: float
    snapshots: tuple[float, ...]
    ic: str = "tent"  # "tent", or "file" for a seeded profile
    deriv: str = "rl"
    alpha: float = 1.5
    c: float = 1.0

    def solve_argv(self, out: Path, ic_path: Path | None) -> list[str]:
        ic = f"file:{ic_path}" if self.ic == "file" else self.ic
        return ["solve", "--alpha", repr(self.alpha), "--c", repr(self.c),
                "--n", str(self.n), "--deriv", self.deriv,
                "--left", self.left, "--right", self.right, "--ic", ic,
                "--method", self.method, "--dt", repr(self.dt),
                "--t-end", repr(self.t_end),
                "--snapshots", ",".join(repr(t) for t in self.snapshots),
                "--out", str(out)]

    def cut_to_setup(self) -> "Recipe":
        """The same recipe stepped once: its fixed cost."""
        return replace(self, t_end=self.dt, snapshots=(0.0, self.dt))

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def beta(self) -> float:
        return self.c * self.h**-self.alpha * self.dt

    def step_of(self, t: float) -> int:
        return step_of(t, self.dt)

    @property
    def steps(self) -> int:
        return count_steps(self.dt, self.t_end, self.snapshots)

    @property
    def dense_matrix_bytes(self) -> int:
        return 8 * (self.n + 1) ** 2


@dataclass(frozen=True)
class Workload:
    """A named benchmark workload.

    `kind` is "run" (a command writing CSV + meta) or "verify" (a suite
    printing PASS/FAIL lines).  `step_k` is the step count K used for the
    marginal per-step cost `(T(K) - T(1)) / (K - 1)` in the traced run.
    """

    name: str
    kind: str
    recipe: Recipe
    step_k: int
    figure_argv: tuple[str, ...] = ()
    suite: str = ""
    setup_suite: str = ""
    checks: int = 0
    setup_checks: int = 0

    def full_argv(self, out: Path, ic_path: Path | None) -> list[str]:
        if self.kind == "verify":
            return ["verify", self.suite]
        if self.figure_argv:
            return [*self.figure_argv, "--out", str(out)]
        return self.recipe.solve_argv(out, ic_path)

    def setup_argv(self, out: Path, ic_path: Path | None) -> list[str]:
        if self.kind == "verify":
            return ["verify", self.setup_suite]
        return self.recipe.cut_to_setup().solve_argv(out, ic_path)


_EXPLICIT_DT = 2e-5  # 0.95 x the CFL limit h**alpha / (C alpha) at n=1000

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig2-n1000",
            kind="run",
            recipe=Recipe(n=1000, left="reflecting", right="reflecting",
                          method="implicit", dt=1e-3, t_end=0.5,
                          snapshots=_FIG_SNAPSHOTS),
            step_k=500,
            figure_argv=("figure", "2"),
        ),
        Workload(
            name="fig2-n4000",
            kind="run",
            recipe=Recipe(n=4000, left="reflecting", right="reflecting",
                          method="implicit", dt=1e-3, t_end=0.5,
                          snapshots=_FIG_SNAPSHOTS),
            step_k=100,
            figure_argv=("figure", "2", "--n", "4000"),
        ),
        Workload(
            name="verify-all",
            kind="verify",
            # The desk run the suites repeat (verify._desk_run defaults).
            recipe=Recipe(n=128, left="reflecting", right="reflecting",
                          method="implicit", dt=1e-3, t_end=0.4,
                          snapshots=tuple(k * 1e-3 for k in range(0, 401, 20))),
            step_k=400,
            suite="all",
            setup_suite="identities",
            checks=34,
            setup_checks=9,
        ),
        Workload(
            name="explicit-abs-n1000",
            kind="run",
            recipe=Recipe(n=1000, left="absorbing", right="absorbing",
                          method="explicit", dt=_EXPLICIT_DT, t_end=0.05,
                          snapshots=tuple(k / 1000 for k in range(51)),
                          ic="file"),
            step_k=2500,
        ),
    )
}


def seeded_profile(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random smooth nonnegative profile with unit rectangle-rule mass.

    A sum of two to four Gaussian bumps centred in (0.3, 0.7), tapered by
    sin^2(pi x) so that it vanishes at both walls.
    """
    x = np.arange(n + 1) / n
    u = np.zeros(n + 1)
    for _ in range(int(rng.integers(2, 5))):
        centre = rng.uniform(0.3, 0.7)
        width = rng.uniform(0.02, 0.06)
        u += rng.uniform(0.5, 1.5) * np.exp(-0.5 * ((x - centre) / width) ** 2)
    u *= np.sin(np.pi * x) ** 2
    u[0] = u[n] = 0.0
    return u / (u.sum() / n)


def write_profile(path: Path, u: np.ndarray) -> np.ndarray:
    """Write one value per line with 17 significant digits; return what a
    reader parses back (bit-identical to `u`)."""
    path.write_text("".join(f"{v:.16e}\n" for v in u))
    return np.loadtxt(path, dtype=float)


def initial_values(recipe: Recipe, ic_values: np.ndarray | None) -> np.ndarray:
    """Nodal initial data as the benchmark defines it, boundary pins applied."""
    from fracdiff1d.timestepper import tent_profile

    if recipe.ic == "file":
        u = np.array(ic_values, dtype=float)
    else:
        u = tent_profile(np.arange(recipe.n + 1) / recipe.n)
    for node in _pinned(recipe):
        u[node] = 0.0
    return u


def _pinned(recipe: Recipe) -> list[int]:
    return ([0] if recipe.left == "absorbing" else []) + (
        [recipe.n] if recipe.right == "absorbing" else [])


def dense_reference(recipe: Recipe, u0: np.ndarray, at_steps: set[int]) -> dict[int, np.ndarray]:
    """Step the dense `build_matrix` oracle with the benchmark's own loop.

    Explicit: `u + beta u B`; implicit: one dense LU of `I - beta B^T`,
    reused every step.  Absorbing nodes are pinned after every step.
    Returns the state at each step index in `at_steps`.
    """
    from scipy.linalg import lu_factor, lu_solve

    from fracdiff1d.grunwald import DerivativeForm
    from fracdiff1d.operators import BoundaryCondition, SchemeSpec, build_matrix

    forms = {"rl": DerivativeForm.RIEMANN_LIOUVILLE,
             "ps": DerivativeForm.PATIE_SIMON, "caputo": DerivativeForm.CAPUTO}
    spec = SchemeSpec(forms[recipe.deriv], BoundaryCondition(recipe.left),
                      BoundaryCondition(recipe.right), recipe.alpha, recipe.c,
                      recipe.n)
    B = build_matrix(spec).entries
    beta = recipe.beta
    pinned = _pinned(recipe)
    factors = None
    if recipe.method == "implicit":
        factors = lu_factor(np.eye(recipe.n + 1) - beta * B.T)
    u = u0.copy()
    out = {0: u.copy()} if 0 in at_steps else {}
    for k in range(1, max(at_steps) + 1):
        if factors is None:
            u = u + beta * (u @ B)
        else:
            u = lu_solve(factors, u)
        u[pinned] = 0.0
        if k in at_steps:
            out[k] = u.copy()
    return out
