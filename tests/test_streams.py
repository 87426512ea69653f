"""A run's stream of steps, and the suites that read it.

``timestepper._steps`` is the one time loop: ``run_simulation`` keeps its
snapshots, and the conservation, positivity and twin checks of
``verify`` read every step of it and keep no state.  These tests hold the
stream to a run that records every step, the streamed suites to the
lines the recorded protocol gave, and their memory to O(n) in the step
count."""

import json
import subprocess
import sys

import numpy as np
import pytest

from fracdiff1d import (
    InitialCondition,
    Method,
    SchemeSpec,
    SolverConfig,
    StabilityViolation,
    negativity_scan,
    run_simulation,
    stability_limit,
)
from fracdiff1d.timestepper import _mass, _steps
from fracdiff1d.verify import (
    _ACCEPTANCE,
    _DESK,
    _FORMS_BCS,
    CheckResult,
    _explicit_dt,
    _run,
    run_suite,
)
from support import CAP, PS, RL, A, R, child_env

SCALES = {"desk": _DESK, "acceptance": _ACCEPTANCE}


def config_of(form, left, right, n, method, steps, dt=None, every_step=False,
              allow_unstable=False):
    """A run of ``steps`` steps with no snapshot or one at every step."""
    spec = SchemeSpec(form, left, right, 1.5, 1.0, n)
    dt = dt or stability_limit(1.5, 1.0, spec.h) / 2
    return SolverConfig(spec=spec, dt=dt, t_end=steps * dt, method=method,
                        snapshot_times=tuple(k * dt for k in range(steps + 1))
                        if every_step else (),
                        initial=InitialCondition.tent(), allow_unstable=allow_unstable)


class TestStream:
    # n = 600 takes the FFT apply and, implicit, a factor with a tail.
    @pytest.mark.parametrize("n", [64, 600])
    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("form,left,right", [(RL, A, A), (RL, R, R), (CAP, A, A)])
    def test_every_step_is_the_recorded_step(self, form, left, right, method, n):
        steps = 30
        series = run_simulation(config_of(form, left, right, n, method, steps,
                                          every_step=True))
        streamed = list(_steps(config_of(form, left, right, n, method, steps)))
        assert [k for k, _, _ in streamed] == list(range(steps + 1)) == [
            round(t / series.config.dt) for t in series.times]
        for (k, u, absorbed), snap, mass, total in zip(
                streamed, series.snapshots, series.mass_trace, series.absorbed_cumulative):
            assert u.tobytes() == snap.values.tobytes(), k
            assert _mass(u, series.spec.h, k).hex() == mass.hex(), k
            assert absorbed.hex() == total.hex(), k

    def test_an_unstable_run_raises_at_the_same_step_both_ways(self):
        # At 100 times the explicit limit the state overflows; a state read
        # at every step is checked at every step, so both raise where the
        # mass first turns non-finite, before the increment booked from it.
        unstable = dict(form=RL, left=R, right=R, n=16, method=Method.EXPLICIT,
                        steps=400, dt=100 * stability_limit(1.5, 1.0, 1 / 16),
                        allow_unstable=True)
        errors = np.geterr()
        with pytest.raises(StabilityViolation) as recorded:
            run_simulation(config_of(**unstable, every_step=True))
        # The stream's driver owns numpy's error state, as run_simulation does.
        with pytest.raises(StabilityViolation) as streamed, \
                np.errstate(over="ignore", invalid="ignore"):
            for k, u, _ in _steps(config_of(**unstable)):
                _mass(u, 1 / 16, k)
        assert str(streamed.value) == str(recorded.value)
        # Unread states are checked by the next step's increment only: a run
        # with no snapshot raises a step later, where the stream alone does.
        with pytest.raises(StabilityViolation) as sparse:
            run_simulation(config_of(**unstable))
        with pytest.raises(StabilityViolation) as unread, \
                np.errstate(over="ignore", invalid="ignore"):
            for _ in _steps(config_of(**unstable)):
                pass
        step = int(str(recorded.value).rsplit(" ", 1)[1])
        assert str(sparse.value) == str(unread.value) == str(recorded.value).replace(
            f"step {step}", f"step {step + 1}")
        # A run that raises in its loop gives back numpy's error state.
        assert np.geterr() == errors

    def test_streams_read_in_lockstep_leave_numpys_error_state_alone(self):
        # zip ends the first stream and leaves the second suspended in its
        # loop, as verify's twin check reads them; neither may hold an error
        # state across a step or leave one behind.
        errors = np.geterr()
        ps, rl = (_steps(config_of(form, A, A, 16, Method.IMPLICIT, 5)) for form in (PS, RL))
        for _ in zip(ps, rl):
            assert np.geterr() == errors
        del ps, rl
        assert np.geterr() == errors


def old_lines(suite: str, scale) -> list[CheckResult]:
    """The lines of ``suite`` as the recorded protocol computed them: from
    ``run_simulation`` with a snapshot at every step.  For ``matrices``,
    its twin check only."""
    out = []
    if suite == "conservation":
        for form in (RL, PS):
            for method, dt in ((Method.EXPLICIT, _explicit_dt(scale.n)),
                               (Method.IMPLICIT, 1e-3)):
                series = _run(form, R, R, n=scale.n, dt=dt, steps=scale.steps,
                              method=method, every=1)
                mass0 = series.mass_trace[0]
                drift = max(abs(m - mass0) for m in series.mass_trace)
                out.append(CheckResult(f"mass-constant {form.value} {method.value}",
                                       drift <= 1e-9 and abs(mass0 - 1.0) <= 1e-3,
                                       f"drift={drift:.2e} initial={mass0:.6f}"))
        series = _run(RL, A, A, n=scale.n, dt=1e-3, steps=scale.steps, every=1)
        closure = max(abs(m + a - series.mass_trace[0])
                      for m, a in zip(series.mass_trace, series.absorbed_cumulative))
        out.append(CheckResult("ledger-closure rl absorbing", closure <= 1e-9,
                               f"gap={closure:.2e}"))
    elif suite == "positivity":
        for form, left, right in _FORMS_BCS:
            if form is CAP:
                continue
            series = _run(form, left, right, n=scale.n, dt=_explicit_dt(scale.n),
                          steps=scale.steps, method=Method.EXPLICIT, every=1)
            low = negativity_scan(series).value
            out.append(CheckResult(f"min {form.value} {left.value[0]}{right.value[0]}",
                                   low >= -1e-12, f"min={low:.2e}"))
    elif scale.twin_steps is not None:
        gap = 0.0
        for method, dt in ((Method.EXPLICIT, _explicit_dt(scale.n)), (Method.IMPLICIT, 1e-3)):
            ps, rl = (_run(form, A, A, n=scale.n, dt=dt, steps=scale.twin_steps,
                           method=method, every=1) for form in (PS, RL))
            gap = max([gap] + [float(np.abs(a.values - b.values).max())
                               for a, b in zip(ps.snapshots, rl.snapshots)])
        out.append(CheckResult("left-absorbing-runs-agree", gap <= 1e-12,
                               f"max snapshot gap={gap:.2e}"))
    return [CheckResult(f"{suite}/{r.name}", r.passed, r.detail) for r in out]


# The acceptance-scale conservation and positivity suites at a multiple of
# their steps, in a fresh process: their lines and its peak RSS in KiB.
# Linux counts the RSS of the process a child was forked from in the
# child's ru_maxrss, so the peak is read from /proc where there is one.
_SUITES_AT = """
import dataclasses, json, re, resource, sys
from fracdiff1d.verify import _ACCEPTANCE, run_suite
scale = dataclasses.replace(_ACCEPTANCE, steps=int(sys.argv[1]) * _ACCEPTANCE.steps)
lines = run_suite("conservation", scale) + run_suite("positivity", scale)
try:
    with open("/proc/self/status") as status:
        peak = int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read())[1])
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak //= 1024 if sys.platform == "darwin" else 1  # bytes there
print(json.dumps({"lines": [dataclasses.astuple(line) for line in lines], "peak_kib": peak}))
"""


@pytest.fixture(scope="module", autouse=True)
def acceptance_suites():
    """A call giving the lines and peak RSS of :data:`_SUITES_AT` at 1 or 2
    times the acceptance steps.  Both processes start before the module's
    first test, so they run beside its tests until one is read."""
    env = child_env()
    processes = {multiple: subprocess.Popen(
        [sys.executable, "-c", _SUITES_AT, str(multiple)], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for multiple in (1, 2)}
    results = {}

    def result(multiple: int) -> dict:
        if multiple not in results:
            out, err = processes[multiple].communicate(timeout=300)
            assert processes[multiple].returncode == 0, err
            results[multiple] = json.loads(out)
        return results[multiple]

    yield result
    for process in processes.values():
        process.kill()
        process.communicate()


class TestStreamedSuites:
    @pytest.mark.parametrize("suite", ["conservation", "positivity"])
    def test_desk_lines_are_the_recorded_protocols(self, suite):
        assert run_suite(suite, _DESK) == old_lines(suite, _DESK)

    @pytest.mark.parametrize("scale", SCALES.values(), ids=SCALES)
    def test_the_twin_line_is_the_recorded_protocols(self, scale):
        twin = [line for line in run_suite("matrices", scale)
                if line.name == "matrices/left-absorbing-runs-agree"]
        assert twin == old_lines("matrices", scale)
        assert len(twin) == (scale.twin_steps is not None)

    @pytest.mark.parametrize("suite", ["conservation", "positivity"])
    def test_acceptance_lines_are_the_recorded_protocols(self, acceptance_suites, suite):
        lines = [CheckResult(*line) for line in acceptance_suites(1)["lines"]]
        assert [line for line in lines if line.name.startswith(f"{suite}/")] == \
            old_lines(suite, _ACCEPTANCE)

    def test_memory_does_not_grow_with_the_steps(self, acceptance_suites):
        # One acceptance run recording every step holds 1001 states of 513
        # floats, 4 MiB, and doubling the steps doubles that: recorded, the
        # two suites peaked 8.6-8.7 MiB higher at 2000 steps than at 1000;
        # streamed, 20-48 KiB higher.
        once, twice = (acceptance_suites(m)["peak_kib"] for m in (1, 2))
        assert twice - once <= 1024, (once, twice)
