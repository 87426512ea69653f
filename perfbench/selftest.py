"""Self-test of the benchmark's output checker.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Produces real outputs with the CLI at n=64 (an explicit absorbing run from
a seeded profile, an implicit reflecting run, `verify identities`), checks
that the checker passes them, then feeds it corrupted copies and checks
that each one is counted as a failed run for the stated reason.  Exits 0
when every corruption is caught.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

from run import ROOT, Bench, Launcher
from workloads import WORKLOADS, Recipe, Workload

SMALL = {
    "explicit-abs": Recipe(n=64, left="absorbing", right="absorbing",
                           method="explicit", dt=1e-3, t_end=0.02,
                           snapshots=(0.0, 0.01, 0.02), ic="file"),
    "implicit-refl": Recipe(n=64, left="reflecting", right="reflecting",
                            method="implicit", dt=1e-3, t_end=0.05,
                            snapshots=(0.0, 0.05)),
}


def _corruptions(csv: bytes, meta: bytes):
    """(name, expected problem, corrupted csv, corrupted meta)."""
    lines = csv.rstrip(b"\n").split(b"\n")
    mid = len(lines) - 1 - 32  # the middle node of the final snapshot

    def with_mid_u(value: bytes) -> bytes:
        t, x, _ = lines[mid].split(b",")
        return b"\n".join(lines[:mid] + [b",".join((t, x, value))] + lines[mid + 1:]) + b"\n"

    mid_u = float(lines[mid].split(b",")[2])
    info = json.loads(meta)
    info["absorbed_cumulative"][-1] += 1e-6
    broken_ledger = json.dumps(info, indent=2, sort_keys=True).encode() + b"\n"
    return [
        ("nan in csv", "non-finite", with_mid_u(b"nan"), meta),
        ("perturbed final value", "dense reference",
         with_mid_u(f"{mid_u * (1 + 1e-9) + 1e-12:.16e}".encode()), meta),
        ("negative value", "went negative", with_mid_u(b"-1.0000000000000000e-06"), meta),
        ("truncated csv", "csv holds", b"\n".join(lines[:-1]) + b"\n", meta),
        ("broken ledger", "ledger does not close", csv, broken_ledger),
        ("reformatted meta", "differs from the first run",
         csv, json.dumps(json.loads(meta), sort_keys=True).encode()),
    ]


def _self_check(bench: Bench, launcher: Launcher) -> tuple[int, int]:
    """Run the real command once, then feed the checker corrupted copies;
    return (checks passed, checks made)."""
    checker = bench.checker
    label = "setup" if bench.workload.kind == "verify" else "full"
    bench.run_cli(label, launcher)
    ok = checker.failed == 0
    print(f"{'PASS' if ok else 'FAIL'}  {bench.workload.name}: real output "
          f"accepted{'' if ok else ': ' + '; '.join(checker.problems)}")
    caught, total = int(ok), 1
    if bench.workload.kind == "verify":
        good = bench.samples[label][-1].stdout
        cases = [("a FAIL line", "passed", good.replace(b"PASS", b"FAIL", 1), None),
                 ("no summary", "no summary", good.rsplit(b"\n", 2)[0], None)]
    else:
        cases = _corruptions((bench.dir / "full.csv").read_bytes(),
                             (bench.dir / "full.csv.meta.json").read_bytes())
    cases.append(("nonzero exit", "exit code", None, None))
    for name, expected, first, second in cases:
        before, seen = checker.failed, len(checker.problems)
        if first is None:
            checker.record(label, 1, None, b"boom")
        else:
            checker.record(label, 0, (first,) if second is None else (first, second))
        new = checker.problems[seen:]
        ok = checker.failed == before + 1 and any(expected in p for p in new)
        print(f"{'PASS' if ok else 'FAIL'}  {bench.workload.name}: {name} "
              f"counted as a failure ({'; '.join(new) or 'not detected'})")
        caught, total = caught + ok, total + 1
    print(f"      {bench.workload.name}: attempted {checker.attempted}, "
          f"failed {checker.failed}")
    return caught, total


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    caught = total = 0
    try:
        with Launcher() as launcher:
            benches = [Bench(Workload(name=name, kind="run", recipe=recipe,
                                      step_k=recipe.steps),
                             work, np.random.default_rng(0))
                       for name, recipe in SMALL.items()]
            benches.append(Bench(WORKLOADS["verify-all"], work, None))
            for bench in benches:
                c, t = _self_check(bench, launcher)
                caught, total = caught + c, total + t
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{caught}/{total} self-checks passed")
    return 0 if caught == total else 1


if __name__ == "__main__":
    sys.exit(main())
