"""No step's bits depend on the BLAS thread count.

OpenBLAS threads ``ddot`` past 10,000 entries, and a threaded sum adds in
another order.  Every vector dot product of a step goes through
``operators._dot``, which sums chunks of at most 8192 entries; the
products of ``_Stencil.apply`` are matrix-vector products, whose threads
each take whole entries.  The runs below reach past 10,000 entries: the
ledger's dot at n = 12000 and the tail's at n = 16384 (N = 10,454).

No command needs a second thread, so the command line starts OpenBLAS on
one, unless a thread variable in its environment says otherwise."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracdiff1d.operators import _DOT_CHUNK, _dot
from support import child_env, scopes, scopes_in_src

# Names that reach BLAS's dot or matrix products, beside the @ operator.
PRODUCT_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def is_product(node: ast.AST) -> bool:
    """An ``@``, or a use of one of ``PRODUCT_NAMES``."""
    return (isinstance(node, ast.BinOp | ast.AugAssign) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Attribute) and node.attr in PRODUCT_NAMES
            or isinstance(node, ast.Name) and node.id in PRODUCT_NAMES
            or isinstance(node, ast.alias) and node.name in PRODUCT_NAMES)


def test_vector_products_go_through_the_chunked_dot():
    assert scopes_in_src(is_product) == {
        ("operators.py", "_dot"),
        # Matrix-vector products (see the module docstring).
        ("operators.py", "_Stencil.apply"),
        # The dense one-step shims and the decay fit: no run's step.
        ("timestepper.py", "_Dense.apply"),
        ("diagnostics.py", "decay_rate"),
    }


def test_the_guard_sees_every_form_of_product():
    source = ("def f(x, y):\n    return x @ y\n"
              "class C:\n    def g(self, x):\n        x @= x\n"
              "    def h(self, x):\n        return np.dot(x, x)\n"
              "from numpy import inner\n"
              "def k(x):\n    return x.dot(x) + np.einsum('i,i', x, x)\n"
              "def clean(x):\n    return x * x\n")
    assert scopes(source, is_product) == {"f", "C.g", "C.h", "<module>", "k"}


def test_the_chunked_dot_adds_its_chunks_in_order():
    rng = np.random.default_rng(5)
    for size in (1, _DOT_CHUNK, _DOT_CHUNK + 1, 3 * _DOT_CHUNK + 17):
        x, y = rng.random(size) - 0.5, rng.random(size) - 0.5
        total = 0.0
        for a in range(0, size, _DOT_CHUNK):
            total += float(np.dot(x[a : a + _DOT_CHUNK], y[a : a + _DOT_CHUNK]))
        assert _dot(x, y).hex() == total.hex()
        # One chunk is x @ y itself.
        if size <= _DOT_CHUNK:
            assert _dot(x, y).hex() == float(x @ y).hex()


# Figure 2's scheme (RL r/r, alpha = 1.5, tent) at n = 16384 for two
# implicit steps, and two RL a/a runs at n = 12000: 20 implicit steps at
# dt = 1e-3, 20 explicit steps at half the stability limit.
RUNS = {
    "figure-2": ["--deriv", "rl", "--left", "reflecting", "--right", "reflecting",
                 "--n", "16384", "--t-end", "0.002", "--snapshots", "0,0.001,0.002"],
    "implicit": ["--n", "12000", "--t-end", "0.02", "--snapshots", "0,0.01,0.02"],
    "explicit": ["--n", "12000", "--method", "explicit", "--dt", "2.5e-7",
                 "--t-end", "5e-6", "--snapshots", "0,2.5e-6,5e-6"],
}
_RUN_ALL = """
import sys
from fracdiff1d.cli import main
runs, out = {runs!r}, sys.argv[1]
for name, argv in runs.items():
    assert main(["solve", "--alpha", "1.5", *argv, "--out", f"{{out}}/{{name}}.csv"]) == 0
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    processes = []
    for threads in (1, 2):
        out = tmp_path / str(threads)
        out.mkdir()
        processes.append(subprocess.Popen(
            [sys.executable, "-c", _RUN_ALL.format(runs=RUNS), str(out)],
            env=child_env(OPENBLAS_NUM_THREADS=str(threads)),
            stderr=subprocess.PIPE, text=True))
    for process in processes:
        _, err = process.communicate(timeout=300)
        assert process.returncode == 0, err

    def digest(path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    for name in RUNS:
        for suffix in (".csv", ".csv.meta.json"):
            one, two = (tmp_path / str(threads) / f"{name}{suffix}" for threads in (1, 2))
            assert digest(one) == digest(two), f"{name}{suffix}"


# The thread count of each OpenBLAS loaded, read through ctypes as
# perfbench/traced.py reads it, after importing the command line.
_CLI_THREADS = """
import ctypes, json
import fracdiff1d.cli
with open("/proc/self/maps") as maps:
    libs = sorted({line.split()[-1] for line in maps
                   if "openblas" in line and ".so" in line})
counts = []
for path in libs:
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            counts.append(getattr(lib, symbol)())
            break
print(json.dumps(counts))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_the_command_line_starts_openblas_on_one_thread_unless_told():
    base = {key: value for key, value in child_env().items()
            if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    # OpenBLAS runs no more threads than the process has processors.
    two = min(2, len(os.sched_getaffinity(0)))
    for extra, expected in (({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, two)):
        result = subprocess.run([sys.executable, "-c", _CLI_THREADS], env={**base, **extra},
                                capture_output=True, text=True, check=True)
        counts = json.loads(result.stdout)
        if not counts:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        assert counts == [expected] * len(counts), extra
