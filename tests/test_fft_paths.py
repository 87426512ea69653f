"""Every FFT in ``src/`` goes through one convolution helper.

A fixed-kernel convolution takes its period, its transforms and its
aliasing condition from ``operators._Convolution``; only
``factor._newton_inverse``, whose kernel changes every pass, keeps its own
products.  A new FFT path must reuse the helper or change this test."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
FFT_MODULES = {"fft", "fftpack"}


def use_scopes(path: Path, names: set[str]) -> set[str]:
    """The outermost class or function of ``path`` around each use of one
    of ``names``, as an attribute (``np.fft``) or in an import (``from
    scipy import fft``), ``"<module>"`` at the top level."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.add(scope)
        elif isinstance(node, ast.Import | ast.ImportFrom):
            modules = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                modules += [node.module or ""]
            if any(names & set(module.split(".")) for module in modules):
                found.add(scope)
        for child in ast.iter_child_nodes(node):
            inner = scope
            if scope == "<module>" and isinstance(
                    child, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
                inner = child.name
            visit(child, inner)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_ffts_are_taken_only_by_the_convolution_helper_and_newtons_iteration():
    uses = {(path.name, scope)
            for path in SRC.rglob("*.py") for scope in use_scopes(path, FFT_MODULES)}
    assert uses == {("operators.py", "_Convolution"), ("factor.py", "_newton_inverse")}


def test_the_guard_sees_every_form_of_fft_use(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import numpy.fft\n"
                      "from scipy import fft\n"
                      "def f(x):\n    return np.fft.rfft(x)\n"
                      "class C:\n    def g(self):\n        from numpy.fft import irfft\n")
    assert use_scopes(source, FFT_MODULES) == {"<module>", "f", "C"}
