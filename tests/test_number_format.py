"""The CSV number format is spelled in one place.

Every float the package writes to a CSV goes through ``emit._CsvWriter``,
which formats it as ``%.16e``.  A ``.16e`` anywhere else in ``src/`` (an
f-string's format spec, a ``format`` spec or a ``%`` literal) would be a
second definition of the format: it must use the writer or change this
test."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SPEC = ".16e"


def spec_scopes(source: str) -> set[str]:
    """The outermost class or function around each string or bytes literal
    of ``source`` that holds ``SPEC``, ``"<module>"`` at the top level.
    Docstrings and other bare string statements format nothing and are
    skipped."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return
        if isinstance(node, ast.Constant) and isinstance(node.value, str | bytes):
            text = node.value if isinstance(node.value, str) else node.value.decode("latin-1")
            if SPEC in text:
                found.add(scope)
        for child in ast.iter_child_nodes(node):
            inner = scope
            if scope == "<module>" and isinstance(
                    child, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
                inner = child.name
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_csv_writer_spells_the_number_format():
    uses = {(path.name, scope)
            for path in SRC.rglob("*.py") for scope in spec_scopes(path.read_text())}
    assert uses == {("emit.py", "_CsvWriter")}


def test_the_guard_sees_every_spelling_of_the_format():
    source = ('"""A docstring may name .16e."""\n'
              'ROW = "%.16e\\n"\n'
              'def f(v):\n    """Returns f"{v:.16e}"."""\n    return f"{v:.16e}"\n'
              'def g(v):\n    return "{:.16e}".format(v)\n'
              'def h(v):\n    return format(v, ".16e")\n'
              'class C:\n    def k(self, v):\n        return b"%.16e" % v\n'
              'def plain(v):\n    return f"{v:.6e}" + "%.16f" % v\n')
    assert spec_scopes(source) == {"<module>", "f", "g", "h", "C"}


def test_the_guard_catches_a_second_format_in_the_package():
    # The weights emit as it was before the writer: one f-string a row.
    emit = (SRC / "fracdiff1d" / "emit.py").read_text()
    mutated = emit.replace(
        "def emit_weights_csv(weights: GrunwaldWeights, path: Path) -> None:\n",
        "def emit_weights_csv(weights: GrunwaldWeights, path: Path) -> None:\n"
        "    rows = [f\"{i},{v:.16e}\\n\" for i, v in enumerate(weights.values)]\n")
    assert mutated != emit
    assert spec_scopes(mutated) == {"_CsvWriter", "emit_weights_csv"}
