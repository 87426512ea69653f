"""The CSV number format is spelled in one place.

Every float the package writes to a CSV goes through ``emit._CsvWriter``,
which formats it as ``%.16e``.  A ``.16e`` anywhere else in ``src/`` (an
f-string's format spec, a ``format`` spec or a ``%`` literal) would be a
second definition of the format: it must use the writer or change this
test.  Docstrings and other bare string statements format nothing, and
the scope walker skips them."""

import ast

from support import SRC, scopes, scopes_in_src

SPEC = ".16e"
WRITER = {"_CsvWriter.numbers", "_CsvWriter.template", "_CsvWriter.write"}


def spells_the_format(node: ast.AST) -> bool:
    """A string or bytes literal that holds ``SPEC``."""
    return isinstance(node, ast.Constant) and (
        isinstance(node.value, str) and SPEC in node.value
        or isinstance(node.value, bytes) and SPEC.encode() in node.value)


def test_only_the_csv_writer_spells_the_number_format():
    assert scopes_in_src(spells_the_format) == {("emit.py", scope) for scope in WRITER}


def test_the_guard_sees_every_spelling_of_the_format():
    source = ('"""A docstring may name .16e."""\n'
              'ROW = "%.16e\\n"\n'
              'def f(v):\n    """Returns f"{v:.16e}"."""\n    return f"{v:.16e}"\n'
              'def g(v):\n    return "{:.16e}".format(v)\n'
              'def h(v):\n    return format(v, ".16e")\n'
              'class C:\n    def k(self, v):\n        return b"%.16e" % v\n'
              'def plain(v):\n    return f"{v:.6e}" + "%.16f" % v\n')
    assert scopes(source, spells_the_format) == {"<module>", "f", "g", "h", "C.k"}


def test_the_guard_catches_a_second_format_in_the_package():
    # The weights emit as it was before the writer: one f-string a row.
    emit = (SRC / "fracdiff1d" / "emit.py").read_text()
    mutated = emit.replace(
        "def emit_weights_csv(weights: GrunwaldWeights, path: Path) -> None:\n",
        "def emit_weights_csv(weights: GrunwaldWeights, path: Path) -> None:\n"
        "    rows = [f\"{i},{v:.16e}\\n\" for i, v in enumerate(weights.values)]\n")
    assert mutated != emit
    assert scopes(mutated, spells_the_format) == WRITER | {"emit_weights_csv"}
