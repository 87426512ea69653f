"""The ``fracdiff1d`` console entry: it runs :mod:`fracdiff1d.cli` as a
program, as ``python -m fracdiff1d.cli`` does, so the command line sets its
BLAS thread default before numpy loads.  Importing :mod:`fracdiff1d.cli` as
a library leaves the environment as it is."""

import runpy


def main() -> None:
    """Run :mod:`fracdiff1d.cli` as ``__main__``; it exits with the
    command's code."""
    runpy.run_module("fracdiff1d.cli", run_name="__main__", alter_sys=True)
