"""The CSV files of the command line: a run's time series with its meta
sidecar, an iteration matrix and a weight table, each written through the
package's one CSV writer.

Kept apart from :mod:`~fracdiff1d.cli`, which imports it: a launch
without bytecode compiles each module whole, and the compile of ``cli``
(about 1.1 MiB traced at its peak, the most of any module) sets the peak
memory of a short run.  This module compiles after that memory is freed,
at about a quarter of it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

from .grunwald import GrunwaldWeights
from .operators import IterationMatrix
from .timestepper import TimeSeries

__all__ = ["emit_matrix_csv", "emit_timeseries_csv", "emit_weights_csv"]


class _CsvWriter:
    """The one CSV writer, where the number format is defined: every float
    as ``%.16e``, the 17 significant digits of ``f"{v:.16e}"``, which
    round-trip ``float64``.  Rows go through bytes ``%`` templates that hold
    their fixed columns and separators, at most :attr:`ROWS` a write, into a
    binary file: every line ends with ``\\n`` on every platform."""

    ROWS = 256

    def __init__(self, out: BinaryIO, header: str | None = None) -> None:
        self.out = out
        if header is not None:
            out.write(header.encode() + b"\n")

    @staticmethod
    def numbers(values: Iterable[float]) -> list[bytes]:
        """The text of each of ``values``, for a template's fixed columns."""
        return [b"%.16e" % v for v in values]

    @staticmethod
    def template(leads: Iterable[bytes], width: int, keyed: bool = False) -> bytes:
        """A row a lead: the lead, then ``width`` floats, comma-separated.
        A ``keyed`` template's leads may hold ``%(t)s`` for :meth:`write`."""
        row = b",".join([b"%%.16e" if keyed else b"%.16e"] * width) + b"\n"
        return b"".join(lead + row for lead in leads)

    def write(self, template: bytes, values: Sequence[float],
              t: float | None = None) -> None:
        """``template``'s rows with ``values``, and a keyed one's ``t``."""
        if t is not None:
            template %= {b"t": b"%.16e" % t}
        self.out.write(template % tuple(values))


def emit_timeseries_csv(series: TimeSeries, path: Path) -> None:
    """Write long-format ``t,x,u`` rows (snapshot-major) plus a meta sidecar.

    The sidecar ``<path>.meta.json`` carries the run's recipe (its
    :class:`SolverConfig`), the mass trace, the absorption ledger, and the
    actual snapshot times.
    """
    config, spec = series.config, series.spec
    n, rows = spec.n, _CsvWriter.ROWS
    # A template a block of nodes, for every snapshot: the x column's text.
    templates = []
    for start in range(0, n + 1, rows):
        x = _CsvWriter.numbers(j / n for j in range(start, min(start + rows, n + 1)))
        templates.append(_CsvWriter.template((b"%(t)s," + v + b"," for v in x), 1, keyed=True))
    with Path(path).open("wb") as out:
        csv = _CsvWriter(out, "t,x,u")
        for t, snap in zip(series.times, series.snapshots):
            for k, template in enumerate(templates):
                csv.write(template, snap.values[k * rows : (k + 1) * rows].tolist(), t)
    meta = {
        "alpha": spec.alpha,
        "c": spec.c,
        "n": spec.n,
        "deriv": spec.form.value,
        "left": spec.left.value,
        "right": spec.right.value,
        "dt": config.dt,
        "t_end": config.t_end,
        "ic": config.initial.label(),
        "method": config.method.value,
        "mass_trace": list(series.mass_trace),
        "absorbed_cumulative": list(series.absorbed_cumulative),
        "requested_snapshot_times": list(config.snapshot_times),
        "actual_snapshot_times": list(series.times),
    }
    Path(f"{path}.meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def emit_matrix_csv(matrix: IterationMatrix, path: Path) -> None:
    """One matrix row per line, full-precision scientific notation, written
    one row at a time through one template."""
    template = _CsvWriter.template((b"",), matrix.n + 1)
    with Path(path).open("wb") as out:
        csv = _CsvWriter(out)
        for row in matrix.entries:
            csv.write(template, row.tolist())


def emit_weights_csv(weights: GrunwaldWeights, path: Path) -> None:
    """``i,g`` rows for the weight prefix, written a block of rows at a
    time, each through its own template."""
    values, rows = weights.values, _CsvWriter.ROWS
    with Path(path).open("wb") as out:
        csv = _CsvWriter(out, "i,g")
        for start in range(0, values.size, rows):
            block = values[start : start + rows].tolist()
            leads = (b"%d," % i for i in range(start, start + len(block)))
            csv.write(_CsvWriter.template(leads, 1), block)
