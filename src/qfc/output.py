"""Plain-text artifact writers: CSV tables and PGM rasters.

Both formats embed the run configuration as ``# key=value`` comment lines so
an output file is self-describing.  Floats are printed with 17 significant
digits, which round-trips IEEE doubles exactly; together with fixed "\n" line
endings this makes outputs stable enough to diff byte for byte.
"""

from __future__ import annotations

import numpy as np


def format_value(value):
    """Render one CSV cell / preamble value.

    Floats use %.17g so that re-parsing recovers the exact double; ints and
    strings pass through unchanged.
    """
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


# Exact-type renderers for the common cell types, byte for byte what
# format_value returns; any other type (bool included) goes through it.
_CELL = {str: str, int: str, float: "%.17g".__mod__, np.float64: "%.17g".__mod__}


def _write_preamble(fh, preamble):
    if not preamble:
        return
    for key, value in preamble.items():
        fh.write("# %s=%s\n" % (key, format_value(value)))


def write_csv(path, header, rows, preamble=None):
    """Write a comma-separated table with an optional ``# key=value`` preamble.

    header is a sequence of column names, rows an iterable of row sequences.
    The preamble mapping is emitted in insertion order before the header row.
    """
    header = list(header)
    with open(path, "w", newline="\n") as fh:
        _write_preamble(fh, preamble)
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [_CELL.get(type(v), format_value)(v) for v in row]
            if len(cells) != len(header):
                raise ValueError("row width %d does not match header width %d"
                                 % (len(cells), len(header)))
            fh.write(",".join(cells) + "\n")


def write_pgm(path, counts, max_iters, preamble=None):
    """Write an ASCII (P2) grayscale image of an iteration-count grid.

    Counts are scaled so max_iters maps to white (255); the sentinel -1 for
    pixels with no detected cycle maps to black.  Comment lines carrying the
    configuration go between the magic number and the dimensions, where every
    PGM reader skips them.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2:
        raise ValueError("counts must be a 2-d array")
    if max_iters <= 0:
        raise ValueError("max_iters must be positive")
    height, width = counts.shape
    scaled = np.rint(255.0 * np.maximum(counts, 0) / float(max_iters))
    scaled = np.clip(scaled, 0, 255).astype(int)
    scaled[counts < 0] = 0
    with open(path, "w", newline="\n") as fh:
        fh.write("P2\n")
        _write_preamble(fh, preamble)
        fh.write("%d %d\n255\n" % (width, height))
        for row in scaled:
            fh.write(" ".join(str(v) for v in row) + "\n")
