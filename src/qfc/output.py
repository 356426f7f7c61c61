"""Plain-text artifact writers: CSV tables and PGM rasters.

Both formats embed the run configuration as ``# key=value`` comment lines so
an output file is self-describing.  Floats are printed with 17 significant
digits, which round-trips IEEE doubles exactly; together with fixed "\n" line
endings this makes outputs stable enough to diff byte for byte.

A table reaches ``write_csv`` as columns, one array per header name, and
each row is rendered by one ``%`` template built from the column dtypes, so
no cell is dispatched on its type; the bytes are those of ``format_value``.
"""

from __future__ import annotations

import numpy as np


def format_value(value):
    """Render one CSV cell / preamble value.

    Floats use %.17g so that re-parsing recovers the exact double; ints
    (bools as 0/1) and strings pass through unchanged.
    """
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


# printf conversion per dtype kind: float, int, unsigned, bool, str, object
_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d", "U": "%s", "O": "%s"}
_BLOCK = 4096  # rows per write of a 1-d table


def _write_preamble(fh, preamble):
    for key, value in (preamble or {}).items():
        fh.write("# %s=%s\n" % (key, format_value(value)))


def write_csv(path, header, columns, preamble=None):
    """Write a comma-separated table with an optional ``# key=value`` preamble.

    columns holds one entry per header name, all of one shape: a float array
    is printed with %.17g, an int or bool array with %d, a list (or object
    array) of str as it is -- the bytes format_value gives each cell.  A 1-d
    table is written in blocks of rows, a 2-d grid one row at a time, so an
    axis column may be an ``np.broadcast_to`` view of its formatted cells.
    The preamble mapping is emitted in insertion order before the header row.
    """
    header = list(header)
    columns = [np.asarray(c) for c in columns]
    shape = columns[0].shape if columns else (0,)
    if (len(columns) != len(header) or len(shape) not in (1, 2)
            or any(c.shape != shape or c.dtype.kind not in _FORMATS for c in columns)):
        raise ValueError("need one float, int, bool or str column per header name "
                         "%s, all of one 1-d or 2-d shape; got %s"
                         % (header, [(c.dtype, c.shape) for c in columns]))
    template = ",".join(_FORMATS[c.dtype.kind] for c in columns) + "\n"
    blocks = (range(shape[0]) if len(shape) == 2 else
              [slice(lo, lo + _BLOCK) for lo in range(0, shape[0], _BLOCK)])
    with open(path, "w", newline="\n") as fh:
        _write_preamble(fh, preamble)
        fh.write(",".join(header) + "\n")
        for block in blocks:
            cells = [c[block].tolist() for c in columns]
            fh.write("".join(map(template.__mod__, zip(*cells))))


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
    with open(path, "w", newline="\n") as fh:
        fh.write("P2\n")
        _write_preamble(fh, preamble)
        fh.write("%d %d\n255\n" % (width, height))
        for row in scaled:
            fh.write(" ".join(map(str, row.tolist())) + "\n")
