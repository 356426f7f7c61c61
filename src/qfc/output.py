"""Plain-text artifact writers: CSV tables and PGM rasters.

Both formats embed the run configuration as ``# key=value`` comment lines so
an output file is self-describing.  Floats are printed with 17 significant
digits, which round-trips IEEE doubles exactly; together with fixed "\n" line
endings this makes outputs stable enough to diff byte for byte.  Every cell's
bytes are those of ``format_value``.

A table reaches ``write_csv`` as columns, one array per header name.  A table
of fewer than _TEMPLATE_CELLS cells (every ensemble study's) is written with
one ``%`` row template.  Larger tables (the stabilize gap surface, the julia
table) and every PGM go through one renderer, ``_write_lines``: each block of
lines becomes a zero-padded uint8 matrix, one slot per cell followed by its
separator, and the file receives the matrix's bytes with the NULs deleted
(``bytes.translate``), which works because no cell's text contains a NUL
byte.  Int, bool and text cells, and those of a broadcast float axis, index
a table of their distinct texts.  The other float cells of a block, of all
its float columns, go through one call of ``_float_slots``: a float with
1e-29 < |x| < 1e16 is printed by its exact vectorised %.17g, ±0 directly,
and every other float (nan, ±inf, |x| <= 1e-29, |x| >= 1e16 and the rare
tiny near-tie) by ``"%.17g" % x``.
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


_KINDS = "fiubUO"  # float, int, unsigned, bool, str, object (of str)
# Tables below this many cells take the row template.  On float tables the
# renderer is as fast from about 450 cells with 4 columns and 600 with 6
# (0.32-0.36 ms), and faster above; the bound keeps every ensemble table (at
# most 1604 cells, spin-collapse in the benchmark) on the template.
_TEMPLATE_CELLS = 2048
_BLOCK_CELLS = 24576  # cells per rendered block, the fastest tried on the stabilize surface

# Exact %.17g of a double x with 1e-29 < |x| < 1e16: positional from 1e-4
# up, exponent form (e-05 ... e-29) below.  With k = floor(log10|x|), the
# 17 significant digits are D = |x| * 10^(16 - k) rounded to an integer,
# ties to even, as the dtoa of Python's % rounds.  With q = 16 - k <= 45,
# 10^q = 2^q 5^q and 5^q < 2^106, so 10^q is exactly t + r in two doubles
# (r = 0 for q <= 22, k >= -6).  Dekker's two-product (Numer. Math. 18,
# 1971) splits |x| * t exactly into hi + lo; hi is at least 1e16 > 2^53,
# so it is an even integer and D = hi + rint(lo + |x| * r), rint rounding
# ties to even.  For k < -6 that last product and sum round, by less than
# 3e-15 of a unit, so a cell whose fraction lies within 1e-14 of one half
# is left to "%.17g" % x.  No double in range lies within a relative 1e-18
# of a power of ten, far outside that error, so k is corrected on the
# computed product.  The closest, the double 1e-14, lies 1.2e-18 below
# 10^-14: its D rounds up to 10^17 and carries into k + 1.
_SPLITTER = 134217729.0  # 2^27 + 1
_KMIN = -29


def _split(a):
    """Dekker's split of a into hi + lo, each with at most 26 significant bits."""
    t = a * _SPLITTER
    hi = t - (t - a)
    return hi, a - hi


_POW10 = np.array([float(10 ** q) for q in range(17 - _KMIN)])
# row q: 10^q's double, Dekker's split of it and the rest, 10^q - double
_POW10_PARTS = np.stack([_POW10, *_split(_POW10),
                         [float(10 ** q - int(h)) for q, h in enumerate(_POW10)]], axis=1)
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)


_FULL, _LEAD, _TRAIL = 0, 10000, 20000  # offsets into _CHUNKS


def _digit_groups():
    """The text of 0..9999 as four digits, one little-endian uint32 each.

    From _FULL the digits are as is, from _LEAD with leading zeros blanked
    (NUL) and from _TRAIL with trailing zeros blanked.
    """
    n = np.arange(10000, dtype=np.uint32)
    table = np.zeros(30000, "<u4")
    for i, place in enumerate((1000, 100, 10, 1)):
        char = (n // place % 10 + 48) << (8 * i)
        table[_FULL:_LEAD] += char
        table[_LEAD:_TRAIL] += char * (n >= place)
        table[_TRAIL:] += char * (n % (10 * place) != 0)
    return table


_CHUNKS = _digit_groups()
_EXPONENTS = range(_KMIN, 16)
# sign and what precedes the digits at exponent k: "0." and -k-1 zeros for
# -4 <= k < 0; _HEAD[negative * len(_EXPONENTS) + k - _KMIN], a uint64
_HEAD = np.array([(sign + (b"0.000"[:1 - k] if -4 <= k < 0 else b"")).rjust(8, b"\0")
                  for sign in (b"", b"-") for k in _EXPONENTS], dtype="S8").view("<u8")
# what follows the digits at exponent k: _EXPONENT[k - _KMIN], a uint32
_EXPONENT = np.array([b"e-%02d" % -k if k < -4 else b"" for k in _EXPONENTS],
                     dtype="S4").view("<u4")


def _scaled(y, k):
    """(hi, lo) with hi + lo = y * 10^(16 - k), exactly for k >= -6."""
    t, th, tl, r = _POW10_PARTS.take(16 - k, axis=0).T
    yh, yl = _split(y)
    hi = y * t
    return hi, (((yh * th - hi) + yh * tl + yl * th) + yl * tl) + y * r


def _digits17(y):
    """(k, D, sure): y = D * 10^(k - 16) to 17 digits where sure, for 1e-29 < y < 1e16."""
    # k >= _KMIN for y > 1e-29, even where log10 rounds below it
    k = np.maximum(np.floor(np.log10(y)), _KMIN).astype(np.int64)
    hi, lo = _scaled(y, k)
    # log10 may round across a power of ten: correct k on the product,
    # whose sign against 1e16 (1e17) the first difference keeps exactly
    below, above = hi - 1e16 + lo < 0, hi - 1e17 + lo >= 0
    if (below | above).any():
        k = k - below + above
        hi, lo = _scaled(y, k)
    d = np.rint(lo)
    sure = (k >= -6) | (np.abs(lo - d) < 0.5 - 1e-14)
    d = hi.astype(np.int64) + d.astype(np.int64)
    carry = d == _POW10_INT[17]
    if carry.any():
        k, d = k + carry, np.where(carry, _POW10_INT[16], d)
    return k, d, sure


def _groups(v, out, blank):
    """Write v < 10^(4n) into out, n four-digit groups (uint32), highest first.

    blank is _LEAD to blank v's leading zeros (an integer part), _TRAIL to
    blank its trailing zeros (a fraction's digits).
    """
    top = v
    for j in range(out.shape[1] - 1, -1, -1):
        unit = _POW10_INT[4 * j]
        g = v // unit
        v = v - g * unit
        # a leading group has no nonzero group above, a trailing none below
        bare = top < 10000 * unit if blank == _LEAD else v == 0
        out[:, -1 - j] = _CHUNKS.take(g + bare * blank)


def _float_slots(x):
    """format_value of each float in x, as rows of NUL-padded bytes.

    The row of a float with 1e-29 < |x| < 1e16 holds five fields, whose NUL
    bytes fall away when it is written: the sign and any "0.000" prefix
    (_HEAD, right-aligned over the integer field's blank leading bytes),
    the integer part, the point, 16 fraction digits and any exponent.  For
    |x| < 1 the integer field holds the first significant digit, and in
    positional form the prefix holds the point.  ±0 is written directly and
    every other float (nan, ±inf, |x| <= 1e-29 or >= 1e16, which print in
    exponent form, and the rare tiny x whose rounding _digits17 cannot
    decide) by "%.17g" % x, both right-aligned, so that a row's padding
    comes first and _write_lines can drop a column's shared NUL margins.
    """
    a = np.abs(x)
    fast = (a > 1e-29) & (a < 1e16)  # the double 1e-29 lies below 10^-29
    k, d, sure = _digits17(np.where(fast, a, 1.0))
    kk = np.maximum(k, 0)
    unit = _POW10_INT.take(16 - kk)
    whole = d // unit
    part = d - whole * unit
    w = len(str(whole.max()))  # digits of the integer field
    n = (w + 3) // 4  # its groups
    out = np.zeros((x.size, 29 + 4 * n), np.uint8)
    e = k - _KMIN
    _groups(whole, out[:, 8:8 + 4 * n].view("<u4"), _LEAD)
    # the right-aligned head overwrites the integer field's blank lead
    out[:, 4 * n - w:8 + 4 * n - w].view("<u8")[:, 0] = _HEAD.take(
        np.signbit(x) * len(_EXPONENTS) + e)
    out[:, 8 + 4 * n] = (((k >= 0) | (k < -4)) & (part > 0)) * np.uint8(46)  # "."
    _groups(part * _POW10_INT.take(kk), out[:, 9 + 4 * n:25 + 4 * n].view("<u4"), _TRAIL)
    out[:, 25 + 4 * n:].view("<u4")[:, 0] = _EXPONENT.take(e)
    zero = np.flatnonzero(a == 0)
    rest = np.flatnonzero(~(fast & sure) & (a != 0))
    width = out.shape[1]
    for rows, texts in ((zero, np.where(np.signbit(x[zero]), b"-0".rjust(width, b"\0"),
                                        b"0".rjust(width, b"\0"))),
                        (rest, [("%.17g" % v).encode().rjust(width, b"\0")
                                for v in x[rest].tolist()])):
        if rows.size:
            out[rows] = np.array(texts, "S%d" % width).view(np.uint8).reshape(rows.size, -1)
    return out


def _table(c):
    """(slots, index): cell i of an int, bool, text or float column is slots[index[i]].

    Each distinct text is encoded once.  A text or float column's stride-0
    axes (an np.broadcast_to view, such as a grid axis) are collapsed and
    its index broadcast back, so the column is never materialised.  An int
    column indexes a table by value - min when its range is smaller than the
    column, else by np.unique.
    """
    if c.dtype.kind in "fUO":
        base = c[tuple(slice(None) if s else slice(0, 1) for s in c.strides)]
        texts = list(map("%.17g".__mod__ if c.dtype.kind == "f" else str, base.ravel().tolist()))
        index = np.broadcast_to(np.arange(base.size).reshape(base.shape), c.shape)
    else:
        if c.dtype.kind == "b":
            c = c.view(np.uint8)
        if c.size and int(c.max()) - int(c.min()) < c.size:
            lo = c.min()
            texts = [str(v) for v in range(int(lo), int(c.max()) + 1)]
            index = c - lo
        else:
            values, index = np.unique(c, return_inverse=True)
            texts = [str(v) for v in values.tolist()]
            index = index.reshape(c.shape)
    slots = np.array([t.encode() for t in texts], dtype=bytes)
    return slots.view(np.uint8).reshape(len(slots), slots.itemsize), index


def _write_lines(fh, columns, sep, line_cells=1):
    """The one renderer of CSV and PGM cells.

    columns are float arrays or _table pairs that share axis 0.  Each line
    takes line_cells cells of every column in turn, each followed by sep and
    the line's last by "\n".  A block of about _BLOCK_CELLS cells becomes
    one uint8 matrix, a row per line and a slot per cell, and is written
    without its NUL padding.  All float cells of a block go through one
    _float_slots call, and each float column drops its all-NUL byte margins.
    """
    shapes = [np.shape(c[1] if isinstance(c, tuple) else c) for c in columns]
    units = shapes[0][0]
    step = max(1, _BLOCK_CELLS * units // max(1, sum(int(np.prod(s)) for s in shapes)))
    floats = [c for c in columns if not isinstance(c, tuple)]
    for lo in range(0, units, step):
        block = slice(lo, lo + step)
        if floats:
            x = np.concatenate([c[block].ravel() for c in floats]).astype(np.float64, copy=False)
            slots = _float_slots(x).reshape(len(floats), x.size // len(floats), -1)
            live = slots  # the byte columns any slot uses: OR halves of the rows
            while live.shape[1] > 1:
                h = (live.shape[1] + 1) // 2
                live = live[:, :h] | live[:, -h:]
            live = live[:, 0] != 0
            slots = iter(s[:, u.argmax():u.size - u[::-1].argmax()] for s, u in zip(slots, live))
        parts = [np.take(c[0], c[1][block].ravel(), axis=0) if isinstance(c, tuple)
                 else next(slots) for c in columns]
        lines = len(parts[0]) // line_cells
        matrix = np.full((lines, sum(line_cells * (p.shape[1] + 1) for p in parts)),
                         ord(sep), np.uint8)
        at = 0
        for p in parts:  # each slot copied as one raw item, not byte by byte; sep follows
            w, slot = p.shape[1], "V%d" % p.shape[1]
            cells = matrix[:, at:at + line_cells * (w + 1)].reshape(lines, line_cells, w + 1)
            cells[:, :, :w].view(slot)[...] = p.reshape(lines, line_cells, w).view(slot)
            at += line_cells * (w + 1)
        matrix[:, -1] = ord("\n")
        fh.write(matrix.tobytes().translate(None, b"\0"))


def _write_preamble(fh, preamble):
    for key, value in (preamble or {}).items():
        fh.write(("# %s=%s\n" % (key, format_value(value))).encode())


def write_csv(path, header, columns, preamble=None):
    """Write a comma-separated table with an optional ``# key=value`` preamble.

    columns holds one entry per header name, all of one 1-d or 2-d shape: a
    float array is printed with %.17g, an int or bool array as integers, a
    list (or array) of str as it is; a 2-d table is written row-major, and
    an axis column may be an ``np.broadcast_to`` view of its values.  A table
    of fewer than _TEMPLATE_CELLS cells is one ``%`` row template, a larger
    one goes through _write_lines.  The preamble mapping is emitted in
    insertion order before the header row.
    """
    header = list(header)
    columns = [np.asarray(c) for c in columns]
    shape = columns[0].shape if columns else (0,)
    if (len(columns) != len(header) or len(shape) not in (1, 2)
            or any(c.shape != shape or c.dtype.kind not in _KINDS for c in columns)):
        raise ValueError("need one float, int, bool or str column per header name "
                         "%s, all of one 1-d or 2-d shape; got %s"
                         % (header, [(c.dtype, c.shape) for c in columns]))
    with open(path, "wb") as fh:
        _write_preamble(fh, preamble)
        fh.write((",".join(header) + "\n").encode())
        if len(columns) * int(np.prod(shape)) < _TEMPLATE_CELLS:
            line = (",".join({"f": "%.17g", "i": "%d", "u": "%d", "b": "%d"}.get(
                c.dtype.kind, "%s") for c in columns) + "\n").__mod__
            cells = [c.ravel().tolist() for c in columns]
            fh.write("".join(map(line, zip(*cells))).encode())
        else:
            _write_lines(fh, [c if c.dtype.kind == "f" and all(c.strides) else _table(c)
                              for c in columns], ",")


def write_pgm(path, counts, max_iters, preamble=None):
    """Write an ASCII (P2) grayscale image of an iteration-count grid.

    Counts are scaled so max_iters maps to white (255); the sentinel -1 for
    pixels with no detected cycle maps to black.  The gray levels go through
    _table and _write_lines, as an int CSV column does, one image row per
    line.  Comment lines carrying the configuration go between the magic
    number and the dimensions, where every PGM reader skips them.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2:
        raise ValueError("counts must be a 2-d array")
    if max_iters <= 0:
        raise ValueError("max_iters must be positive")
    height, width = counts.shape
    levels = np.clip(np.rint(255.0 * np.maximum(counts, 0) / float(max_iters)),
                     0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P2\n")
        _write_preamble(fh, preamble)
        fh.write(b"%d %d\n255\n" % (width, height))
        if counts.size:
            _write_lines(fh, [_table(levels)], " ", width)
