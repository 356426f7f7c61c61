"""Tests for the artifact writers and the command-line front end."""

import ast
import decimal
import hashlib
import importlib.util
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import qfc.cli as cli
import qfc.output as out
from qfc.stochastic import MAX_CHUNK_FLOATS, RngStream, chunk_floats


def read_lines(path):
    text = path.read_bytes().decode()
    assert "\r" not in text
    return text.splitlines()


def preamble_map(lines):
    pre = {}
    for line in lines:
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition("=")
        pre[key] = value
    return pre


def test_format_value():
    assert out.format_value(True) == "1"
    assert out.format_value(False) == "0"
    assert out.format_value(np.bool_(True)) == "1"  # as a bool column prints
    assert out.format_value(7) == "7"
    assert out.format_value(np.int64(-3)) == "-3"
    assert out.format_value("512x512") == "512x512"
    for x in (0.1, 1.0 / 3.0, math.pi, 1e-300, -2.5e17, 0.5):
        assert float(out.format_value(x)) == x
        assert float(out.format_value(np.float64(x))) == x


def test_write_csv(tmp_path):
    path = tmp_path / "t.csv"
    out.write_csv(path, ["a", "b"], [np.array([1, 2]), np.array([0.5, 1.0 / 3.0])],
                  preamble={"command": "probe", "k": 0.25})
    lines = read_lines(path)
    assert lines[0] == "# command=probe"
    assert lines[1] == "# k=0.25"
    assert lines[2] == "a,b"
    assert lines[3] == "1,0.5"
    assert float(lines[4].split(",")[1]) == 1.0 / 3.0

    bad = tmp_path / "bad.csv"
    with pytest.raises(ValueError):  # one column for a two-column header
        out.write_csv(bad, ["a", "b"], [np.array([1])])
    with pytest.raises(ValueError):  # columns of unequal length
        out.write_csv(bad, ["a", "b"], [np.array([1, 2]), np.array([0.5])])


def assert_lines_equal(path, expected):
    """Byte equality, reporting only the first differing line."""
    got = path.read_bytes().decode().split("\n")
    want = expected + [""]  # every line, the last included, ends in "\n"
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"line {i}: wrote {a!r}, format_value gives {b!r}"
    assert len(got) == len(want)


def test_write_csv_matches_format_value_per_cell(tmp_path, monkeypatch):
    rendered, write_lines = [], out._write_lines
    monkeypatch.setattr(out, "_write_lines",
                        lambda *args: rendered.append(args) or write_lines(*args))

    def write(header, columns, preamble=None):
        # every table with cells, a one-row table too, goes through the one
        # renderer, and a table without cells writes only its preamble and header
        before = len(rendered)
        out.write_csv(path, header, columns, preamble)
        assert len(rendered) == before + (np.size(columns[0]) > 0)

    # random bit patterns cover every exponent, subnormals and nan payloads
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, np.finfo(float).max]
    floats = np.concatenate([special, rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)])
    m = len(floats)
    columns = [floats, rng.integers(0, 2**64, m, dtype=np.uint64).view(np.int64),
               rng.random(m) < 0.5, [f"s{i}" for i in range(m)]]
    path = tmp_path / "oracle.csv"
    write(["x", "n", "b", "s"], columns)
    expected = ["x,n,b,s"] + [
        ",".join(out.format_value(v) for v in row)
        for row in zip(floats.tolist(), columns[1].tolist(), columns[2].tolist(), columns[3])]
    assert_lines_equal(path, expected)

    # a grid: every column shares one 2-d shape and is written row-major
    grid = floats[:12].reshape(3, 4)
    axis = np.broadcast_to(np.array(["a", "b", "c"], dtype=object)[:, None], grid.shape)
    write(["row", "x"], [axis, grid])
    assert_lines_equal(path, ["row,x"] + [f"{label},{out.format_value(v)}"
                                          for label, row in zip("abc", grid.tolist())
                                          for v in row])

    # text alone, no float column: the cells of each row are joined
    def per_cell(columns):
        cells = [np.asarray(c).ravel().tolist() for c in columns]
        return [",".join(map(out.format_value, row)) for row in zip(*cells)]

    shape = (5, 7)
    ints = rng.integers(-50, 50, shape)
    ints[0, :2] = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    columns = [np.broadcast_to(np.array(list("vwxyz"), dtype=object)[:, None], shape),
               np.broadcast_to(np.array([f"t{j}" for j in range(7)], dtype=object), shape),
               ints, rng.random(shape) < 0.5]
    write(["a", "b", "n", "flag"], columns)
    assert_lines_equal(path, ["a,b,n,flag"] + per_cell(columns))

    columns = [rng.integers(2**63, 2**64, 9_000, dtype=np.uint64), rng.random(9_000) < 0.5]
    write(["u", "flag"], columns)
    assert_lines_equal(path, ["u,flag"] + per_cell(columns))

    # a grid of broadcast text axes, edge floats, long doubles (printed as
    # the nearest double, as format_value prints them), ints of a small range
    # (indexed by value - min) and bools
    shape = (40, 60)
    columns = [np.broadcast_to(np.array([f"r{i}" for i in range(40)], dtype=object)[:, None],
                               shape),
               np.broadcast_to(np.array([str(j / 7) for j in range(60)]), shape),
               rng.choice(edge_floats(), shape), np.longdouble(1) / rng.integers(3, 10**6, shape),
               rng.integers(-1, 400, shape), rng.random(shape) < 0.5]
    write(["a", "b", "x", "y", "n", "flag"], columns)
    assert_lines_equal(path, ["a,b,x,y,n,flag"] + per_cell(columns))

    # one row and no rows, as a list, a column and a grid
    for shape in ((1,), (1, 1), (0,), (0, 3), (2, 0)):
        columns = [rng.choice(edge_floats(), shape), np.broadcast_to(-0.1, shape),
                   rng.integers(-9, 9, shape), rng.random(shape) < 0.5,
                   np.full(shape, "s", dtype=object)]
        write(["x", "axis", "n", "b", "s"], columns, preamble={"rows": shape[0]})
        assert_lines_equal(path, [f"# rows={shape[0]}", "x,axis,n,b,s"] + per_cell(columns))


def edge_floats():
    """Doubles where a %.17g shortcut could slip, each with both signs.

    +-40 ulps around 10^j for j in [-31, 18] (log10 rounding across a power
    of ten; both sides of 1e-29, 1e-4, 1e16 and 1e17; the largest double
    below a power of ten, whose 17 digits are all nines and must not carry,
    and the double 1e-14, which lies so close below 10^-14 that they do),
    exact ties m / 2^(q+1) for q in [1, 24] (odd m with m 5^(q+1) of 18
    digits, so that the 18th significant digit is a final 5; none exist for
    q > 24), near ties below 1e-6, and 0, the smallest subnormal and the
    largest double.

    A near tie y = m 2^e with k = floor(log10 y) has y 10^q = m 5^q / 2^s,
    q = 16 - k and s = -e - q; m = (2^(s-1) + d) / 5^q mod 2^s puts that
    product d / 2^s, under 1e-14, from a half-integer, closer than the
    rounded product with 10^q's tail can tell apart.
    """
    near = [np.float64(f"1e{j}").view(np.int64) + np.arange(-40, 41) for j in range(-31, 19)]
    rng = np.random.default_rng(17)
    ties = []
    for q in range(1, 25):
        five = 5 ** (q + 1)
        m = rng.integers(-(-10**17 // five), min(10**18 // five, 2**53), 300) | 1
        ties += [int(v) / 2.0 ** (q + 1) for v in m if int(v) * five < 10**18]
    for k, e, d in itertools.product((-9, -8, -7), range(-90, -70), (-3, -2, -1, 1, 2, 3)):
        s = -e - (16 - k)
        m = (2 ** (s - 1) + d) * pow(5 ** (16 - k), -1, 2 ** s) % 2 ** s
        m += -(-(2 ** 52 - m) // 2 ** s) * 2 ** s if m < 2 ** 52 else 0
        y = math.ldexp(m, e)
        if m < 2 ** 53 and 10.0 ** k <= y < 10.0 ** (k + 1) and abs(d) / 2 ** s < 1e-14:
            ties.append(y)
    x = np.concatenate([np.concatenate(near).view(np.float64), ties,
                        [0.0, 5e-324, np.finfo(float).max]])
    return np.concatenate([x, -x])


def slot_texts(x):
    """The text _float_slots gives each float, NUL padding dropped as the writer drops it."""
    return [bytes(row[row != 0]).decode() for row in out._float_slots(np.asarray(x, float))]


def test_float_slots_match_percent_format_on_edge_values():
    x = edge_floats()
    ties = [v for v in x.tolist() if 1e-6 < abs(v) < 1e16
            and len(decimal.Decimal(v).as_tuple().digits) == 18]
    assert len(ties) > 10_000  # the exact path meets many exact ties
    # below 1e-6 the product with 10^(16 - k) rounds: exact ties at k = -7
    # and -8, and near ties the rounded product cannot decide
    assert sum(1e-8 <= abs(v) < 1e-6 and len(decimal.Decimal(v).as_tuple().digits) == 18
               for v in x.tolist()) >= 10
    small = np.abs(x[(np.abs(x) > 1e-9) & (np.abs(x) < 1e-6)])
    assert (~out._digits17(small)[2]).sum() >= 50
    assert "%.17g" % 1e-14 == "1e-14"  # 9.99...988e-15 rounds up to 10^-14
    assert slot_texts(x) == ["%.17g" % v for v in x.tolist()]


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(st.lists(st.floats() | st.floats(1e-6, 1e16, exclude_min=True, exclude_max=True)
                           | st.floats(-1e16, -1e-6, exclude_min=True, exclude_max=True)
                           | st.floats(1e-300, 1e-6) | st.floats(-1e-6, -1e-300),
                           min_size=1))
def test_float_slots_match_percent_format(values):
    assert slot_texts(values) == ["%.17g" % v for v in values]


def test_renderer_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    # every float column of a block goes through one _float_slots call and
    # is split back by column; blocks of 1 cell (one table row, one PGM
    # row), of 97 cells (4 table rows, 2 PGM rows) and the default must
    # write the same bytes.  Broadcast float axes are tables of their
    # values, formatted once each.
    rng = np.random.default_rng(30)
    shape = (400, 3)
    tiny = 10 ** rng.uniform(-40, -5, shape) * rng.choice([-1.0, 1.0], shape)
    tiny.flat[::7] = 0.0
    columns = [np.broadcast_to(np.array([f"r{i}" for i in range(400)], dtype=object)[:, None],
                               shape),
               np.broadcast_to(np.array(["a", "bb", "ccc"]), shape),
               rng.choice(edge_floats(), shape), tiny, rng.integers(-5, 10**6, shape),
               rng.random(shape) < 0.5, rng.random(shape).astype(np.float32),
               np.broadcast_to(rng.choice(edge_floats(), 400)[:, None], shape),
               np.broadcast_to(np.longdouble(1) / np.array([-3, 7, 10**9]), shape)]
    header = ["r", "c", "edge", "tiny", "n", "flag", "f32", "xr", "xc"]
    counts = rng.integers(-1, 8, (60, 35))
    # the default block holds the whole table and the whole image
    assert len(columns) * 1200 <= out._BLOCK_CELLS and counts.size <= out._BLOCK_CELLS

    def written(block):
        monkeypatch.setattr(out, "_BLOCK_CELLS", block)
        out.write_csv(tmp_path / "t.csv", header, columns)
        out.write_pgm(tmp_path / "t.pgm", counts, 7)
        return (tmp_path / "t.csv").read_bytes(), (tmp_path / "t.pgm").read_bytes()

    default = written(out._BLOCK_CELLS)
    cells = [np.asarray(c).ravel().tolist() for c in columns]
    assert_lines_equal(tmp_path / "t.csv", [",".join(header)] + [
        ",".join(map(out.format_value, row)) for row in zip(*cells)])
    for block in (1, 97):
        assert written(block) == default


def test_write_pgm(tmp_path):
    path = tmp_path / "t.pgm"
    counts = np.array([[-1, 0], [5, 10]])
    out.write_pgm(path, counts, 10, preamble={"command": "probe"})
    lines = read_lines(path)
    assert lines[0] == "P2"
    assert lines[1] == "# command=probe"
    assert lines[2] == "2 2"
    assert lines[3] == "255"
    assert lines[4] == "0 0"
    assert lines[5] == "128 255"

    # byte oracle: the writer that formatted every pixel with str
    rng = np.random.default_rng(11)
    for max_iters in (1, 7, 400):
        counts = rng.integers(-1, 2 * max_iters, (13, 29), endpoint=True)
        out.write_pgm(path, counts, max_iters)
        scaled = np.rint(255.0 * np.maximum(counts, 0) / float(max_iters))
        scaled = np.clip(scaled, 0, 255).astype(int)
        rows = [" ".join(map(str, row)) for row in scaled.tolist()]
        assert_lines_equal(path, ["P2", "29 13", "255"] + rows)

    with pytest.raises(ValueError):
        out.write_pgm(path, np.arange(4), 10)
    with pytest.raises(ValueError):
        out.write_pgm(path, counts, 0)


def test_resolve_config_defaults():
    cfg = cli.resolve_config("julia", {}, None)
    assert cfg["p_re"] == 1.0
    assert cfg["grid"] == "512x512"
    assert cfg["max_iters"] == 400
    assert cfg["seed"] == 0
    assert cfg["threads"] == 1
    assert cfg["out"] == "qfc_julia"
    assert cli.resolve_config("spin-collapse", {}, None)["out"] == "qfc_spin_collapse"


def test_resolve_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 7\nmax_iters=50   # inline comment\n\n# full comment\n")
    cfg = cli.resolve_config("julia", {"seed": 9}, str(path))
    assert cfg["seed"] == 9          # flag beats file
    assert cfg["max_iters"] == 50    # file beats default


def test_resolve_config_aggregates_every_problem(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("bogus=1\nmax_iters=abc\n")
    with pytest.raises(cli.ConfigError) as info:
        cli.resolve_config("julia", {"cycle_tol": -1.0, "seed": -5}, str(path))
    text = str(info.value)
    assert len(info.value.problems) == 4
    for fragment in ("bogus", "max_iters", "cycle_tol", "seed"):
        assert fragment in text


def test_non_finite_floats_are_rejected(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("re_min=nan\n")
    with pytest.raises(cli.ConfigError) as info:
        cli.resolve_config("julia", {"p_re": math.inf, "cycle_tol": -1.0}, str(path))
    assert info.value.problems == ["p_re: must be finite",
                                   "cycle_tol: must be positive",
                                   "re_min: must be finite"]
    for argv, bad in ((["julia", "--re-min", "nan", "--p-re", "inf", "--grid", "8x8"],
                       ("p_re", "re_min")),
                      (["purify", "--t-max", "inf", "--k", "-inf"], ("k", "t_max")),
                      (["entangle", "--horizon", "inf", "--dt", "nan"], ("dt", "horizon"))):
        assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert [f"{name}: must be finite" in err for name in bad] == [True, True]
    # a step count that cannot run: t_max/dt overflowed int() ("cannot convert
    # float infinity to integer"), passed numpy's largest array size, or, for
    # entangle, asked for 1e301 steps
    for command, span in (("purify", "t_max"), ("sme-run", "t_max"),
                          ("spin-collapse", "t_max"), ("entangle", "horizon")):
        for dt in ("5e-324", "1e-300"):
            assert cli.main([command, "--dt", dt, "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            assert f"dt: {span} / dt must round to at most 2**63 - 1 steps, got " in err, command
            assert f" / {float(dt)!r}\n" in err, (command, dt)
    # a run whose chunk of trajectories cannot be held: sme-run at dt 1e-10
    # tried to allocate 7.45 GiB for its sample steps alone
    bound = "dt: min(trajectories, 256) x (ceil(t_max/dt/sample_every) + 1) must be at most"
    for argv in (["sme-run", "--dt", "1e-10"], ["purify", "--trajectories", "2", "--dt", "1e-14"],
                 ["spin-collapse", "--dt", "1e-12", "--sample-every", "1"]):
        assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert bound in capsys.readouterr().err, argv
    # an empty julia window is RasterJob's problem, named before the run too
    for argv in (["julia", "--re-min", "3"], ["julia", "--im-min", "1", "--im-max", "1"]):
        assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "re_min, re_max, im_min, im_max: raster window is empty, got (" in err, argv
    assert not list(tmp_path.glob("x.*"))
    # at the edge: 256 x (655350 / 10 + 1) floats is the bound, one step more passes it
    for steps, held in ((655350, True), (655351, False)):
        for command in ("sme-run", "purify", "spin-collapse"):
            values = {"t_max": float(steps), "dt": 1.0, "trajectories": 300, "sample_every": 10}
            if held:
                cli.resolve_config(command, values, None)
                continue
            with pytest.raises(cli.ConfigError) as info:
                cli.resolve_config(command, values, None)
            assert info.value.problems == [f"{bound} {2**24}, got {256 * 65537}"]


def test_resolve_config_unreadable_file():
    with pytest.raises(cli.ConfigError) as info:
        cli.resolve_config("julia", {}, "/nonexistent/qfc.cfg")
    assert "cannot read" in str(info.value)


def test_stabilize_spot_mode_needs_both_coordinates():
    with pytest.raises(cli.ConfigError) as info:
        cli.resolve_config("stabilize", {"p": 0.1}, None)
    assert "--theta" in str(info.value)
    cfg = cli.resolve_config("stabilize", {"p": 0.1, "theta": 0.7}, None)
    assert cfg["p"] == 0.1


def test_step_size_cross_check():
    # entangle's feedback acts once per step, so it is the one command that
    # bounds k*dt
    with pytest.raises(cli.ConfigError) as info:
        cli.resolve_config("entangle", {"k": 1.0, "dt": 2e-3}, None)
    assert "k*dt" in str(info.value)


@pytest.mark.parametrize("command", ["sme-run", "purify", "spin-collapse"])
def test_exact_samplers_do_not_depend_on_the_grid(command, tmp_path):
    # the QND records are sampled exactly, so a sample every 2^-4 gives the
    # same rows whether dt is 2^-10 (64 steps a sample) or 2^-4 (one step)
    rows = []
    for dt, every in ((2.0**-10, 64), (2.0**-4, 1)):
        base = tmp_path / f"g{every}"
        assert cli.main([command, "--dt", repr(dt), "--sample-every", str(every),
                         "--t-max", "0.5", "--trajectories", "300", "--seed", "4",
                         "--out", str(base)]) == 0
        lines = read_lines(base.with_suffix(".csv"))
        rows.append(lines[len(preamble_map(lines)):])
    assert len(rows[0]) == 1 + 9
    assert rows[0] == rows[1]


class ReadLog(dict):
    """A resolved configuration that records which keys a runner reads."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# flags that keep each run small; stabilize reads its spot and grid fields
# in separate modes
SMALL_RUNS = {
    "stabilize": [{"p": 0.1, "theta": 0.7, "samples": 10}, {"grid_size": 50}],
    "entangle": [{"dt": 1e-3}],
    "julia": [{"grid": "8x8", "max_iters": 5}],
    "spin-collapse": [{"t_max": 0.1}],
}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_command_field_is_read(command):
    spec, read = cli.COMMANDS[command], set()
    for flags in SMALL_RUNS.get(command, [{}]):
        cfg = ReadLog(cli.resolve_config(command, flags, None))
        spec.run(cfg)
        read |= cfg.read
    assert {f.name for f in spec.fields} - read == set()


def test_removed_flag_is_unknown(tmp_path, capsys):
    assert cli.main(["spin-collapse", "--s-detuning", "1", "--out", str(tmp_path / "c")]) == 2
    assert "unknown flag --s-detuning" in capsys.readouterr().err


def test_documented_flag_examples():
    values, _ = cli._parse_argv(
        "stabilize", ["--p", "0.115", "--theta", "0.715",
                      "--samples", "100000", "--seed", "7"])
    cfg = cli.resolve_config("stabilize", values, None)
    assert (cfg["p"], cfg["theta"]) == (0.115, 0.715)
    assert (cfg["samples"], cfg["seed"]) == (100000, 7)

    values, _ = cli._parse_argv(
        "julia", ["--p-re", "1", "--p-im", "0",
                  "--grid", "512x512", "--max-iters", "400"])
    cfg = cli.resolve_config("julia", values, None)
    assert cfg["grid"] == "512x512"
    assert cfg["max_iters"] == 400

    with pytest.raises(cli.ConfigError) as info:
        cli.resolve_config("purify", {"k": -1.0}, None)
    assert "k:" in str(info.value)


def test_main_usage_paths(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().err
    assert cli.main(["--help"]) == 0
    assert "commands" in capsys.readouterr().out
    assert cli.main(["frobnicate"]) == 2
    assert "unknown command" in capsys.readouterr().err


def test_main_command_help(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["julia", "--help"])
    assert info.value.code == 0
    assert "--max-iters" in capsys.readouterr().out
    # the ensemble commands state the bound their runs are checked against;
    # the defaults hold 80,100 floats at most (spin-collapse, 100 x 801)
    for command in ("stabilize", "entangle", "julia", "sme-run", "purify", "spin-collapse"):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        ensemble = command in ("sme-run", "purify", "spin-collapse")
        assert ("bound: min(trajectories, 256) x (ceil(t_max/dt/sample_every) + 1) must be"
                " at most 16777216" in capsys.readouterr().out) == ensemble, command
        if ensemble:
            cfg = cli.resolve_config(command, {}, None)
            held = chunk_floats(round(cfg["t_max"] / cfg["dt"]), cfg["trajectories"],
                                cfg["sample_every"])
            assert held <= 80_100 < MAX_CHUNK_FLOATS // 200, command


def test_main_reports_every_config_problem(capsys):
    assert cli.main(["purify", "--k", "-1", "--target", "0.7"]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert "k:" in err
    assert "target:" in err


def test_main_runtime_error_exit_code(tmp_path, capsys):
    rc = cli.main(["entangle", "--horizon", "0.002",
                   "--out", str(tmp_path / "e")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: entangle:")


def test_julia_run_and_byte_reproducibility(tmp_path, capsys):
    base = tmp_path / "j"
    args = ["julia", "--grid", "48x48", "--max-iters", "30",
            "--out", str(base)]
    assert cli.main(args) == 0
    assert "wrote" in capsys.readouterr().out
    csv_path, pgm_path = base.with_suffix(".csv"), base.with_suffix(".pgm")

    lines = read_lines(csv_path)
    pre = preamble_map(lines)
    assert pre["command"] == "julia"
    assert pre["grid"] == "48x48"
    assert pre["out"] == str(base)
    assert "threads" not in pre
    header_at = len(pre)
    assert lines[header_at] == "re,im,count"
    assert len(lines) == header_at + 1 + 48 * 48
    assert read_lines(pgm_path)[0] == "P2"

    csv_bytes, pgm_bytes = csv_path.read_bytes(), pgm_path.read_bytes()
    assert cli.main(args + ["--threads", "4"]) == 0
    assert csv_path.read_bytes() == csv_bytes
    assert pgm_path.read_bytes() == pgm_bytes


# sha256 of the files julia wrote: the 48x48 case before the one-pass
# raster and the per-axis coordinate formatting, the 256x256 case (the
# benchmark's raster, large enough for the byte-matrix renderer) with the
# row-at-a-time writers
FROZEN_JULIA = {
    "48x48": (["--grid", "48x48", "--max-iters", "30"], {
        "csv": "d85453129032083b172cf54bf98f1e133b39a8c08abd5e35c256c5413830861e",
        "pgm": "36f973b133186802952b9de011e328121efdf44cf3c63ad8589023f899963f8c",
    }),
    "256x256": (["--grid", "256x256", "--max-iters", "400"], {
        "csv": "0b39526b1ac7226c92fa1a465866f86e96230789a3b3de629bae66af21b3cb53",
        "pgm": "82d1d93008d8b27373ac16c5ef6a93a4d68e37cf0097268857bd2cf49fb470cf",
    }),
}


def test_julia_output_bytes_are_frozen(tmp_path, monkeypatch):
    # the relative --out keeps the temporary directory out of the preamble
    monkeypatch.chdir(tmp_path)
    for grid, (args, frozen) in FROZEN_JULIA.items():
        assert cli.main(["julia", *args, "--p-re", "1", "--out", "j"]) == 0
        digests = {suffix: hashlib.sha256((tmp_path / f"j.{suffix}").read_bytes()).hexdigest()
                   for suffix in ("csv", "pgm")}
        assert digests == frozen, grid


# sha256 of the CSV each command wrote with the row-at-a-time writer, which
# passed every cell through format_value; "spot" with chi at its closed-form
# optimum
FROZEN_CSVS = {
    "s": (["stabilize", "--grid-size", "50"],
          "ec20fd523d6c9951a215a60e7996c7985556e01f361e72547b53f9fe72f062ac"),
    # the default 201x201 grid, large enough for the byte-matrix renderer
    "g": (["stabilize"],
          "bb64c578c0d0a3ea6315bc4066f2f23d4eec41f149d9b6d54e49c0a86fa90449"),
    "spot": (["stabilize", "--p", "0.115", "--theta", "0.715",
              "--samples", "2000", "--seed", "7"],
             "c756d91b9b389f162e361531e9a44a9819343be700cbbac1bb200b9e801ae100"),
    "b": (["bellpurify"],
          "8766fd7baddffb57dc9eee7b844d83375a03c25c30864eeef66ee7941be0ebed"),
    # the ensemble commands as they write them from exactly sampled records:
    # two chunks of trajectories and a stride that does not divide the steps
    "m": (["sme-run", "--t-max", "0.2", "--trajectories", "2100",
           "--sample-every", "7"],
          "94fe9a8395f50c19cedcf52217babcc7d6117efaefc2d9ca8785f3f9ac8fb5ac"),
    "p": (["purify", "--t-max", "0.05", "--trajectories", "1500",
           "--sample-every", "7"],
          "2c9fc0b68a6fd01181f796bc3e9b3f63d6f3178fc169e18524b9dfc822d7939b"),
    "c": (["spin-collapse", "--t-max", "0.05", "--trajectories", "300",
           "--sample-every", "7"],
          "8bfed206634eb13f63e76ddccad2e449dfa695144cdb59ef990a2b29ab602a52"),
    # the protocol's filter loop, at a stride that does not divide its steps
    "e": (["entangle", "--dt", "1e-3", "--seed", "31", "--sample-every", "7"],
          "95a183e2d3bec01307d8983627d9528d21f29d17ba3402ac87319fad841db730"),
    # a second (k, dt), every step sampled: a table for the byte-matrix renderer
    "f": (["entangle", "--k", "0.5", "--dt", "2e-3", "--seed", "47",
           "--sample-every", "1"],
          "e471efe984afd46dc674dd6a80f0c867e4bc8381f09296d735a3bcdf8dba73c1"),
}


@pytest.mark.parametrize("base", list(FROZEN_CSVS))
def test_csv_bytes_are_frozen(base, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args, digest = FROZEN_CSVS[base]
    assert cli.main(args + ["--out", base]) == 0
    assert hashlib.sha256((tmp_path / f"{base}.csv").read_bytes()).hexdigest() == digest


def test_stabilize_spot_run(tmp_path):
    base = tmp_path / "s"
    rc = cli.main(["stabilize", "--p", "0.1", "--theta", "0.7",
                   "--samples", "300", "--seed", "3", "--out", str(base)])
    assert rc == 0
    lines = read_lines(base.with_suffix(".csv"))
    pre = preamble_map(lines)
    assert "chi" in pre
    assert "grid_size" not in pre  # inapplicable in spot mode
    data = lines[len(pre) + 1:]
    assert [row.split(",")[0] for row in data] == [
        "do_nothing", "discriminate_prepare", "weak_feedback"]
    for row in data:
        closed = float(row.split(",")[1])
        assert 0.5 <= closed <= 1.0


def test_stabilize_grid_run(tmp_path):
    base = tmp_path / "g"
    rc = cli.main(["stabilize", "--grid-size", "50", "--out", str(base)])
    assert rc == 0
    lines = read_lines(base.with_suffix(".csv"))
    pre = preamble_map(lines)
    assert "samples" not in pre  # inapplicable in surface mode
    assert float(pre["gap_max"]) > 0.02
    assert lines[len(pre)] == "p,theta,f1,f3,f4,gap"
    data = lines[len(pre) + 1:]
    assert len(data) == 50 * 50
    assert {len(row.split(",")) for row in data} == {6}


def test_bellpurify_run(tmp_path):
    base = tmp_path / "b"
    assert cli.main(["bellpurify", "--steps", "5", "--out", str(base)]) == 0
    lines = read_lines(base.with_suffix(".csv"))
    pre = preamble_map(lines)
    assert float(pre["p_re"]) == pytest.approx(0.0, abs=1e-12)
    assert float(pre["p_im"]) == pytest.approx(math.tan(math.pi / 4.0))
    data = lines[len(pre) + 1:]
    assert len(data) == 6
    assert float(data[0].split(",")[1]) == pytest.approx(0.5075, abs=1e-12)


def test_purify_run(tmp_path):
    base = tmp_path / "p"
    rc = cli.main(["purify", "--dt", "1e-3", "--t-max", "0.05",
                   "--trajectories", "4", "--sample-every", "10",
                   "--out", str(base)])
    assert rc == 0
    lines = read_lines(base.with_suffix(".csv"))
    pre = preamble_map(lines)
    assert "t_feedback" in pre and "time_ratio" in pre
    header_at = len(pre)
    assert lines[header_at].startswith("t,mc_mean_impurity")
    assert len(lines) == header_at + 1 + 6


def test_sme_run(tmp_path):
    base = tmp_path / "m"
    rc = cli.main(["sme-run", "--t-max", "0.1", "--trajectories", "4",
                   "--out", str(base)])
    assert rc == 0
    lines = read_lines(base.with_suffix(".csv"))
    pre = preamble_map(lines)
    assert len(lines) == len(pre) + 1 + 11


def test_spin_collapse_run(tmp_path):
    base = tmp_path / "c"
    rc = cli.main(["spin-collapse", "--two-j", "2", "--t-max", "0.2",
                   "--trajectories", "3", "--out", str(base)])
    assert rc == 0
    pre = preamble_map(read_lines(base.with_suffix(".csv")))
    assert pre["fz_eigenvalues"] == "1,0,-1"
    counts = [int(c) for c in pre["final_counts"].split(",")]
    assert len(counts) == 3
    assert sum(counts) == 3


def test_spin_collapse_matches_the_exact_mean(tmp_path):
    # 2j = 4 at eta = 0.5 and t = 2: the mean max population over the uniform
    # start level m and y = a m t + sqrt(t) z, z ~ N(0, 1), by the trapezoid
    # rule in z; a = 2 sqrt(strength eta) as pinned against sme.sme_step
    base, n_traj = tmp_path / "c", 4000
    assert cli.main(["spin-collapse", "--eta", "0.5", "--t-max", "2",
                     "--trajectories", str(n_traj), "--seed", "41",
                     "--out", str(base)]) == 0
    lines = read_lines(base.with_suffix(".csv"))
    last = [float(v) for v in lines[-1].split(",")]
    fz, a, t = 2.0 - np.arange(5), 2.0 * np.sqrt(0.5), 2.0
    z = np.linspace(-12.0, 12.0, 24001)
    y = a * fz[:, None, None] * t + np.sqrt(t) * z[:, None]
    lw = a * fz * (y - 0.5 * a * fz * t)
    p = np.exp(lw - lw.max(axis=-1, keepdims=True))
    p_max = (p.max(axis=-1) / p.sum(axis=-1)).mean(axis=0)
    exact = np.sum(p_max * np.exp(-0.5 * z * z)) * (z[1] - z[0]) / np.sqrt(2.0 * np.pi)
    assert last[0] == t
    assert abs(last[1] - exact) < 4.0 * last[2], (last[1], exact, last[2])


def test_entangle_run(tmp_path):
    base = tmp_path / "e"
    rc = cli.main(["entangle", "--dt", "1e-3", "--out", str(base)])
    assert rc == 0
    pre = preamble_map(read_lines(base.with_suffix(".csv")))
    assert float(pre["final_fidelity"]) >= 0.99
    assert float(pre["dfs_time"]) > 0.0
    assert float(pre["final_r_squared"]) > 2.9


def test_import_loads_neither_scipy_nor_mpmath(tmp_path):
    # nor concurrent.futures; and julia runs on the calling thread at any
    # --threads, so a run at --threads 4 imports no pool and leaves one thread
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    loaded = "sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath', 'concurrent'})"
    base = tmp_path / "j"
    julia = f"qfc.cli.main(['julia', '--grid', '64x64', '--threads', '4', '--out', {str(base)!r}])"
    for code, expected in ((f"print({loaded})", "[]"),
                           (f"{julia}; print({loaded}, threading.active_count())",
                            f"wrote {base}.csv {base}.pgm\n[] 1")):
        proc = subprocess.run([sys.executable, "-c", "import qfc.cli, sys, threading; " + code],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected


def test_benchmark_tracer_names_resolve(monkeypatch):
    # perfbench/tracer.py wraps these names by string; one that no longer
    # resolves only shows up as a failed traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # for its dataclasses
    spec.loader.exec_module(tracer)
    for module, attr, _ in tracer.SPANS + tracer.LEAVES:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for module in tracer.RNG_MODULES:
        assert getattr(importlib.import_module(module), "RngStream", None) is RngStream, module


def test_every_package_name_is_reached():
    # a top-level name of src/qfc that no other top-level statement there
    # uses, and that neither the acceptance tests nor the benchmark name, is
    # test-only: it belongs beside the test that checks it
    root = Path(__file__).resolve().parents[1]
    roots = set()
    for path in [root / "tests" / "test_acceptance.py", *(root / "perfbench").glob("*.py")]:
        roots.update(re.findall(r"\w+", path.read_text()))
    defined, used = set(), set()
    for path in (root / "src" / "qfc").glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            defined |= names
            used |= {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(stmt)} - names
    assert sorted(defined - used - roots) == []


def test_each_argument_rule_has_one_owner():
    # the integer-count test, each comparison against a bound constant and
    # the rounding of a span over dt are stated by one function each; a
    # caller asks that function, so a bound cannot drift between copies
    owners = {"numbers.Integral": "stochastic.arg_problems",
              "MAX_STEPS": "stochastic.step_problems",
              "MAX_CHUNK_FLOATS": "stochastic.chunk_problems",
              "K_DT_LIMIT": "entanglement.protocol_problems",
              "round(span / dt)": "stochastic.step_count"}

    def named(node, name):
        return (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                and node.slice.value == name)

    found = {}
    for path in (Path(__file__).resolve().parents[1] / "src" / "qfc").glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}"
            for node in ast.walk(stmt):
                rules = []
                if isinstance(node, ast.Attribute) and node.attr == "Integral":
                    rules.append("numbers.Integral")
                if isinstance(node, ast.Compare):
                    rules += [bound for bound in ("MAX_STEPS", "MAX_CHUNK_FLOATS", "K_DT_LIMIT")
                              if any(named(side, bound)
                                     for side in [node.left, *node.comparators])]
                if (isinstance(node, ast.Call) and named(node.func, "round") and node.args
                        and isinstance(node.args[0], ast.BinOp)
                        and isinstance(node.args[0].op, ast.Div)
                        and named(node.args[0].right, "dt")):
                    rules.append("round(span / dt)")
                for rule in rules:
                    found.setdefault(rule, set()).add(owner)
    assert found == {rule: {owner} for rule, owner in owners.items()}


def test_no_setting_comes_from_the_environment():
    # a setting comes from a flag or the config file, and so is echoed in the
    # output preamble; a read of the environment would be neither
    names = {"environ", "environb", "getenv", "getenvb"}
    reads = []
    for path in (Path(__file__).resolve().parents[1] / "src" / "qfc").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    or isinstance(node, ast.alias) and node.name in names):
                reads.append((path.name, node.lineno))
    assert reads == []
