"""The CSV block renderer against ``repr``: the same text for every double.

``csvtext.CsvRows`` computes shortest round-trip digits with integer
array arithmetic and lays the characters out itself, in flat blocks that
begin and end wherever the block size falls in a row; here every case is
compared with ``repr`` of each value, one value at a time. The writers
built on it (trajectories, sweeps with their verdict labels, PD series)
are compared with per-row text in the same way.
"""

from __future__ import annotations

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cournotgraph import Trajectory, reports
from cournotgraph.csvtext import CsvRows
from cournotgraph.reports import (_BLOCK_VALUES, _SERIES_ROWS, Sweep,
                                  pd_series_csv, sweep, sweep_csv,
                                  write_trajectory)
from cournotgraph.scenario import parse_scenario
from cournotgraph.shortest import WORK_ROWS
from cournotgraph.stability import VERDICTS, canonical_margins, verdict_of
from helpers import (sweep_by_analyze, sweep_of, trajectory_csv_by_value,
                     written)

TINY = 2.2250738585072014e-308          # the smallest normal double
N = _BLOCK_VALUES
STABLE = parse_scenario((Path(__file__).resolve().parent.parent / "scenarios"
                         / "canonical_stable.scenario").read_text("utf-8"))
ODD_VALUES = [math.nan, math.inf, -math.inf, 5e-324, -5e-324,
              np.nextafter(TINY, 0), 0.0, -0.0]


def repr_rows(block: np.ndarray) -> str:
    """``block`` as CSV rows, one ``repr`` per value: the oracle."""
    rows, width = block.shape
    line = ",".join(["%r"] * width) + "\n"
    return line * rows % tuple(block.ravel().tolist())


def repr_flat(values, width: int, column: int) -> str:
    """Values as the flat run of a table of ``width`` columns from
    ``column`` on: each ``repr``, then a newline at a row end, else a
    comma."""
    return "".join(repr(float(v)) + ("\n" if (column + j + 1) % width == 0
                                     else ",")
                   for j, v in enumerate(values))


def render_flat(table: np.ndarray) -> str:
    """``table`` rendered in flat blocks of ``_BLOCK_VALUES`` values, a
    block ending wherever it falls in a row."""
    flat, width = table.ravel(), table.shape[1]
    render = CsvRows(min(N, len(flat)))
    texts = []
    for lo in range(0, len(flat), N):
        n = min(N, len(flat) - lo)
        render.values[:n] = flat[lo:lo + n]
        texts.append(bytes(render(n, width, lo % width)))
    return b"".join(texts).decode("ascii")


def assert_rendered_as_repr(values, width: int = 8) -> None:
    """Render ``values`` (padded with ones to whole rows) in flat blocks
    and compare the text with the oracle."""
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate((values, np.ones(-len(values) % width)))
    table = values.reshape(-1, width)
    got, want = render_flat(table), repr_rows(table)
    if got != want:
        bad = [(g, w) for g, w in zip(got.replace("\n", ",").split(","),
                                      want.replace("\n", ",").split(","))
               if g != w]
        pytest.fail(f"{len(bad)} values differ from repr, first {bad[:5]}")


def test_random_bit_patterns():
    bits = np.random.default_rng(18).integers(0, 2 ** 64, 1_000_000,
                                              dtype=np.uint64)
    assert_rendered_as_repr(bits.view(np.float64))


def test_every_power_of_two_and_of_ten():
    powers = [2.0 ** e for e in range(-1074, 1024)]
    powers += [float(f"1e{e}") for e in range(-323, 309)]
    assert_rendered_as_repr(powers + [-x for x in powers])


def test_neighbours_of_powers_of_ten_and_of_the_format_switches():
    centres = np.array([float(f"1e{e}") for e in range(-307, 309)]
                       + [1e-4, 1e16, 1e-4 * 0.5, 1e16 * 2])
    values = [centres]
    for direction in (0.0, np.inf):
        x = centres
        for _ in range(3):
            x = np.nextafter(x, direction)
            values.append(x)
    assert_rendered_as_repr(np.concatenate(values))
    assert_rendered_as_repr(-np.concatenate(values))


def test_zeros_subnormals_integers_and_non_finite_values():
    rng = np.random.default_rng(5)
    subnormal = rng.integers(1, 2 ** 52, 200, dtype=np.uint64).view(np.float64)
    values = np.concatenate((
        [0.0, -0.0, 5e-324, -5e-324, np.nextafter(TINY, 0), TINY,
         np.nextafter(TINY, 1), 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2,
         float(2 ** 53 + 1), 1.7976931348623157e308, math.nan, math.inf,
         -math.inf, 1.0, 0.5, 0.1, 100.0, 1e15, 123456789012345680.0,
         9999999999999998.0, 0.0001, 0.00009999999999999999],
        subnormal, -subnormal))
    assert_rendered_as_repr(values)
    # Every kind of value in every column, the last one ending its row.
    for width in (1, 3, 5):
        for start in range(width):
            assert_rendered_as_repr(np.roll(values, start), width)


@pytest.mark.parametrize("width", [1, 4, 961])
def test_block_widths_and_rows_around_a_block(width):
    # Tables of a block's worth of rows, one more or one less, and
    # twice over: blocks end before, at and after a row's end.
    rng = np.random.default_rng(width)
    rows = max(1, N // width)
    for count in (rows - 1, rows, rows + 1, 2 * rows + 1):
        if count < 1:
            continue
        table = rng.standard_normal((count, width)) * 10.0 ** rng.integers(
            -20, 20, (count, width))
        table[0, 0] = 0.0
        assert render_flat(table) == repr_rows(table)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 7, 13])
def test_a_row_end_at_every_slot_offset_of_a_block(width):
    # One full block rendered with its first value in each column of its
    # row in turn: every slot of the block ends a row in one of them.
    rng = np.random.default_rng(width)
    values = rng.uniform(-1e3, 1e3, N)
    render = CsvRows(N)
    for column in range(width):
        render.values[:] = values
        got = bytes(render(N, width, column)).decode("ascii")
        assert got == repr_flat(values, width, column), column


@pytest.mark.parametrize("variables", [1, 3, 960, 1535, 1536, 3077, N - 2,
                                       N - 1, N, 2 * N + 4])
def test_trajectory_rows_around_a_block_match_per_value_rendering(variables):
    # Rows of 2, 4, 961, 1536, 1537, 3078, N - 1, N, N + 1 and 2N + 5
    # values (the time and the state), at row counts around a block: each
    # fills whole blocks, however wide.
    rng = np.random.default_rng(variables)
    rows = max(1, N // (variables + 1))
    for count in (rows - 1, rows, rows + 1, 2 * rows + 3):
        if count < 1:
            continue
        states = rng.uniform(-2.0, 2.0, (count, variables))
        traj = Trajectory(np.column_stack((np.arange(count) * 0.01, states)),
                          method="rk4", step=0.01)
        names = tuple(f"q{k}" for k in range(variables))
        assert (written(write_trajectory, traj, names)
                == trajectory_csv_by_value(traj, names))


@pytest.mark.parametrize("variables", [3, 960, N])
def test_odd_values_at_block_edges_and_row_ends(variables):
    # nan, +-inf, subnormals and +-0.0 in the first and last slot of each
    # block and at the end of rows, which repr renders one at a time.
    width = variables + 1
    rows = 3 * N // width + 2
    states = np.random.default_rng(width).uniform(-2.0, 2.0, (rows, variables))
    table = np.column_stack((np.arange(rows) * 0.5, states))
    flat = table.ravel()
    edges = [i for lo in range(0, flat.size, N)
             for i in (lo, min(lo + N, flat.size) - 1)]
    ends = list(range(width - 1, flat.size, width))[::7]
    for k, i in enumerate(edges + ends):
        flat[i] = ODD_VALUES[k % len(ODD_VALUES)]
    traj = Trajectory(table, method="euler", step=0.5)
    names = tuple(f"q{k}" for k in range(variables))
    assert (written(write_trajectory, traj, names)
            == trajectory_csv_by_value(traj, names))


def test_sweep_csv_is_one_repr_per_number():
    # Every verdict label, an ERROR row's NaN margin among them, over
    # more than two blocks of rows.
    rng = np.random.default_rng(3)
    count = 2 * (N // 3) + 7
    rows = list(zip(rng.uniform(-2.0, 2.0, count).tolist(),
                    rng.choice(VERDICTS[:3], count).tolist(),
                    (rng.standard_normal(count) * 1e-3).tolist()))
    rows[0] = (0.25, "ERROR", math.nan)
    rows[7] = (0.5, "MARGINAL", 1e-10)
    rows[N // 3] = (-1e-300, "ERROR", math.nan)
    rows[-1] = (-0.0, "STABLE", -1e-300)
    want = "value,verdict,eigen_margin\n" + "".join(
        f"{value!r},{verdict},{margin!r}\n" for value, verdict, margin in rows)
    assert written(sweep_csv, sweep_of(rows)) == want
    assert {verdict for _, verdict, _ in rows} == set(VERDICTS)
    assert written(sweep_csv, sweep_of(rows[:1])) == \
        "value,verdict,eigen_margin\n0.25,ERROR,nan\n"
    empty = Sweep(np.empty(0), np.empty(0), np.empty(0, np.uint8))
    assert written(sweep_csv, empty) == "value,verdict,eigen_margin\n"


@pytest.mark.parametrize("points", [2 ** 16 - 1, 2 ** 16 + 1])
def test_sweep_around_a_chunk_matches_one_stack(points):
    # The grid ends where r4 = 0.14 makes det A vanish, so with 2^16 + 1
    # points the ERROR rows sit on both sides of the chunk boundary.
    stop = 0.13 + 0.01 * (points - 1) / 2 ** 16
    result = sweep(STABLE, "r4", 0.13, stop, points)
    r = np.tile(STABLE.r.as_tuple(), (points, 1))
    r[:, 3] = result.values
    margins = canonical_margins(r)
    assert margins.tobytes() == result.margins.tobytes()
    labels = ["ERROR" if math.isnan(m) else verdict_of(m).value
              for m in margins.tolist()]
    assert [VERDICTS[code] for code in result.codes] == labels
    if points > 2 ** 16:
        assert labels[2 ** 16 - 1:] == ["ERROR", "ERROR"]
    assert written(sweep_csv, result) == "value,verdict,eigen_margin\n" + "".join(
        f"{v!r},{label},{m!r}\n" for v, label, m in
        zip(result.values.tolist(), labels, margins.tolist()))


def test_sweep_in_small_chunks_matches_pointwise_analyze(monkeypatch):
    # Chunks of 7 points over grids across det A = 0 at r4 = 0.14, whose
    # ERROR row is the first of a chunk, or the middle of one (and none
    # with 8 points): the same bytes as one analyze per point.
    monkeypatch.setattr(reports, "_SWEEP_CHUNK", 7)
    for count, error in ((8, None), (15, 7), (21, 10), (43, 21)):
        want = sweep_by_analyze(STABLE, "r4", 0.13, 0.15, count)
        assert [i for i, c in enumerate(want.codes) if VERDICTS[c] == "ERROR"] \
            == ([error] if error else [])
        got = sweep(STABLE, "r4", 0.13, 0.15, count)
        assert written(sweep_csv, got) == written(sweep_csv, want)


def series_by_row(fractions) -> str:
    return "step,coop_fraction\n" + "".join(
        f"{k},{repr(f)}\n" for k, f in enumerate(fractions))


@pytest.mark.parametrize("length", [1, 2, 3, _SERIES_ROWS - 1, _SERIES_ROWS,
                                    _SERIES_ROWS + 1, 2 * _SERIES_ROWS + 3])
def test_pd_series_is_one_repr_per_row(length):
    fractions = np.random.default_rng(length).uniform(0, 1, length).tolist()
    fractions[0] = 0.0
    assert written(pd_series_csv, fractions) == series_by_row(fractions)
    # A fixed point from step 2 on repeats one fraction, as run_spatial
    # writes it: its rows reuse one text, across block ends too.
    tail = fractions[:2] + [fractions[-1]] * (length + _SERIES_ROWS)
    assert written(pd_series_csv, tail) == series_by_row(tail)


def test_pd_series_tells_equal_fractions_of_other_text_apart():
    # 0.0 == -0.0, but their text differs: a row reuses the text of the
    # row before only if its fraction is the same float.
    fractions = [0.0] * (_SERIES_ROWS + 5)
    fractions[_SERIES_ROWS + 2] = -0.0
    fractions[3] = -0.0
    assert written(pd_series_csv, fractions) == series_by_row(fractions)


def test_renderer_working_set_per_value_of_capacity():
    # A renderer holds its input buffer and one work array of WORK_ROWS
    # rows, 8 + 8 * WORK_ROWS bytes per value of capacity, and a block
    # makes its text: here 25 bytes a value for almost every value (17
    # digits and a three-digit exponent, the longest text there is). On
    # top of those, 16 bytes a value for temporaries: the exponent path
    # keeps an int64 row index and two boolean masks, 10 bytes a value,
    # until the text is made, and 6 more leave room for numpy's own
    # scratch (about 1 byte a value, traced on numpy 2.4). One more
    # array of a word per value, or another work row, must show here.
    assert WORK_ROWS <= 13
    capacity = 4096
    values = -np.random.default_rng(1).uniform(1, 2, capacity) * 1e-100
    CsvRows(1)(0, 1)                    # the constant tables, built once
    tracemalloc.start()
    try:
        render = CsvRows(capacity)
        render.values[:] = values
        text = render(capacity, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 24.5 * capacity
    assert peak <= (8 + 8 * WORK_ROWS + 25 + 16) * capacity, peak / capacity
