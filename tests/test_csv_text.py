"""The CSV block renderer against ``repr``: the same text for every double.

``reports._CsvRows`` computes shortest round-trip digits with integer
array arithmetic and lays the characters out itself; here every case is
compared with ``repr`` of each value, one value at a time.
"""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from cournotgraph import Trajectory
from cournotgraph.reports import (_BLOCK_VALUES, SweepPoint, _CsvRows,
                                  sweep_csv, write_trajectory)
from helpers import trajectory_csv_by_value

TINY = 2.2250738585072014e-308          # the smallest normal double


def repr_rows(block: np.ndarray) -> str:
    """``block`` as CSV rows, one ``repr`` per value: the oracle."""
    rows, width = block.shape
    line = ",".join(["%r"] * width) + "\n"
    return line * rows % tuple(block.ravel().tolist())


def assert_rendered_as_repr(values, width: int = 8) -> None:
    """Render ``values`` (padded with ones to whole rows) in blocks of
    ``_BLOCK_VALUES`` and compare each block with the oracle."""
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate((values, np.ones(-len(values) % width)))
    table = values.reshape(-1, width)
    rows = max(1, _BLOCK_VALUES // width)
    render = _CsvRows(min(rows, len(table)) * width)
    for lo in range(0, len(table), rows):
        block = table[lo:lo + rows]
        got, want = render(block), repr_rows(block)
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
    rng = np.random.default_rng(width)
    rows = max(1, _BLOCK_VALUES // width)
    for count in (rows - 1, rows, rows + 1, 2 * rows + 1):
        if count < 1:
            continue
        table = rng.standard_normal((count, width)) * 10.0 ** rng.integers(
            -20, 20, (count, width))
        table[0, 0] = 0.0
        render = _CsvRows(min(rows, count) * width)
        got = "".join(render(table[lo:lo + rows])
                      for lo in range(0, count, rows))
        assert got == repr_rows(table)


@pytest.mark.parametrize("variables", [1, 3, 960, _BLOCK_VALUES - 1,
                                       _BLOCK_VALUES, 2 * _BLOCK_VALUES + 5])
def test_trajectory_rows_around_a_block_match_per_value_rendering(variables):
    # Rows narrower than a block are rendered whole, wider ones in pieces.
    rng = np.random.default_rng(variables)
    rows = max(1, _BLOCK_VALUES // (variables + 1))
    for count in (rows - 1, rows, rows + 1):
        if count < 1:
            continue
        traj = Trajectory(times=np.arange(count) * 0.01,
                          states=rng.uniform(-2.0, 2.0, (count, variables)),
                          method="rk4", step=0.01)
        names = tuple(f"q{k}" for k in range(variables))
        out = io.StringIO()
        write_trajectory(traj, names, out)
        assert out.getvalue() == trajectory_csv_by_value(traj, names)


def test_sweep_csv_is_one_repr_per_number():
    rng = np.random.default_rng(3)
    points = [SweepPoint(float(v), verdict, float(m)) for v, verdict, m in zip(
        rng.uniform(-2.0, 2.0, 2 * _BLOCK_VALUES),
        rng.choice(["STABLE", "UNSTABLE", "MARGINAL"], 2 * _BLOCK_VALUES),
        rng.standard_normal(2 * _BLOCK_VALUES) * 1e-3)]
    points[7] = SweepPoint(0.25, "ERROR", math.nan)
    points[-1] = SweepPoint(-0.0, "STABLE", -1e-300)
    want = "value,verdict,eigen_margin\n" + "".join(
        f"{p.value!r},{p.verdict},{p.eigen_margin!r}\n" for p in points)
    assert sweep_csv(points) == want
    assert sweep_csv([]) == "value,verdict,eigen_margin\n"
