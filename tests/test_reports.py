"""The names of a system's variables: its ``name = value`` lines and its
trajectory CSV's header. ``render_equilibrium`` and the ``equilibrium:``
block of a stability report share one writer, which shares its naming
route with ``write_trajectory``'s header; each is checked against a
per-value ``repr`` or per-edge oracle."""

from __future__ import annotations

import io
from types import SimpleNamespace

import numpy as np

from cournotgraph import AffineSystem, analyze, variable_names
from cournotgraph.dynamics import STREAM_VALUES
from cournotgraph.reports import (render_equilibrium, render_stability_report,
                                  write_trajectory)
from cournotgraph.stability import Stability, StabilityReport
from helpers import assignments_by_repr, names_by_edge


def _order(rng: np.random.Generator, n: int, top: int) -> np.ndarray:
    """n distinct (market, firm) pairs with ids 1..top, in random order."""
    keys = rng.choice(top * top, n, replace=False)
    return np.column_stack((keys // top + 1, keys % top + 1))


def _values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Finite doubles of every scale, with zeros, negative zeros,
    subnormals and whole numbers among them."""
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    special = np.array([0.0, -0.0, 5e-324, -2.5e-310, 3.0, 1e16, 0.1])
    picks = rng.random(n) < 0.3
    values[picks] = rng.choice(special, int(picks.sum()))
    return values


def _report(values, order) -> StabilityReport:
    return StabilityReport(equilibrium=values, char_coeffs=None,
                           closed_form=None, eigen_margin=0.5,
                           verdict=Stability.UNSTABLE, variable_order=order)


class TestAssignments:
    def test_a_system_without_an_order_is_named_q1_to_qn(self):
        system = AffineSystem(constant=[1.0, 1.0, 3.0],
                              matrix=np.diag([2.0, 4.0, 8.0]))
        assert system.variable_order.shape == (0, 2)
        report = analyze(system)
        assert render_stability_report(report).splitlines()[:5] == [
            "equilibrium:", "  q1 = 0.5", "  q2 = 0.25", "  q3 = 0.375",
            "characteristic coefficients (Jacobian):"]
        assert render_equilibrium(report.equilibrium, system.variable_order) \
            == "q1 = 0.5\nq2 = 0.25\nq3 = 0.375\n"

    def test_lines_match_the_per_value_repr_oracle(self):
        # Ids up to 30 make both name forms, q<i><j> and q<i>_<j>; every
        # fourth case has no order and is named q1 .. qn.
        rng = np.random.default_rng(36)
        heading = "characteristic coefficients (Jacobian):\n"
        for case in range(80):
            n = int(rng.integers(1, 120))
            order = _order(rng, n, 30) if case % 4 else np.empty((0, 2), int)
            values = _values(rng, n)
            assert render_equilibrium(values, order) \
                == assignments_by_repr(values, order)
            text = render_stability_report(_report(values, order))
            assert text.startswith("equilibrium:\n" + assignments_by_repr(
                values, order, "  ") + heading)

    def test_lines_are_made_a_slice_at_a_time(self):
        # 10^5 variables span many slices of STREAM_VALUES: the text is the
        # oracle's, with an order and without, and making it holds at most
        # 100 bytes a variable (about 60, of which the text is about 30).
        import tracemalloc
        n = 10 ** 5
        rng = np.random.default_rng(41)
        values = _values(rng, n)
        for order in (_order(rng, n, 1100), np.empty((0, 2), int)):
            tracemalloc.start()
            try:
                text = render_equilibrium(values, order)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 100 * n
            assert text == assignments_by_repr(values, order)

    def test_csv_header_is_named_a_slice_at_a_time(self):
        # Four slices of STREAM_VALUES names and a bit: the header is the
        # full join, with an order and without, and writing it holds at
        # most 64 bytes a name (about 49, and 31 for q1 .. qn); building
        # the tuple of every name first held about 132 and 75.
        import tracemalloc
        n = 4 * STREAM_VALUES + 7
        rng = np.random.default_rng(42)
        for order in (_order(rng, n, 1100), np.empty((0, 2), int)):
            names = (names_by_edge(order) if len(order)
                     else tuple(f"q{k}" for k in range(1, n + 1)))
            written = []
            sink = SimpleNamespace(write=lambda data: written.append(len(data)))
            tracemalloc.start()
            try:
                write_trajectory(np.empty((0, n + 1)), order, sink)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out = io.BytesIO()
            write_trajectory(np.empty((0, n + 1)), order, out)
            assert out.getvalue() == ("t," + ",".join(names) + "\n").encode("ascii")
            assert sum(written) == len(out.getvalue())
            assert peak <= 64 * n, peak / n

    def test_variable_names_match_the_per_edge_names(self):
        rng = np.random.default_rng(7)
        for top in (3, 9, 10, 40, 1100):
            for n in (1, 2, 9, 500):
                order = _order(rng, min(n, top * top), top)
                assert variable_names(order) == names_by_edge(order)
        assert variable_names(((1, 1), (12, 3), (9, 10))) \
            == names_by_edge(((1, 1), (12, 3), (9, 10))) \
            == ("q11", "q12_3", "q9_10")
        assert variable_names(()) == names_by_edge(()) == ()
