"""Every public value type holds its arrays read-only, by the rule of
``network._frozen``: a caller's writeable array is copied, never frozen,
and an array its maker hands over read-only is held as it is."""

from __future__ import annotations

import numpy as np
import pytest

from cournotgraph import (AffineSystem, NetworkSpec, PlayerGraph,
                          PopulationState, Stability, StabilityReport,
                          Trajectory, analyze, canonical_affine,
                          complete_graph, cycle_graph, integrate, player_graph,
                          random_population, to_affine, torus_graph)
from cournotgraph.network import EdgeIncidence
from cournotgraph.reports import Sweep, sweep
from cournotgraph.scenario import CanonicalScenario
from cournotgraph.stability import CanonicalParams

R = CanonicalParams(0.2, 0.5, 1.5, -0.3, 0.4)


def _writeable():
    """Constructors given writeable arrays of their caller's, the arrays
    given, and the value made."""
    spec_arrays = (np.array([[1, 1], [2, 1], [2, 2]], np.intp),
                   np.ones(2), np.full(2, 0.5), np.ones(2), np.ones(2))
    spec = NetworkSpec(2, 2, *spec_arrays)
    incidence = (np.array([0, 1], np.intp), np.array([0, 0], np.intp),
                 np.ones(2), np.ones(2), np.ones(1), np.ones(2))
    system = (np.ones(3), np.eye(3) * 2.0,
              np.array([[1, 1], [2, 2], [2, 1]], np.intp))
    table = np.array([[0.0, 1.0], [0.5, 2.0]])
    degrees = np.full(4, 2, np.intp)
    graph = cycle_graph(4)
    coop = np.array([True, False, True, True])
    report = (np.ones(3), np.array([[1, 1], [2, 2], [2, 1]], np.intp))
    grid = (np.array([0.0, 1.0]), np.array([-1.0, 1.0]),
            np.array([0, 2], np.uint8))
    return [
        (spec_arrays, spec),
        (incidence, EdgeIncidence(*incidence)),
        (system, AffineSystem(*system)),
        ((table,), Trajectory(table)),
        ((degrees,), PlayerGraph(degrees, graph.form)),
        ((coop,), PopulationState(graph, coop)),
        (report, StabilityReport(report[0], None, None, 0.5,
                                 Stability.UNSTABLE, report[1])),
        (grid, Sweep(*grid)),
    ]


def _made():
    """Values that the package's own functions make."""
    spec = NetworkSpec(2, 2, ((1, 1), (2, 1), (2, 2)), (1.0, 1.0),
                       (0.2, 0.3), (0.1, 0.4))
    network = to_affine(spec)
    graph = torus_graph(5, 4)
    return [spec, network, network.structure, canonical_affine(R),
            integrate(network, np.zeros(3), 1.0, 0.1), graph,
            complete_graph(5), player_graph(4, [(0, 1), (2, 3)]),
            random_population(graph, 0.5, seed=1), analyze(network),
            analyze(canonical_affine(R), R),
            sweep(CanonicalScenario(r=R, q0=(0.1, 0.2, 0.3)), "r1", 0.1,
                  2.0, 9)]


def _arrays(value):
    """The arrays a value holds: its fields and what it has cached."""
    return {name: held for name, held in vars(value).items()
            if isinstance(held, np.ndarray)}


@pytest.mark.parametrize("given, value", _writeable(),
                         ids=lambda x: type(x).__name__ if not
                         isinstance(x, tuple) else "")
def test_a_callers_writeable_arrays_are_copied_not_frozen(given, value):
    arrays = _arrays(value)
    assert len(arrays) == len(given)
    for name, held in arrays.items():
        assert not held.flags.writeable, (type(value).__name__, name)
    for array in given:
        assert array.flags.writeable, type(value).__name__
        assert not any(np.shares_memory(array, held)
                       for held in arrays.values())


def test_every_made_value_holds_read_only_arrays():
    kinds = set()
    for value in _made():
        kinds.add(type(value).__name__)
        arrays = _arrays(value)
        assert arrays, type(value).__name__
        for name, held in arrays.items():
            assert not held.flags.writeable, (type(value).__name__, name)
    assert kinds == {"NetworkSpec", "AffineSystem", "EdgeIncidence",
                     "Trajectory", "PlayerGraph", "PopulationState",
                     "StabilityReport", "Sweep"}


def test_analyze_and_sweep_hand_their_arrays_over_uncopied(monkeypatch):
    from cournotgraph import reports, stability
    handed = []
    for module, name in ((reports, "Sweep"), (stability, "StabilityReport")):
        class Recording(getattr(module, name)):
            def __post_init__(self):
                handed.append(dict(_arrays(self)))
                super().__post_init__()
        monkeypatch.setattr(module, name, Recording)
    made = [sweep(CanonicalScenario(r=R, q0=(0.1, 0.2, 0.3)), "r1", 0.1,
                  2.0, 9),
            analyze(to_affine(NetworkSpec(2, 2, ((1, 1), (2, 1), (2, 2)),
                                          (1.0, 1.0), (0.2, 0.3),
                                          (0.1, 0.4))))]
    assert len(handed) == len(made) == 2
    for value, given in zip(made, handed):
        assert all(held is given[name] for name, held in _arrays(value).items())
