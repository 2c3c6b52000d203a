"""Fixed-step integration of flow dynamics and long-run classification.

The integrator marches a vector field from t=0 to t_end with a constant
step (the final step is shortened to land exactly on t_end) and records
every state. If a state goes non-finite or its magnitude passes
``STATE_LIMIT`` the run aborts with :class:`IntegrationBlowUp`, which
carries the finite prefix of the trajectory -- that is how divergence of
unstable systems shows up in practice.

``classify`` compares the end of a run against a candidate equilibrium:
converged (field essentially zero there, no net drift away), diverged
(ended more than 10x farther from the equilibrium than it started, or
blew up mid-run), or undecided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

Field = Callable[[np.ndarray], np.ndarray]

STATE_LIMIT = 1e9           # abort threshold on max |q|
DIVERGENCE_FACTOR = 10.0    # "left a 10x ball" distance criterion
MAX_STORED_VALUES = 10_000_000  # (steps + 1) x dimension: 80 MB of states


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States recorded at times 0, dt, 2*dt, ..., t_end."""

    times: np.ndarray
    states: np.ndarray
    method: str
    step: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if len(t) != len(s) or len(t) < 1:
            raise ValueError("times and states must have equal length >= 1")
        t.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)


class Outcome(Enum):
    CONVERGED = "CONVERGED"
    DIVERGED = "DIVERGED"
    UNDECIDED = "UNDECIDED"


@dataclass(frozen=True, eq=False)
class LongRunVerdict:
    outcome: Outcome
    limit: np.ndarray | None
    final_field_norm: float
    max_abs_state: float
    negative_excursion: bool


class IntegrationBlowUp(RuntimeError):
    """State went non-finite or past STATE_LIMIT; carries the finite prefix."""

    def __init__(self, message: str, trajectory: Trajectory, time: float):
        super().__init__(message)
        self.trajectory = trajectory
        self.time = time


def step_euler(field: Field, q, dt: float) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q + dt * field(q)


def step_rk4(field: Field, q, dt: float) -> np.ndarray:
    """Classical 4-stage Runge-Kutta update."""
    q = np.asarray(q, dtype=float)
    k1 = field(q)
    k2 = field(q + 0.5 * dt * k1)
    k3 = field(q + 0.5 * dt * k2)
    k4 = field(q + dt * k3)
    return q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_STEPPERS = {"rk4": step_rk4, "euler": step_euler}


def integrate(field: Field, q0, t_end: float, dt: float,
              method: str = "rk4") -> Trajectory:
    """March from 0 to t_end recording every step.

    Thinning is an output-time concern; the whole trajectory stays in
    memory, which is fine at desk scale (a few 1e5 steps of a small
    system). Runs that would store more than ``MAX_STORED_VALUES``
    numbers are rejected before anything is allocated.
    """
    if method not in _STEPPERS:
        raise ValueError(f"unknown method '{method}' (expected rk4 or euler)")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if dt > t_end:
        raise ValueError("dt must not exceed t_end")
    stepper = _STEPPERS[method]
    q = np.asarray(q0, dtype=float).copy()
    # t_end / dt + 2 bounds the stored rows; testing it as a float also
    # keeps a step count too large for int() from reaching it.
    if (t_end / dt + 2) * q.size > MAX_STORED_VALUES:
        raise ValueError(
            f"t_end / dt = {t_end / dt:.6g} steps of {q.size} variables exceed "
            f"the limit of {MAX_STORED_VALUES} stored values")

    n_whole = int(math.floor(t_end / dt + 1e-9))
    landing = n_whole * dt
    exact = abs(landing - t_end) <= 1e-9 * max(dt, 1.0)
    n_steps = n_whole if exact else n_whole + 1

    times = np.empty(n_steps + 1)
    times[: n_whole + 1] = dt * np.arange(n_whole + 1)
    times[-1] = t_end

    states = np.empty((n_steps + 1, len(q)))
    states[0] = q
    for k in range(n_steps):
        h = dt if k < n_whole else t_end - landing
        q = stepper(field, q, h)
        peak = float(np.max(np.abs(q)))
        if not peak <= STATE_LIMIT:  # catches NaN as well
            partial = Trajectory(times[: k + 1].copy(), states[: k + 1].copy(),
                                 method, dt)
            raise IntegrationBlowUp(
                f"state blew up at t={float(times[k + 1])!r} (max |q| = {peak!r}); "
                f"last finite state {states[k].tolist()!r}",
                partial, float(times[k + 1]))
        states[k + 1] = q
    return Trajectory(times, states, method, dt)


def classify(trajectory: Trajectory, field: Field, q_star, tol: float,
             blew_up: bool = False) -> LongRunVerdict:
    """Long-run verdict of a run relative to a candidate equilibrium q_star."""
    q_star = np.asarray(q_star, dtype=float)
    first = trajectory.states[0]
    final = trajectory.states[-1]
    d0 = float(np.linalg.norm(first - q_star))
    d_end = float(np.linalg.norm(final - q_star))
    field_norm = float(np.max(np.abs(field(final))))
    max_abs = float(np.max(np.abs(trajectory.states)))
    negative = bool(np.any(trajectory.states < 0.0))

    if blew_up:
        outcome, limit = Outcome.DIVERGED, None
    elif field_norm < tol and d_end <= d0:
        outcome, limit = Outcome.CONVERGED, final
    elif d_end > DIVERGENCE_FACTOR * d0:
        outcome, limit = Outcome.DIVERGED, None
    else:
        outcome, limit = Outcome.UNDECIDED, None
    return LongRunVerdict(outcome=outcome, limit=limit,
                          final_field_norm=field_norm,
                          max_abs_state=max_abs,
                          negative_excursion=negative)
