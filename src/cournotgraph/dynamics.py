"""Fixed-step integration of flow dynamics and long-run classification.

The integrator marches from t=0 to t_end with a constant step (the
final step is shortened to land exactly on t_end) and records every
state. If a state goes non-finite or its magnitude passes
``STATE_LIMIT`` the run aborts with :class:`IntegrationBlowUp`, which
carries the finite prefix of the trajectory -- that is how divergence of
unstable systems shows up in practice.

``integrate`` takes a vector field or an :class:`AffineSystem`. For an
affine system dq/dt = c - A q one step of length h is exactly

    q <- q + Phi_h (c - A q),

with Phi_h = h for euler and Phi_h = h (I + Z/2 + Z^2/6 + Z^3/24),
Z = -h A, for rk4 (the four stages of classical Runge-Kutta collapse
into this one matrix). Phi_h is formed once per distinct step length,
so a step costs two matrix-vector products instead of four field
evaluations, and no equilibrium is needed, so a singular A simulates
too. Euler steps are the same floating-point operations either way;
rk4 steps round differently, at about 1e-14 relative. A system too
large for forming Phi_h to pay (see ``_affine_pays``) is stepped
through its ``field_at`` like any other field.

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

from .network import AffineSystem

Field = Callable[[np.ndarray], np.ndarray]

STATE_LIMIT = 1e9           # abort threshold on max |q|
DIVERGENCE_FACTOR = 10.0    # "left a 10x ball" distance criterion
MAX_STORED_VALUES = 10_000_000  # (steps + 1) x dimension: 80 MB of states
_BLOCK_VALUES = 1 << 16     # state values per blow-up check of the affine route


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


def _affine_pays(dimension: int, steps: int, method: str) -> bool:
    """Whether stepping through Phi_h is cheaper than through the field.

    Euler's Phi_h is the scalar h: nothing to form and one matrix-vector
    product per step either way. For rk4, forming Phi_h by Horner's rule
    takes two n x n products (4 n^3 flops), and each step then saves two
    of its four matrix-vector products (4 n^2 flops), so Phi_h pays for
    itself after n steps. Requiring more than 4 n steps leaves room for
    the constant factors that flop counts miss, and keeps Phi_h's n^2
    values under a quarter of the stored states.
    """
    return method == "euler" or 4 * dimension < steps


def _propagator(a: np.ndarray, h: float, method: str):
    """Phi_h of one step of length h: h for euler; for rk4
    h (I + Z/2 + Z^2/6 + Z^3/24) with Z = -h A, by Horner's rule."""
    if method == "euler":
        return h
    eye = np.eye(a.shape[0])
    z = -h * a
    return h * (eye + z @ (eye / 2.0 + z @ (eye / 6.0 + z / 24.0)))


def _first_bad(rows: np.ndarray) -> int | None:
    """Index of the first row that is not finite or passes STATE_LIMIT."""
    peaks = np.max(np.abs(rows), axis=1)
    bad = np.flatnonzero(~(peaks <= STATE_LIMIT))  # NaN fails <= as well
    return int(bad[0]) if bad.size else None


def _march_affine(system: AffineSystem, method: str, states: np.ndarray,
                  segments) -> int | None:
    """Fill states[1:] with q <- q + Phi_h (c - A q), one (h, count)
    segment of equal steps after another; return the index of the first
    bad state (see ``_first_bad``), or None.

    States are checked once per block of about ``_BLOCK_VALUES`` values,
    so a run that blows up steps at most one block past its first bad
    state; the overflow and NaN arithmetic of those steps is expected
    and silenced.
    """
    a, c = system.matrix, system.constant
    apply = np.multiply if method == "euler" else np.matmul
    rows = max(1, _BLOCK_VALUES // a.shape[0])
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for h, count in segments:
            phi = _propagator(a, h, method)
            for lo in range(k, k + count, rows):
                hi = min(lo + rows, k + count)
                for q, nxt in zip(states[lo:hi], states[lo + 1:hi + 1]):
                    np.add(q, apply(phi, c - a @ q), out=nxt)
                bad = _first_bad(states[lo + 1:hi + 1])
                if bad is not None:
                    return lo + 1 + bad
            k += count
    return None


def _march(field: Field, method: str, states: np.ndarray,
           segments) -> int | None:
    """Fill states[1:] with the method's stepper over the field, checking
    each state as it is made; same segments and result as
    ``_march_affine``."""
    stepper = _STEPPERS[method]
    q, k = states[0], 0
    for h, count in segments:
        for _ in range(count):
            q = stepper(field, q, h)
            k += 1
            states[k] = q
            if not float(np.max(np.abs(q))) <= STATE_LIMIT:  # catches NaN
                return k
    return None


def integrate(system: Field | AffineSystem, q0, t_end: float, dt: float,
              method: str = "rk4") -> Trajectory:
    """March from 0 to t_end recording every step.

    ``system`` is a vector field q -> dq/dt or an :class:`AffineSystem`,
    which is stepped through its propagator Phi_h when that pays (see
    the module docstring). Thinning is an output-time concern; the whole
    trajectory stays in memory, which is fine at desk scale (a few 1e5
    steps of a small system). Runs that would store more than
    ``MAX_STORED_VALUES`` numbers are rejected before anything is
    allocated.
    """
    if method not in _STEPPERS:
        raise ValueError(f"unknown method '{method}' (expected rk4 or euler)")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if dt > t_end:
        raise ValueError("dt must not exceed t_end")
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
    segments = [(dt, n_whole)] if exact else [(dt, n_whole), (t_end - landing, 1)]

    times = np.empty(n_steps + 1)
    times[: n_whole + 1] = dt * np.arange(n_whole + 1)
    times[-1] = t_end

    states = np.empty((n_steps + 1, len(q)))
    states[0] = q
    if not isinstance(system, AffineSystem):
        bad = _march(system, method, states, segments)
    elif _affine_pays(system.dimension, n_steps, method):
        bad = _march_affine(system, method, states, segments)
    else:
        bad = _march(system.field_at, method, states, segments)
    if bad is not None:
        peak = float(np.max(np.abs(states[bad])))
        partial = Trajectory(times[:bad].copy(), states[:bad].copy(), method, dt)
        raise IntegrationBlowUp(
            f"state blew up at t={float(times[bad])!r} (max |q| = {peak!r}); "
            f"last finite state {states[bad - 1].tolist()!r}",
            partial, float(times[bad]))
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
