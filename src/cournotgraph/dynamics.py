"""Fixed-step integration of flow dynamics and long-run classification.

The integrator marches from t=0 to t_end with a constant step (the
final step is shortened to land exactly on t_end) and keeps every
``thin``-th state and the last, as the rows (t, q1, ..., qn) of one
table, the run's CSV rows. Only they are written, into a buffer of
rows: the whole table of a :class:`Trajectory`, or, for a run that
hands its rows to an ``emit``, max(1, ``STREAM_VALUES`` // (1 + n))
rows, handed on each time they fill, so that a run streamed to its CSV
holds one buffer, never its table.
The states are made a block at a time in a scratch buffer, and each
block starts from the last state of the one before, so a kept state
has the bits of the same step of a run that keeps them all. If a state
goes non-finite or its magnitude passes ``STATE_LIMIT`` the run aborts
with :class:`IntegrationBlowUp`, which carries the kept rows before it
and the last finite state -- that is how divergence of unstable systems
shows up in practice.

``integrate`` takes a vector field or an :class:`AffineSystem`, and
one marching loop (``_march``) steps either. For an affine system
dq/dt = c - A q one step of length h is exactly

    q <- q + Phi_h (c - A q),

with Phi_h = h I for euler and Phi_h = h (I + Z/2 + Z^2/6 + Z^3/24),
Z = -h A, for rk4 (the four stages of classical Runge-Kutta collapse
into this one matrix). So are j steps: q_{k+j} = q_k + Psi_j (c - A q_k)
with Psi_1 = Phi_h and Psi_{j+1} = Psi_j + Phi_h (I - A Psi_j). The
table Psi_1 .. Psi_m is formed once per distinct step length, and the m
states after q_k are then one stacked product from q_k, in place of m
steps. The block length is m = min(256, 2^16 // n^2), at least 1, so
the table holds at most 2^16 values, or one n x n matrix past n = 256,
and past n = 181 a block is one Phi_h step. The table ends before its
first non-finite Psi_j, so a strongly unstable A has shorter blocks. No
equilibrium is needed, so a singular A simulates too. Neither method's
states are the bytes of stepping c - A q: they round differently, at
about 1e-14 relative.

Which route a run takes depends on the system and the method alone
(``_affine_pays``): a network of more than ``_DENSE_STEP_MAX`` = 300
edges, and an euler run past n = 181, step the method over the
system's ``field_at`` like any other field; every other affine run
takes Phi_h. A network's field is matrix-free, O(n + k) per evaluation
(see :mod:`cournotgraph.network`), so past 300 edges simulating a
network never builds an n x n array. Neither the route nor the Psi
table depends on the run length or on ``thin``, and every block
multiplies the whole table, so a shorter run's states are byte for
byte the leading states of a longer run with the same dt. The price is
that a very short run still forms the whole table once.

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

from .network import AffineSystem, _frozen

Field = Callable[[np.ndarray], np.ndarray]

STATE_LIMIT = 1e9           # abort threshold on max |q|
DIVERGENCE_FACTOR = 10.0    # "left a 10x ball" distance criterion
# Kept states x dimension: 80 MB of a Trajectory's table. A run streamed
# to its CSV holds one block of rows whatever its length, so for it the
# limit bounds the CSV's size (at most 25 bytes a value), not memory.
MAX_STORED_VALUES = 10_000_000
MAX_MARCHED_VALUES = 1_000_000_000  # steps x dimension: the work of a run
_BLOCK_ROWS = 256           # most steps per blow-up check
_BLOCK_VALUES = 1 << 16     # about the most state values per blow-up check
# Values in one buffer of rows that ``integrate`` hands an ``emit``, and
# in one block of CSV text that ``reports`` renders.
STREAM_VALUES = 4096


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The states kept at times 0, thin dt, 2 thin dt, ..., and t_end
    (see ``integrate``), as one table of rows (t, q1, ..., qn): the rows
    of the run's CSV. ``times`` and ``states`` are its columns. The table
    is kept read-only; a caller's writeable array is copied, not frozen."""

    table: np.ndarray

    def __post_init__(self):
        table = _frozen(self.table)
        if table.ndim != 2 or len(table) < 1 or table.shape[1] < 2:
            raise ValueError(f"table must have rows (t, q1, ...), at least "
                             f"one, got shape {table.shape}")
        object.__setattr__(self, "table", table)

    times = property(lambda self: self.table[:, 0])
    states = property(lambda self: self.table[:, 1:])


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
    """State went non-finite or past STATE_LIMIT; carries the kept states
    before it, ending at the last finite state (of a run that hands its
    rows to an ``emit``, the last buffer of them)."""

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


# Largest network (structured system) stepped through Phi_h. Measured
# per rk4 step on a 2-core x86-64 host (Python 3.11, numpy 2.4), Phi_h
# step against matrix-free field step: 5.6 vs 49 us at n = 6, 54 vs 71
# at n = 241, 238 vs 84 at n = 500, 637 vs 84 at n = 960. A Phi_h step
# is two dense matrix-vector products, so it grows as n^2 (about 1e-3 us
# per entry); a field step is four O(n + k) evaluations that cost
# mostly per-call overhead, so it is nearly flat. The two meet near
# n = 300 (48 vs 66 us at n = 300, 140 vs 57 at n = 400). Past n = 181
# a block (see ``_march``) is one Phi_h step, so this crossover still
# holds for rk4. An euler step past n = 181 is the same two products
# against one field evaluation (34 vs 21 us at n = 262), so there euler
# takes the field route (see ``_affine_pays``).
_DENSE_STEP_MAX = 300


def _block_length(n: int) -> int:
    """Steps per stacked product for n variables (see ``_march``): the
    rows of the Psi table, at most ``_BLOCK_ROWS`` and about
    ``_BLOCK_VALUES`` values of Psi, at least 1. It depends on n alone,
    not on the run's length."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_VALUES // (n * n)))


def _affine_pays(system: AffineSystem, method: str) -> bool:
    """Whether a run steps through Phi_h rather than the field. The
    system and the method decide, never the run's length, so a shorter
    run takes the route of a longer one and repeats its leading states.

    A network system (one with an incidence ``structure``) of more than
    ``_DENSE_STEP_MAX`` variables steps its O(n + k) field, and its
    n x n matrix is never built. Euler past n = 181, where a block is
    one step whose two matrix-vector products cost about twice one field
    evaluation, steps the field too. Everything else takes Phi_h.
    """
    n = system.dimension
    if system.structure is not None and n > _DENSE_STEP_MAX:
        return False
    return method == "rk4" or _block_length(n) > 1


def _propagator(a: np.ndarray, h: float, method: str) -> np.ndarray:
    """Phi_h of one step of length h: h I for euler; for rk4
    h (I + Z/2 + Z^2/6 + Z^3/24) with Z = -h A, by Horner's rule."""
    eye = np.eye(a.shape[0])
    if method == "euler":
        return h * eye
    z = -h * a
    return h * (eye + z @ (eye / 2.0 + z @ (eye / 6.0 + z / 24.0)))


def _block_table(a: np.ndarray, h: float, method: str,
                 rows: int) -> np.ndarray:
    """Psi_1 .. Psi_rows stacked into one (rows n) x n array, with
    Psi_1 = Phi_h and Psi_{j+1} = Psi_j + Phi_h (I - A Psi_j), so that j
    steps of length h from q are q + Psi_j (c - A q). The table ends
    before its first non-finite Psi_j (it keeps Psi_1 whatever it
    holds): an overflowed Psi_j would turn a state held at an
    equilibrium, where c - A q = 0, into inf * 0 = NaN."""
    n = a.shape[0]
    phi = _propagator(a, h, method)
    psi = np.empty((rows, n, n))
    psi[0] = phi
    eye = np.eye(n)
    for j in range(1, rows):
        psi[j] = psi[j - 1] + phi @ (eye - a @ psi[j - 1])
    bad = np.flatnonzero(~np.isfinite(psi).all(axis=(1, 2)))
    kept = max(1, int(bad[0])) if bad.size else rows
    return psi[:kept].reshape(kept * n, n)


def _first_bad(rows: np.ndarray) -> int | None:
    """Index of the first row that is not finite or passes STATE_LIMIT."""
    bad = np.flatnonzero(~(np.abs(rows) <= STATE_LIMIT))  # NaN fails <= too
    return int(bad[0]) // rows.shape[1] if bad.size else None


def _march(system: Field | AffineSystem, method: str, out: np.ndarray,
           segments, dt: float, thin: int,
           emit) -> tuple[int, tuple[int, float] | None]:
    """Step from out[0, 1:] through the (h, count) segments of equal steps,
    writing state k as the row (dt k, state) of ``out`` when k % thin ==
    0, and the last state. ``out`` is a buffer of rows: when a row is due
    and it is full, it is handed to ``emit`` and filled again from its
    first row. Return (rows of out filled, None), or on a blow-up (rows
    filled, (k, peak)) with k the index of the first bad state (see
    ``_first_bad``) and peak its max |q|; the rows then end at state
    k - 1, the last finite one. The rows left in ``out`` are the caller's
    to hand on: a full ``out`` is emitted only when another row is due.

    States are made and checked in a scratch buffer, a block of at most
    ``_BLOCK_ROWS`` steps and about ``_BLOCK_VALUES`` values at a time;
    the next block starts from the buffer's last row, so every state has
    the bits it would have in a run that kept them all. A field
    ``system`` is stepped by the method's stepper. An AffineSystem is
    propagated m states at a time, m = ``_block_length(n)`` (fewer if the
    segment's ``_block_table`` was cut): the m states after q_lo are
    q_lo + Psi_j (c - A q_lo), j = 1..m, one product with the whole
    table, of which a block cut short keeps its leading rows (BLAS may
    round a product of fewer rows differently). So where m > 1 the
    scratch length decides where each product starts, and it depends on
    n alone; where m is 1 every state is one step from the one before,
    and the scratch holds at most as many steps as ``out`` holds rows.

    A run that blows up computes at most one block past its first bad
    state; the overflow and NaN arithmetic of those states is silenced,
    and a field that fails there with an ArithmeticError or ValueError
    still reports the blow-up.
    """
    affine = isinstance(system, AffineSystem)
    if affine:
        a, c = system.matrix, system.constant
    stepper = _STEPPERS[method]
    n = out.shape[1] - 1
    rows = min(_BLOCK_ROWS, max(1, _BLOCK_VALUES // n))
    if _block_length(n) == 1:
        rows = min(rows, len(out))
    buf = np.empty((rows + 1, n))  # buf[i] is state lo + i
    buf[0] = out[0, 1:]
    filled = 1

    def keep(states: np.ndarray, first: int) -> None:
        """Write states first, first + thin, ... as rows of out."""
        nonlocal filled
        done = 0
        while done < len(states):
            if filled == len(out):
                emit(out)
                filled = 0
            take = min(len(states) - done, len(out) - filled)
            block = out[filled:filled + take]
            block[:, 1:] = states[done:done + take]
            k = first + done * thin
            np.multiply(dt, np.arange(k, k + take * thin, thin),
                        out=block[:, 0])
            filled += take
            done += take

    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for h, count in segments:
            if affine:
                psi = _block_table(a, h, method, _block_length(n))
                m = len(psi) // n
            for lo in range(k, k + count, rows):
                hi, failure = min(lo + rows, k + count), None
                if affine:
                    for b in range(0, hi - lo, m):
                        e = min(b + m, hi - lo)
                        steps = (psi @ (c - a @ buf[b]))[:(e - b) * n]
                        np.add(buf[b], steps.reshape(e - b, n),
                               out=buf[b + 1:e + 1])
                else:
                    try:
                        for j in range(hi - lo):
                            buf[j + 1] = stepper(system, buf[j], h)
                    except (ArithmeticError, ValueError) as exc:
                        hi, failure = lo + j, exc  # rows 1 .. j were made
                bad = _first_bad(buf[1:hi - lo + 1])
                last = hi if bad is None else lo + bad
                # States lo + 1 .. last on the thin grid, then the last
                # finite state of a blow-up off it.
                first = (lo // thin + 1) * thin
                keep(buf[first - lo:last - lo + 1:thin], first)
                if bad is not None:
                    if last % thin:
                        keep(buf[last - lo:last - lo + 1], last)
                    return filled, (last + 1, float(np.max(np.abs(
                        buf[last - lo + 1]))))
                if failure is not None:
                    raise failure
                buf[0] = buf[hi - lo]
            k += count
    if k % thin:
        keep(buf[:1], k)
    return filled, None


def _segments(t_end: float, dt: float) -> list[tuple[float, int]]:
    """The (step length, count) runs of a march from 0 to t_end: whole
    steps of dt, then one shortened step that lands on t_end unless dt
    divides it to within 1e-9."""
    n_whole = int(math.floor(t_end / dt + 1e-9))
    landing = n_whole * dt
    if abs(landing - t_end) <= 1e-9 * max(dt, 1.0):
        return [(dt, n_whole)]
    return [(dt, n_whole), (t_end - landing, 1)]


def step_count(t_end: float, dt: float) -> int:
    """Steps of a march from 0 to t_end with step dt: the whole steps of
    dt and, unless dt divides t_end, one shortened last step."""
    return sum(count for _, count in _segments(t_end, dt))


def integrate(system: Field | AffineSystem, q0, t_end: float, dt: float,
              method: str = "rk4", thin: int = 1,
              emit: Callable[[np.ndarray], None] | None = None
              ) -> Trajectory | None:
    """March from 0 to t_end, keeping every ``thin``-th step and the last.

    ``system`` is a vector field q -> dq/dt or an :class:`AffineSystem`,
    which is stepped through its propagator Phi_h when that pays (see
    the module docstring). Each kept state has the bits of the same step
    of a run at ``thin`` = 1. The rows (t, q1, ..., qn) kept have
    t = dt k for state k, and t_end on the last row of a run that is not
    cut short by a blow-up.

    Without ``emit`` only the kept rows are held, in the table of the
    Trajectory returned, beside a scratch block of at most
    ``_BLOCK_ROWS`` states. With ``emit``, they are written into a
    buffer of max(1, ``STREAM_VALUES`` // (1 + n)) rows for n variables
    (fewer if the run keeps fewer), which is handed to ``emit`` each time
    it is full and, its filled rows, at the end; ``emit`` must not keep
    it. Nothing is returned then, and a
    blow-up's Trajectory holds the last rows handed on. ``emit`` is
    first called after every check below has passed.

    Rejected before anything is allocated: a run that would keep more
    than ``MAX_STORED_VALUES`` numbers or march more than
    ``MAX_MARCHED_VALUES`` (steps x variables), and a q0 that is not a
    vector of at least one value, or is not finite or passes
    ``STATE_LIMIT``.
    """
    if method not in _STEPPERS:
        raise ValueError(f"unknown method '{method}' (expected rk4 or euler)")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if dt > t_end:
        raise ValueError("dt must not exceed t_end")
    if thin < 1:
        raise ValueError("thin must be at least 1")
    q = np.asarray(q0, dtype=float)
    if q.ndim != 1 or not q.size:
        raise ValueError(f"q0 must be a vector of at least one value, got "
                         f"shape {q.shape}")
    peak = float(np.max(np.abs(q)))
    if not peak <= STATE_LIMIT:  # NaN fails too
        raise ValueError(f"q0 must be finite with max |q| at most "
                         f"{STATE_LIMIT!r}, got {peak!r}")
    # Tested as floats, which also keeps a step count too large for
    # int() from reaching it: at most t_end / dt + 1 steps, of which at
    # most steps / thin + 2 states are kept (1 / thin, an int division,
    # takes a thin past the float range too).
    steps = t_end / dt
    if ((steps + 1) * (1 / thin) + 2) * q.size > MAX_STORED_VALUES:
        raise ValueError(
            f"t_end / dt = {steps:.6g} steps of {q.size} variables at thin "
            f"{thin} exceed the limit of {MAX_STORED_VALUES} stored values")
    if steps * q.size > MAX_MARCHED_VALUES:
        raise ValueError(
            f"t_end / dt = {steps:.6g} steps of {q.size} variables exceed "
            f"the limit of {MAX_MARCHED_VALUES} marched values")

    segments = _segments(t_end, dt)
    n_steps = step_count(t_end, dt)
    # Any thin past the last step keeps the first and last state alone.
    thin = min(thin, n_steps + 1)
    kept = n_steps // thin + 1 + (n_steps % thin > 0)
    buffer = kept if emit is None else max(1, STREAM_VALUES // (1 + len(q)))
    out = np.empty((min(kept, buffer), 1 + len(q)))
    out[0, 0] = 0.0
    out[0, 1:] = q
    if (isinstance(system, AffineSystem)
            and not _affine_pays(system, method)):
        system = system.field_at
    filled, bad = _march(system, method, out, segments, dt, thin, emit)
    rows = out[:filled]
    if bad is not None:
        first_bad, peak = bad
        time = t_end if first_bad == n_steps else dt * first_bad
        if emit is not None:
            emit(rows)
        raise IntegrationBlowUp(
            f"state blew up at t={time!r} (max |q| = {peak!r}); "
            f"last finite state {rows[-1, 1:].tolist()!r}",
            Trajectory(rows), time)  # copied: a view
    rows[-1, 0] = t_end
    if emit is not None:
        emit(rows)
        return None
    out.setflags(write=False)  # so the Trajectory keeps it uncopied
    return Trajectory(out)


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
